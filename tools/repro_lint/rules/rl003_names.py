"""RL003 — observability names must match the one name table.

:mod:`repro.obs.names` declares every probe, span and metric once::

    NAMES = {"link.drop": ("probe", ("link", "packet", "qlen"), "..."),
             "cache.hit": ("counter", ("kind",), "..."), ...}

The runtime accessors check a name only on the code paths a run
happens to execute; this rule checks the whole tree under ``src/``:

* a literal name passed to an accessor or exposition helper —
  ``.probe()``, ``.span()``, ``.counter()``, ``.gauge()``,
  ``.histogram()``, ``sample_line()``, ``histogram_lines()`` — must be
  declared, with a kind the call accepts (``.counter()`` on a gauge
  entry, or ``sample_line()`` on a histogram, is a bug);
* every ``<probe>.emit(t, ...)`` call carries one leading timestamp
  plus exactly the declared fields — an arity drift silently
  mis-labels JSONL fields;
* every entry has at least one literal call site — a dead entry fires
  on its own line, so it is removed or the call restored.

Emit sites are resolved by tracking, per class, assignments of the
form ``self._p_x = <...>.probe("topic")`` (conditional forms included)
and plain-variable equivalents, plus local aliases
(``p = self._p_x``).  Attributes bound in a base class (possibly in
another file) resolve through a project-wide attribute-name map; a
name bound to two different topics anywhere is ambiguous and skipped.

The rule is inert when the names file is not part of the run.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from tools.repro_lint.engine import Finding, Project

RULE = "RL003"
SUMMARY = "observability names inconsistent with repro.obs.names.NAMES"

NAMES_FILE = "src/repro/obs/names.py"
EMITTER_SCOPE = ("src",)

#: Call name -> the kinds its literal first argument may declare.
_ACCESSORS = {
    "probe": ("probe",),
    "span": ("span",),
    "counter": ("counter",),
    "gauge": ("gauge",),
    "histogram": ("histogram",),
    "sample_line": ("counter", "gauge"),
    "histogram_lines": ("histogram",),
}

_AMBIGUOUS = object()


def _parse_names(source) -> Optional[Dict[str, Tuple[str, int, int]]]:
    """NAMES entries -> (kind, field count, line number of the entry)."""
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "NAMES"
                   for t in targets):
            continue
        if not isinstance(value, ast.Dict):
            return None
        names: Dict[str, Tuple[str, int, int]] = {}
        for key, val in zip(value.keys, value.values):
            if isinstance(key, ast.Constant) \
                    and isinstance(key.value, str) \
                    and isinstance(val, ast.Tuple) \
                    and len(val.elts) >= 2 \
                    and isinstance(val.elts[0], ast.Constant) \
                    and isinstance(val.elts[0].value, str) \
                    and isinstance(val.elts[1], ast.Tuple):
                names[key.value] = (val.elts[0].value,
                                    len(val.elts[1].elts), key.lineno)
        return names
    return None


def _accessor(node: ast.Call) -> Optional[str]:
    """The accessor a call with a literal first argument names."""
    if not (node.args and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        call = func.attr
    elif isinstance(func, ast.Name):
        call = func.id
    else:
        return None
    return call if call in _ACCESSORS else None


def _probe_topic(node: ast.AST) -> Optional[ast.Call]:
    """The ``<...>.probe("lit")`` call inside ``node``, if any."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) \
                and isinstance(sub.func, ast.Attribute) \
                and sub.func.attr == "probe" \
                and len(sub.args) == 1 \
                and isinstance(sub.args[0], ast.Constant) \
                and isinstance(sub.args[0].value, str):
            return sub
    return None


class _FileScan(ast.NodeVisitor):
    """Collect probe bindings and emit calls, per class context."""

    def __init__(self):
        self.class_stack: List[str] = ["<module>"]
        # (class, kind, name) -> topic or _AMBIGUOUS; kind is "attr"
        # for ``self.X`` and "var" for plain names.
        self.bindings: Dict[Tuple[str, str, str], object] = {}
        # (class, var) -> self-attribute it aliases (``p = self._p_x``)
        self.var_aliases: Dict[Tuple[str, str], str] = {}
        self.emit_calls: List[Tuple[str, ast.Call]] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _bind(self, kind: str, name: str, topic: str) -> None:
        key = (self.class_stack[-1], kind, name)
        known = self.bindings.get(key)
        if known is not None and known != topic:
            self.bindings[key] = _AMBIGUOUS
        else:
            self.bindings[key] = topic

    def visit_Assign(self, node: ast.Assign) -> None:
        call = _probe_topic(node.value)
        if call is not None:
            topic = call.args[0].value
            for target in node.targets:
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    self._bind("attr", target.attr, topic)
                elif isinstance(target, ast.Name):
                    self._bind("var", target.id, topic)
        elif isinstance(node.value, ast.Attribute) \
                and isinstance(node.value.value, ast.Name) \
                and node.value.value.id == "self" \
                and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            self.var_aliases[(self.class_stack[-1],
                              node.targets[0].id)] = node.value.attr
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "emit":
            self.emit_calls.append((self.class_stack[-1], node))
        self.generic_visit(node)


def check(project: Project) -> List[Finding]:
    names_source = project.get(NAMES_FILE)
    if names_source is None or names_source.tree is None:
        return []  # the names file is not in this run; inert
    names = _parse_names(names_source)
    if names is None:
        return [Finding(names_source.path, 1, 1, RULE,
                        "could not parse the NAMES dict literal")]

    findings: List[Finding] = []
    used: Set[str] = set()
    scans = []
    for source in project.iter_package(*EMITTER_SCOPE):
        if source.tree is None or source.rel == NAMES_FILE:
            continue
        scan = _FileScan()
        scan.visit(source.tree)
        scans.append((source, scan))
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            call = _accessor(node)
            if call is None:
                continue
            name = node.args[0].value
            entry = names.get(name)
            if entry is None:
                findings.append(Finding(
                    source.path, node.lineno, node.col_offset + 1,
                    RULE, f"{name!r} is not declared in "
                          "repro.obs.names.NAMES"))
                continue
            used.add(name)
            if entry[0] not in _ACCESSORS[call]:
                findings.append(Finding(
                    source.path, node.lineno, node.col_offset + 1,
                    RULE, f"{name!r} is declared as a {entry[0]} but "
                          f"used via {call}()"))

    # Project-wide attribute map: resolves emits on probe attributes
    # bound in a base class, possibly in another file.
    global_attrs: Dict[str, object] = {}
    for _, scan in scans:
        for (_, kind, name), topic in scan.bindings.items():
            if kind != "attr":
                continue
            known = global_attrs.get(name)
            if known is not None and known != topic:
                global_attrs[name] = _AMBIGUOUS
            else:
                global_attrs[name] = topic

    for source, scan in scans:
        for class_name, call in scan.emit_calls:
            func = call.func
            attr: Optional[str] = None
            topic: object = None
            if isinstance(func.value, ast.Attribute) \
                    and isinstance(func.value.value, ast.Name) \
                    and func.value.value.id == "self":
                attr = func.value.attr
                topic = scan.bindings.get((class_name, "attr", attr))
            elif isinstance(func.value, ast.Name):
                var = func.value.id
                topic = scan.bindings.get((class_name, "var", var))
                if topic is None:
                    attr = scan.var_aliases.get((class_name, var))
                    if attr is not None:
                        topic = scan.bindings.get(
                            (class_name, "attr", attr))
            else:
                continue
            if topic is None and attr is not None:
                topic = global_attrs.get(attr)
            entry = names.get(topic) if isinstance(topic, str) else None
            if entry is None or entry[0] != "probe":
                continue
            if any(isinstance(arg, ast.Starred) for arg in call.args) \
                    or call.keywords:
                continue  # dynamic payload; runtime validation only
            fields = entry[1]
            if len(call.args) != 1 + fields:
                findings.append(Finding(
                    source.path, call.lineno, call.col_offset + 1,
                    RULE,
                    f"emit on probe {topic!r} carries "
                    f"{len(call.args)} argument(s); NAMES declares "
                    f"{fields} payload field(s) (expected time + "
                    f"{fields} = {1 + fields})"))

    for name, (kind, _, lineno) in sorted(names.items()):
        if name not in used:
            findings.append(Finding(
                names_source.path, lineno, 1, RULE,
                f"dead NAMES entry {name!r} ({kind}): no literal call "
                "site under src/ uses this name — remove the entry or "
                "restore the call"))
    return findings
