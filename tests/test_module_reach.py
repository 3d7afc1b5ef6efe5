"""Every module and every top-level definition under ``src/repro`` is
reached from outside the tests.

A module earns its place when a non-``__init__`` file under ``src/``,
``benchmarks/`` or ``tools/`` imports it or uses one of its names;
``repro.experiments.cli`` is the entry point.  Examples and tests are
not callers.  ``from <package> import name`` and ``<package>.name``
resolve through the package ``__init__`` re-exports, so a name a
package re-exports but nobody uses reaches nothing.

A top-level function or class earns its place when a root names it,
directly or through the body of a definition that is itself reached.
The roots are ``repro.experiments.cli``, every file under
``benchmarks/`` and ``tools/``, and the module-level code of ``src/``
(decorators, default values and base classes included); ``__all__``
and import statements are not.  Matching is by name, so a collision
can hide a dead definition but never flags a live one.  Methods are
not counted themselves, but a method's body counts only once its name
is reached (dunders count with their class).  :data:`ALLOWLIST` holds
the few definitions kept without a caller, each with its reason.
"""

import ast
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_ROOTS = ("src", "benchmarks", "tools")
ENTRY_POINT = "repro.experiments.cli"

#: Top-level definitions kept without a caller -> why.
ALLOWLIST = {
    "validate_jsonl": "validator of the JSONL event log the CLI writes",
    "validate_exposition": "validator of the exposition the CLI writes",
    "iter_jsonl": "reader of the JSONL event log the CLI writes",
    "read_telemetry_jsonl": "reader of the telemetry JSONL the CLI "
                            "writes",
    "load_trace_jsonl": "reader of the verify witness JSONL the CLI "
                        "writes",
    "VirtualClock": "test fake: deterministic telemetry clock",
    "RecordingSink": "test fake: in-memory probe event sink",
    "glitch_statistics": "backs the public SessionSummary.glitches and "
                         "is the stall reference of ROADMAP item 6",
}


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _python_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _source_modules(src):
    """Dotted name -> path of every module and package under src/."""
    modules = {}
    for path in _python_files(os.path.join(src, "repro")):
        parts = os.path.relpath(path, src)[:-3].split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _is_package(modules, name):
    return modules.get(name, "").endswith("__init__.py")


def _from_base(node, package):
    """Absolute module named by ``from <base> import ...`` in ``package``."""
    if not node.level:
        return node.module
    parts = package.split(".")
    parts = parts[:len(parts) - (node.level - 1)]
    return ".".join(parts + ([node.module] if node.module else []))


def _reexports(modules):
    """Package -> {exported name: (source module, source name)}."""
    table = {}
    for name, path in modules.items():
        if not _is_package(modules, name):
            continue
        exports = table.setdefault(name, {})
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom):
                base = _from_base(node, name)
                for alias in node.names:
                    exports[alias.asname or alias.name] = (base, alias.name)
    return table


class _Reach:
    def __init__(self, root):
        self.root = root
        self.modules = _source_modules(os.path.join(root, "src"))
        self.exports = _reexports(self.modules)

    def resolve(self, base, name):
        """Modules reached by ``base.name``; ``base`` is a module."""
        target = f"{base}.{name}"
        if target in self.modules:
            return {target}
        if not _is_package(self.modules, base):
            return {base}
        source = self.exports.get(base, {}).get(name)
        return set() if source is None else self.resolve(*source)

    def reached_by(self, path, current):
        """Modules a caller file imports or uses a name of."""
        reached = set()
        bound = {}  # local name -> module it is bound to
        tree = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self.modules:
                        reached.add(alias.name)
                    local = alias.asname or alias.name.split(".")[0]
                    module = alias.name if alias.asname else local
                    if module in self.modules:
                        bound[local] = module
            elif isinstance(node, ast.ImportFrom):
                base = _from_base(node, current.rpartition(".")[0])
                if base not in self.modules:
                    continue
                for alias in node.names:
                    reached |= self.resolve(base, alias.name)
                    submodule = f"{base}.{alias.name}"
                    if submodule in self.modules:
                        bound[alias.asname or alias.name] = submodule
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reached |= self._attribute_chain(node, bound)
        return reached

    def _attribute_chain(self, node, bound):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in bound:
            return set()
        current = bound[node.id]
        reached = set()
        for attr in reversed(attrs):
            reached |= self.resolve(current, attr)
            target = f"{current}.{attr}"
            if target not in self.modules:
                break
            current = target
        return reached

    def unreached(self):
        reached = {ENTRY_POINT}
        for top in CALLER_ROOTS:
            top_dir = os.path.join(self.root, top)
            for path in _python_files(top_dir):
                if os.path.basename(path) == "__init__.py":
                    continue
                rel = os.path.relpath(path, top_dir)
                current = ".".join(rel[:-3].split(os.sep))
                reached |= self.reached_by(path, current) - {current}
        return sorted(name for name in self.modules
                      if not _is_package(self.modules, name)
                      and name not in reached)


def unreached_modules(root=REPO):
    """Modules under ``root/src/repro`` that no caller reaches."""
    return _Reach(root).unreached()


# ---------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_in(nodes):
    """Every name the nodes mention: identifiers, attributes and
    names imported inside them."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
    return names


def _top_level(body):
    """Statements at module level, through ``if``/``try`` blocks."""
    for node in body:
        if isinstance(node, ast.If):
            yield from _top_level(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _top_level(
                node.body + node.orelse + node.finalbody
                + [stmt for handler in node.handlers
                   for stmt in handler.body])
        else:
            yield node


def _is_all(node):
    targets = node.targets if isinstance(node, ast.Assign) else [
        getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


def _module_level_roots(node):
    """What a definition's own statement evaluates at import."""
    roots = list(node.decorator_list)
    if isinstance(node, ast.ClassDef):
        roots += node.bases + [kw.value for kw in node.keywords]
    else:
        roots += node.args.defaults + [
            d for d in node.args.kw_defaults if d is not None]
    return roots


def _body(node):
    """(statement, gate) pairs of a definition's body.  A method counts
    once its name is reached (``gate``); dunders and every other
    statement count with the definition (``None``)."""
    for statement in node.body:
        name = getattr(statement, "name", "")
        if isinstance(node, ast.ClassDef) \
                and isinstance(statement, _DEFINITIONS[:2]) \
                and not (name.startswith("__") and name.endswith("__")):
            yield statement, name
        else:
            yield statement, None


def definition_census(root=REPO, allowlist=ALLOWLIST):
    """(unreached, stale) top-level definitions under ``root/src/repro``.

    ``unreached`` lists ``module:name`` of every function or class no
    root reaches once the allowlisted ones count as reached;
    ``stale`` lists the allowlist entries that name no definition or
    that a root reaches anyway.
    """
    definitions = {}  # name -> [(module, node)]
    aliases = {}  # local name -> imported names it stands for
    roots = set()
    for module, path in _source_modules(os.path.join(root, "src")).items():
        tree = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.asname:
                        aliases.setdefault(alias.asname, set()).add(
                            alias.name)
        for node in _top_level(tree.body):
            if isinstance(node, _DEFINITIONS):
                definitions.setdefault(node.name, []).append((module, node))
                roots |= _names_in(_module_level_roots(node))
                if module == ENTRY_POINT:
                    roots.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and not _is_all(node):
                roots |= _names_in([node])
    for top in CALLER_ROOTS[1:]:
        for path in _python_files(os.path.join(root, top)):
            roots |= _names_in([_parse(path)])

    def reach(seeds):
        reached, frontier = set(), set(seeds)
        waiting = {}  # method name -> its bodies in reached classes
        while frontier:
            name = frontier.pop()
            if name in reached:
                continue
            reached.add(name)
            frontier |= aliases.get(name, set())
            frontier |= _names_in(waiting.pop(name, []))
            for _, node in definitions.get(name, ()):
                for statement, gate in _body(node):
                    if gate is None or gate in reached:
                        frontier |= _names_in([statement])
                    else:
                        waiting.setdefault(gate, []).append(statement)
        return reached

    from_roots = reach(roots)
    stale = sorted(name for name in allowlist
                   if name not in definitions or name in from_roots)
    reached = reach(roots | set(allowlist))
    unreached = sorted(f"{module}:{name}"
                       for name, found in definitions.items()
                       if name not in reached for module, _ in found)
    return unreached, stale


def test_every_src_module_has_a_caller():
    assert unreached_modules() == []


def test_every_src_definition_has_a_caller():
    unreached, stale = definition_census()
    assert unreached == []
    assert stale == []


def test_allowlist_reasons_are_one_line():
    for name, reason in ALLOWLIST.items():
        assert reason.strip() and "\n" not in reason, name


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


@pytest.fixture
def synthetic_tree(tmp_path):
    """A repo whose CLI calls one helper; ``orphan`` has no caller."""
    _write(tmp_path / "src/repro/experiments/cli.py",
           "from repro.lib import live\n\n"
           "def main():\n    return live()\n")
    _write(tmp_path / "src/repro/lib.py",
           "TABLE = {'kind': 'x'}\n\n"
           "def live():\n    return _helper()\n\n"
           "def _helper():\n    return TABLE\n\n"
           "def orphan():\n    return 1\n\n"
           "def kept():\n    return _only_kept()\n\n"
           "def _only_kept():\n    return 2\n\n"
           "__all__ = ['orphan']\n")
    _write(tmp_path / "benchmarks/bench.py", "")
    _write(tmp_path / "tools/tool.py", "")
    return str(tmp_path)


def test_census_flags_exactly_the_dead_function(synthetic_tree):
    unreached, stale = definition_census(
        synthetic_tree, allowlist={"kept": "reason"})
    # ``__all__`` is not a root; ``_helper`` is reached through
    # ``live`` and ``_only_kept`` through the allowlisted ``kept``.
    assert unreached == ["repro.lib:orphan"]
    assert stale == []
    unreached, _ = definition_census(
        synthetic_tree, allowlist={"kept": "r", "orphan": "r"})
    assert unreached == []


def test_census_reports_a_stale_allowlist(synthetic_tree):
    # Missing: the name is defined nowhere.
    _, stale = definition_census(synthetic_tree,
                                 allowlist={"kept": "r", "gone": "r"})
    assert stale == ["gone"]
    # Reached: a root calls it after all.
    _, stale = definition_census(synthetic_tree,
                                 allowlist={"kept": "r", "live": "r"})
    assert stale == ["live"]
