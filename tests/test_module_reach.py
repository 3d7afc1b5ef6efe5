"""Every module under ``src/repro`` is reached from outside the tests.

A module earns its place when a non-``__init__`` file under ``src/``,
``benchmarks/`` or ``tools/`` imports it or uses one of its names;
``repro.experiments.cli`` is the entry point.  Examples and tests are
not callers.  ``from <package> import name`` and ``<package>.name``
resolve through the package ``__init__`` re-exports, so a name a
package re-exports but nobody uses reaches nothing.
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_ROOTS = ("src", "benchmarks", "tools")
ENTRY_POINT = "repro.experiments.cli"


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


def test_every_src_module_has_a_caller():
    assert unreached_modules() == []
