"""Every module-level function, class and constant of the package is named
somewhere besides its definition: in its own module, or from `src/`, `tests/`
or `bench/` through an import, an attribute of the module, or a
`getattr`/`setattr`-style call on the module with the name as a string.
And every name a module imports is used in that module, except in the
package's `__init__.py`, whose imports are its exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gamelattice"


def _parsed_sources():
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _definitions(tree):
    """The module-level names a module defines, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not (
                        name.id.startswith("__") and name.id.endswith("__")
                    ):
                        yield name.id


def _references(path, tree):
    """(module, name) pairs that the source refers to."""
    own = path.stem if path.parent == PACKAGE else None
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
            yield own, node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield node.value.id, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.module.rsplit(".", 1)[-1], alias.name
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            module, name = node.args[:2]
            if isinstance(module, ast.Name) and isinstance(name, ast.Constant):
                yield module.id, name.value


def test_every_module_level_name_is_used():
    sources = list(_parsed_sources())
    assert sum(path.parent == PACKAGE for path, _ in sources) > 10
    referenced = {ref for path, tree in sources for ref in _references(path, tree)}
    unused = [
        f"{path.stem}.{name}"
        for path, tree in sources
        if path.parent == PACKAGE
        for name in _definitions(tree)
        if (path.stem, name) not in referenced
    ]
    assert unused == []


def _imported_names(tree):
    """(line, name) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_imported_name_is_used():
    unused = []
    for path, tree in _parsed_sources():
        if path == PACKAGE / "__init__.py":
            continue
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for line, name in _imported_names(tree)
            if name not in loaded
        ]
    assert unused == []
