"""Static hygiene of the package sources: no unused imports and no
private function that nothing calls.

Both checks read the sources with the standard `ast` module, so they see
names, not behaviour: a name counts as used when it appears anywhere in
the module as an identifier or an attribute.
`from __future__` imports and the re-exports of `__init__` are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seifertlinks"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for item in node.names:
                name = item.asname or item.name.split(".")[0]
                bound.append((name, node.lineno))
    return bound


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        used = _used_names(tree)
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _imported_names(tree)
            if name not in used
        ]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_no_unreferenced_private_functions():
    trees = {path.name: _tree(path) for path in SOURCES}
    used: set[str] = set()
    for tree in trees.values():
        used |= _used_names(tree)
        used |= {name for name, _ in _imported_names(tree)}
    unreferenced = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in used
    ]
    assert not unreferenced, "unreferenced private functions: " + ", ".join(
        unreferenced
    )
