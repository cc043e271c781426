"""Static hygiene of the package sources: no unused imports, no `__all__`
entry that names nothing, no private function that nothing calls, no
public name with a private twin, no `assert`, no `dataclasses`, no
unbounded memo, and no code outside `link_model.normalize` that sets the
canonical flag.

The checks read the sources with the standard `ast` module, so they see
names, not behaviour: a name counts as used when it appears anywhere in
the module as an identifier or an attribute.
`from __future__` imports and the re-exports of `__init__` are exempt.
One more test imports the CLI in a fresh interpreter and checks which
modules that loads.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def _imported_modules(tree: ast.Module) -> list[tuple[str, int]]:
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [(item.name, node.lineno) for item in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append((node.module, node.lineno))
    return modules


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


def _defined_at_top_level(tree: ast.Module) -> set[str]:
    """Names a module defines or assigns at its top level."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name)}
    return bound


def _bound_at_top_level(tree: ast.Module) -> set[str]:
    """Names a module defines, assigns or imports at its top level."""
    return _defined_at_top_level(tree) | {n for n, _ in _imported_names(tree)}


def _exported_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [item.value for item in node.value.elts]
    return []


def test_all_names_only_what_the_module_binds():
    stale = []
    for path in SOURCES:
        tree = _tree(path)
        bound = _bound_at_top_level(tree)
        stale += [
            f"{path.name} {name}"
            for name in _exported_names(tree)
            if name not in bound
        ]
    assert not stale, "__all__ names nothing bound: " + ", ".join(stale)


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


def test_no_public_name_has_a_private_twin():
    # The canonical flag is the one normalize-once mechanism: a public
    # function normalizes its argument and runs its own body, so no
    # private `_f` repeats the body of a public `f`.
    twins = []
    for path in SOURCES:
        defined = _defined_at_top_level(_tree(path))
        twins += [
            f"{path.name} {name}"
            for name in sorted(defined)
            if not name.startswith("_") and "_" + name in defined
        ]
    assert not twins, "public names with a private twin: " + ", ".join(twins)


def test_no_assert_statements():
    # `python -O` strips asserts; invariants raise InvariantViolation.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements: " + ", ".join(found)


def test_no_dataclasses_import():
    # Records derive from `_record.Record`: `dataclasses` and the `inspect`
    # it loads cost start-up time on every CLI query.
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for module, line in _imported_modules(_tree(path))
        if module.split(".")[0] == "dataclasses"
    ]
    assert not found, "dataclasses imports: " + ", ".join(found)


def _unbounded_caches(tree: ast.Module) -> list[int]:
    """Lines that bind `functools.cache` or call `lru_cache(maxsize=None)`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for item in node.names if item.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", ""))
            sizes = node.args[:1]
            sizes += [item.value for item in node.keywords if item.arg == "maxsize"]
            unbounded = any(
                isinstance(size, ast.Constant) and size.value is None
                for size in sizes
            )
            if name == "lru_cache" and unbounded:
                lines.append(node.lineno)
    return lines


def test_no_unbounded_caches():
    # A memo without a bound grows with every distinct input a long-lived
    # caller passes; memory must stay bounded.
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _unbounded_caches(_tree(path))
    ]
    assert not found, "unbounded caches: " + ", ".join(found)


def test_unbounded_cache_rule_sees_each_spelling():
    sources = [
        "from functools import cache",
        "import functools\n@functools.cache\ndef f(): pass",
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(): pass",
        "import functools\n@functools.lru_cache(None)\ndef f(): pass",
    ]
    for source in sources:
        assert _unbounded_caches(ast.parse(source)), source
    bounded = "import functools\n@functools.lru_cache(maxsize=64)\ndef f(): pass"
    assert not _unbounded_caches(ast.parse(bounded))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # `-S` keeps the site packages' own imports out of the check.
    code = (
        "import seifertlinks.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]", result.stdout


def test_cli_import_does_not_load_json():
    # Only `--json` output needs the json package; `_emit` imports it then.
    code = (
        "import seifertlinks.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'json'))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]", result.stdout


def _flag_writes(tree: ast.AST) -> list[int]:
    """Lines that assign the flag as an attribute or name it as a string,
    as `object.__setattr__` needs: a record's own `__setattr__` refuses."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value == "_canonical":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "_canonical":
            if not isinstance(node.ctx, ast.Load):
                lines.append(node.lineno)
    return lines


def test_only_normalize_sets_the_canonical_flag():
    # A link flagged anywhere else would skip validation, valid or not.
    allowed = set()
    for node in ast.walk(_tree(PACKAGE / "link_model.py")):
        if isinstance(node, ast.FunctionDef) and node.name == "normalize":
            allowed = {("link_model.py", line) for line in _flag_writes(node)}
    assert allowed, "normalize no longer sets the canonical flag"
    stray = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _flag_writes(_tree(path))
        if (path.name, line) not in allowed
    ]
    assert not stray, "canonical flag set outside normalize: " + ", ".join(stray)
