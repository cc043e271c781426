"""Static hygiene of the package sources: no unused imports, no `__all__`
entry that names nothing, no private function that nothing calls, no
public name with a private twin, no `assert`, no `dataclasses`, no
unbounded memo, no code outside `link_model.normalize` that sets the
canonical flag or the Seifert view, no shape branch in the functions
that read that view, and no `Fraction` call in the functions that decide
a cover verdict.  The oracles and the expanded reference in `tests/`
take no arithmetic from the package they check.

The checks read the sources with the standard `ast` module, so they see
names, not behaviour: a name counts as used when it appears anywhere in
the module as an identifier or an attribute.
`from __future__` imports and the star re-exports of `__init__` are
exempt.  At run time, one more test checks that the package exports the
union of its modules' `__all__`, one imports the CLI in a fresh
interpreter and checks which modules that loads, and one runs every
`>>>` example in the package.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "seifertlinks"
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
    """The names of a literal `__all__` list; none for a computed one, as
    in `__init__`, which the runtime test below checks instead."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
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


def test_package_exports_the_union_of_the_modules_all():
    # `__init__` star-imports the modules, so a name two modules export
    # would be bound to whichever comes last, without a warning.
    import seifertlinks

    modules = [
        importlib.import_module(f"seifertlinks.{path.stem}")
        for path in SOURCES
        if path.name != "__init__.py" and _exported_names(_tree(path))
    ]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names)), "names exported twice"
    assert seifertlinks.__all__ == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(seifertlinks, name) is getattr(module, name), name


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


# What `normalize` stores on the link it returns: the flag and the view.
_STORED = ("_canonical", "_view")


def _flag_writes(tree: ast.AST) -> list[int]:
    """Lines that assign the flag or the view as an attribute or name it
    as a string, as `object.__setattr__` needs: a record's own
    `__setattr__` refuses."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in _STORED:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in _STORED:
            if not isinstance(node.ctx, ast.Load):
                lines.append(node.lineno)
    return lines


def test_only_normalize_sets_the_canonical_flag():
    # A link flagged anywhere else would skip validation, valid or not,
    # and a view set anywhere else could disagree with the link.
    allowed = set()
    for node in ast.walk(_tree(PACKAGE / "link_model.py")):
        if isinstance(node, ast.FunctionDef) and node.name == "normalize":
            allowed = {("link_model.py", line) for line in _flag_writes(node)}
    assert len(allowed) == len(_STORED), "normalize no longer sets the flag and the view"
    stray = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _flag_writes(_tree(path))
        if (path.name, line) not in allowed
    ]
    assert not stray, "flag or view set outside normalize: " + ", ".join(stray)


# Functions that read the Seifert view of `link_model` instead of testing
# the link's shape: (module, function).
_VIEW_READERS = (
    ("alexander.py", "_factored"),
    ("orbifold.py", "b_bar"),
    ("orbifold.py", "fibre_data"),
    ("orbifold.py", "finite_group"),
    ("cover.py", "_sigma_sums"),
    ("cover.py", "_jn_record"),
    ("cover.py", "_rotation_witness"),
    ("cover.py", "_canonical_runs"),
    ("cover.py", "_runs"),
    ("cover.py", "general_psi_lo"),
    ("cover.py", "canonical_star_status"),
    ("cover.py", "_catalogued_invariants"),
    ("cover.py", "_require_weighted_core"),
    ("classify.py", "is_ade_up_to_orientation"),
    ("classify.py", "_core_orders"),
    ("classify.py", "_spherical_base"),
    ("classify.py", "classification_report"),
    ("classify.py", "_dynkin"),
    ("link_model.py", "_normal_form"),
    ("link_model.py", "components"),
    ("link_model.py", "alias"),
    ("link_model.py", "reorient_to_P"),
)


def test_view_readers_name_no_core_shape():
    # One formula over (p, q, k, w, e1, e2) each: none of these may
    # branch on the three core shapes again.
    shapes = {"ZeroCore", "OneCore", "TwoCore"}
    found = {}
    for module, function in _VIEW_READERS:
        for node in ast.walk(_tree(PACKAGE / module)):
            if isinstance(node, ast.FunctionDef) and node.name == function:
                found[module, function] = sorted(
                    {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & shapes
                )
    assert sorted(found) == sorted(_VIEW_READERS)
    assert not any(found.values()), {key: names for key, names in found.items() if names}


# The functions that decide the cover verdicts and return the rotation
# witness: each works in integers, and `JNData` builds sigma and the
# angles only when they are read.
_INTEGER_DECIDERS = (
    "canonical_star_status",
    "general_psi_lo",
    "_rotation_witness",
    "_sigma_sums",
    "_jn_record",
)


def test_verdicts_call_no_fraction():
    found = {}
    for node in ast.walk(_tree(PACKAGE / "cover.py")):
        if isinstance(node, ast.FunctionDef) and node.name in _INTEGER_DECIDERS:
            found[node.name] = [
                call.lineno
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "Fraction"
            ]
    assert sorted(found) == sorted(_INTEGER_DECIDERS)
    assert not any(found.values()), {name: lines for name, lines in found.items() if lines}


def _package_imports(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(module, bound name, line) of every import from the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                (item.name, item.asname or item.name, node.lineno)
                for item in node.names
                if item.name.split(".")[0] == "seifertlinks"
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "seifertlinks":
                found += [(node.module, item.name, node.lineno) for item in node.names]
    return found


def test_oracles_import_nothing_from_the_package():
    # Agreement with an oracle means something only when the oracle
    # computes without the code it checks.
    found = [
        f"{name}:{line} {module}"
        for name in ("oracles.py", "reference_laurent.py")
        for module, _, line in _package_imports(_tree(TESTS / name))
    ]
    assert not found, "package imports in oracles: " + ", ".join(found)


def test_delta_reference_shares_no_arithmetic_with_the_package():
    # The expanded reference may take the link records and `normalize`
    # from the package, but never its polynomial type or the module that
    # computes Delta.
    tree = _tree(TESTS / "reference_alexander.py")
    banned_modules = {"seifertlinks.alexander", "seifertlinks.laurent"}
    banned_names = {"LaurentPoly", "alexander", "laurent"}
    found = [
        f"{line} {module}.{name}"
        for module, name, line in _package_imports(tree)
        if module in banned_modules or name in banned_names
    ]
    found += [
        f"{node.lineno} .LaurentPoly"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "LaurentPoly"
    ]
    assert not found, "package Delta in the reference: " + ", ".join(found)


def test_every_package_example_runs():
    attempted = failed = 0
    for path in SOURCES:
        if path.name == "__main__.py":  # importing it runs the CLI
            continue
        name = "seifertlinks" if path.name == "__init__.py" else f"seifertlinks.{path.stem}"
        result = doctest.testmod(importlib.import_module(name))
        attempted += result.attempted
        failed += result.failed
    assert attempted > 0
    assert failed == 0
