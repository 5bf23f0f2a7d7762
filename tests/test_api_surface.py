"""Every public top-level function and class of the package has a caller.

A public name that nothing else in `src/mtil` names is API that no code
reads: delete it, or give it a caller. Names kept for a caller that is not
in the package yet are listed in ALLOWED, each with its reason.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mtil"

ALLOWED = {
    "principal_cosines": "ROADMAP item 1's per-cell diagnostics (slice A) call it",
    "lqr_cost_gap_bound": "ROADMAP item 1's cost-gap column (slice E) calls it",
    "load_config": "bench/run.py's setup command calls it",
}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _names_in(node) -> set:
    """Every identifier that node names: variables, attributes and imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _public_definitions(modules):
    for module, tree in modules.items():
        for stmt in tree.body:
            is_def = isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            if is_def and not stmt.name.startswith("_"):
                yield module, stmt


def _uncalled() -> list:
    """(module, name) of each public definition that no other top-level
    statement of the package names; a definition naming itself (recursion)
    does not count."""
    modules = _modules()
    named_by = [
        (stmt, _names_in(stmt)) for tree in modules.values() for stmt in tree.body
    ]
    return [
        (module, stmt.name)
        for module, stmt in _public_definitions(modules)
        if not any(stmt.name in names for other, names in named_by if other is not stmt)
    ]


def test_every_public_definition_has_a_caller():
    missing = [
        f"{module}.{name}" for module, name in _uncalled() if name not in ALLOWED
    ]
    assert missing == [], f"public API that nothing in src/mtil names: {missing}"


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowlist_is_needed(name):
    # An allowed name that gains a caller inside the package leaves the list.
    assert name in {n for _, n in _uncalled()}, f"{name} has a caller now"
