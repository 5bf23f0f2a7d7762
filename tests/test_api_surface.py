"""Every public top-level function and class of the package has a caller,
and every parameter default of a package function is used by one.

A public name that nothing else in `src/mtil` names is API that no code
reads: delete it, or give it a caller. Names kept for a caller that is not
in the package yet are listed in ALLOWED, each with its reason. A default
that every call in `src/mtil` overrides serves tests alone: make the
parameter required, or drop it.
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


def _functions(modules):
    """(qualified name, def, leading parameters a call does not pass) of each
    top-level function and method of the package."""
    for module, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                yield f"{module}.{stmt.name}", stmt, 0
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield f"{module}.{stmt.name}.{sub.name}", sub, 1


def _called_name(call):
    """f for a call f(...) or obj.f(...), else None."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _relies_on_default(call, index, name) -> bool:
    """Whether call leaves the parameter `name` (positional at index, or
    keyword-only when index is None) to its default; a call that unpacks
    *args or **kwargs is taken to pass it."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return False
    keywords = {kw.arg for kw in call.keywords}
    if None in keywords or name in keywords:
        return False
    return index is None or index >= len(call.args)


def _unused_defaults() -> list:
    """'function(parameter)' for each default that no call in the package,
    matched by the called name, leaves in place."""
    modules = _modules()
    calls = [
        node
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    unused = []
    for qualname, fn, skip in _functions(modules):
        args = fn.args
        positional = (args.posonlyargs + args.args)[skip:]
        first = len(positional) - len(args.defaults)
        defaulted = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
        defaulted += [
            (None, p.arg)
            for p, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        callers = [c for c in calls if _called_name(c) == fn.name]
        for index, name in defaulted:
            if not any(_relies_on_default(c, index, name) for c in callers):
                unused.append(f"{qualname}({name})")
    return unused


def test_every_default_is_used_by_a_package_call():
    unused = _unused_defaults()
    assert unused == [], f"defaults that no call in src/mtil relies on: {unused}"
