"""Every public top-level definition in ``src/repro`` has a caller in ``src``.

An AST walk collects the top-level public classes and functions of each
module and every name the package's modules mention (names, attributes,
imported aliases).  A definition that no ``src`` module names outside its
own body is code only tests reach; package ``__init__`` re-exports do not
count as a caller.  The few such definitions kept on purpose, models and
oracles that tests compare the live code against and the registry's smoke
hooks, are listed below with the reason each stays.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

KEPT = {
    "CacheHierarchy": "inclusive L1/L2/LLC model over the exact cache, with "
    "back-invalidation (paper Figure 1); tests/test_hierarchy.py",
    "CheContentionModel": "Che-approximation contention model kept beside the "
    "insertion model; swapping the default would change every output",
    "ClassOfService": "the validated COS entry that repro.cat exports; "
    "tests/test_cat.py pins its id range",
    "simulated_scatter_hit_rate": "Monte-Carlo oracle for the analytical "
    "conflict-scatter model (tests/test_conflict.py, tests/test_analytical.py)",
    "generate_mlr_offsets": "reference MLR offset stream; tests/test_workloads.py "
    "and tests/test_conflict.py drive the exact cache with it",
    "generate_mload_offsets": "reference MLOAD offset stream; tests/test_workloads.py",
    "experiment_ids": "registry smoke hook (tests/test_registry_smoke.py)",
    "run_experiment_smoke": "registry smoke hook (tests/test_registry_smoke.py)",
}


def _names(node):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _uncalled():
    """Names of the public top-level definitions that no ``src`` module
    names outside their own body, sorted."""
    statements = [
        stmt
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    defs = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    defined = {
        stmt.name for stmt in statements
        if isinstance(stmt, defs) and not stmt.name.startswith("_")
    }
    named = set()
    for stmt in statements:
        own = stmt.name if isinstance(stmt, defs) else None
        named |= {name for name in _names(stmt) & defined if name != own}
    return sorted(defined - named)


def test_every_public_definition_has_a_src_caller():
    dead = [name for name in _uncalled() if name not in KEPT]
    assert not dead, (
        f"no src module names {dead}: delete them, or add each to KEPT with "
        "the reason it stays"
    )


def test_kept_list_holds_only_uncalled_definitions():
    stale = sorted(set(KEPT) - set(_uncalled()))
    assert not stale, f"{stale} now have a src caller or are gone: drop them from KEPT"
