"""Module boundaries: no ``src/confbel`` module imports an underscore-prefixed
name from another package module.  A private name is its module's own
business; a caller that needs it needs a public result instead.  The
``_special`` module, the lazy ``scipy.special`` loader every model reads, is
exempt, and so are dunder names such as ``__version__``.  And every array a
cache hands out is read-only, since a write would reach later callers."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from confbel import distributions, fusion
from confbel.mc import MCConfig
from confbel.models import behrens_fisher, binomial, dkw, uniform_loc

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "confbel"


def _private_imports(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").split(".")[0] == "confbel"):
            continue  # a third-party import
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.startswith("__") and name != "_special":
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} imports {name}")
    return found


def test_no_module_imports_another_modules_private_names():
    found = [line for path in sorted(PACKAGE.rglob("*.py")) for line in _private_imports(path)]
    assert found == []


MODELS = {path.stem for path in (PACKAGE / "models").glob("*.py")} - {"__init__"}


def _load_time_imports(path: pathlib.Path) -> list[tuple[int, str]]:
    """``(line, dotted name)`` of every import the module runs when it loads:
    its body and the blocks in it, not the bodies of its functions."""
    package = ["confbel", *path.relative_to(PACKAGE).parent.parts]
    found = []

    def walk(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = package[: len(package) + 1 - child.level] if child.level else []
                module = ".".join(base + ([child.module] if child.module else []))
                found.extend((child.lineno, f"{module}.{alias.name}") for alias in child.names)
            walk(child)

    walk(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_cli_and_model_registry_load_no_numpy_scipy_or_model():
    # the command line loads numpy, scipy and each model when a command runs
    # (tests/test_cli.py runs the commands in a fresh interpreter)
    found = []
    for path in (PACKAGE / "cli.py", PACKAGE / "models" / "__init__.py"):
        for line, name in _load_time_imports(path):
            parts = name.split(".")
            if parts[0] in ("numpy", "scipy") or (parts[:2] == ["confbel", "models"] and parts[2] in MODELS):
                found.append(f"{path.relative_to(PACKAGE)}:{line} imports {name}")
    assert found == []


def _empirical_sample_arrays():
    sample = dkw.EmpiricalSample([3.0, 1.0, 2.0])
    return sample.values, sample.ecdf().xs, sample.ecdf().ys


CACHED_TABLES = {
    "distributions._binom_guide": lambda: distributions._binom_guide(10, 0.3),
    "binomial._outcome_table": lambda: (binomial._outcome_table(binomial.cp_contour, 10, 0.3),),
    "dkw._birnbaum_tingey_terms": lambda: dkw._birnbaum_tingey_terms(7),
    "behrens_fisher._legendre_rule": behrens_fisher._legendre_rule,
    "behrens_fisher._slice_table": lambda: (behrens_fisher._slice_table(5, 11, 0.5),),
    "dkw.ks_null_sample": lambda: (dkw.ks_null_sample(7, MCConfig(reps=20)),),
    "fusion._cached_draws": lambda: (fusion._cached_draws(uniform_loc.random_set(10), MCConfig(reps=20)),),
    # behrens_fisher's pivotal draws, as fusion's cache holds them for the
    # structural checks
    "behrens_fisher.pivotal_draws": lambda: (
        fusion._cached_draws(behrens_fisher.random_set(5, 11), MCConfig(reps=20)),
    ),
    "dkw.EmpiricalSample": _empirical_sample_arrays,
}


@pytest.mark.parametrize("name", sorted(CACHED_TABLES))
def test_every_cached_table_is_read_only(name):
    for table in CACHED_TABLES[name]():
        assert isinstance(table, np.ndarray) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0
