"""Module boundaries: no ``src/confbel`` module imports an underscore-prefixed
name from another package module.  A private name is its module's own
business; a caller that needs it needs a public result instead.  The
``_special`` module, the lazy ``scipy.special`` loader every model reads, is
exempt, and so are dunder names such as ``__version__``."""

from __future__ import annotations

import ast
import pathlib

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
