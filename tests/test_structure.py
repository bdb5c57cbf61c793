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
