"""The benchmark's command table, ``perfbench/run.py``'s ``CLI_COMMANDS``,
read as literals so that no test imports the harness."""

from __future__ import annotations

import ast
import pathlib

RUN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def cli_commands() -> list[tuple[list[str], int, str]]:
    """``(argv, artifact rows, artifact file)`` of every benchmark command."""
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CLI_COMMANDS" for t in node.targets):
            return [(list(argv), rows, artifact) for argv, rows, artifact in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/run.py defines no CLI_COMMANDS")
