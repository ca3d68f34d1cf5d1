"""``balm`` has one way to reject an input: ``cli.py`` exits only with ``main()``'s code.

A rejected input raises ``ValueError`` inside its command's input ``try``,
which prints ``balm <command>: error: ...`` and returns 2. A ``SystemExit``
with a message would be a second way out: exit 1 and no such line.
"""

import ast
from pathlib import Path

import pytest

import balm.cli


def stray_exits(source: str) -> list:
    """The lines of ``source`` that raise ``SystemExit`` or call ``sys.exit``,
    ``exit`` or ``quit``, except ``raise SystemExit(main())``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(exc) == "SystemExit" and ast.unparse(node.exc) != "SystemExit(main())":
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("sys.exit", "exit", "quit"):
            lines.append(node.lineno)
    return lines


def test_cli_exits_only_with_mains_code():
    assert stray_exits(Path(balm.cli.__file__).read_text()) == []


@pytest.mark.parametrize(
    "statement",
    ['raise SystemExit("unknown policy")', "raise SystemExit", "raise SystemExit(1)",
     "sys.exit('--config: bad')", "exit(2)"],
)
def test_guard_finds_a_second_way_out(statement):
    source = f"def main():\n    return 0\n\n\nraise SystemExit(main())\n{statement}\n"
    assert stray_exits(source) == [6]
