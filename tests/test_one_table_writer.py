"""One writer of balm's tables: ``csv_text`` is defined and called only in
``bench.py``.

Every CSV file balm writes (a solve's ``trace.csv``, a comparison's
``records.csv`` and ``aggregates.csv``, the profiles and the ablation
tables) is formatted by ``bench.csv_text``, through ``rows_to_csv`` for
dict rows or ``records_to_csv`` for a solve's records. The solver formats
nothing, and the CLI names files and writes the texts ``bench`` gives it.
A ``csv_text`` defined or called in another module would be a second
writer, whose cells could drift from the first's.
"""

import ast
from pathlib import Path

import pytest

import balm

WRITER = "csv_text"


def writer_uses(source: str, module: str) -> list:
    """``(module, "def")`` for each definition of ``csv_text`` in ``source``
    and ``(module, "call")`` for each call of it, by name or attribute."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == WRITER:
            uses.append((module, "def"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == WRITER:
                uses.append((module, "call"))
    return uses


def package_uses() -> list:
    package = Path(balm.__file__).parent
    uses = []
    for path in sorted(package.glob("*.py")):
        uses += writer_uses(path.read_text(), path.stem)
    return uses


def test_only_bench_defines_and_calls_the_writer():
    uses = package_uses()
    assert {module for module, _ in uses} == {"bench"}
    assert [kind for _, kind in uses].count("def") == 1


@pytest.mark.parametrize(
    "source, module, uses",
    [
        ("def records_to_csv(records):\n"
         "    return csv_text(RECORD_COLUMNS, map(astuple, records))\n",
         "solver", [("solver", "call")]),
        ("def csv_text(columns, rows):\n    return ','.join(columns) + '\\n'\n",
         "cli", [("cli", "def")]),
        ("TRACE = bench.csv_text(('iter',), [(1,)])\n", "cli", [("cli", "call")]),
        ("def trace(records):\n    return records_to_csv(records)\n", "cli", []),
    ],
    ids=["a-call-in-the-solver", "a-second-definition", "an-attribute-call",
         "a-bench-writer-is-not-a-second-one"],
)
def test_guard_finds_a_stray_writer(source, module, uses):
    assert writer_uses(source, module) == uses
