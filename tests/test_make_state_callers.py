"""A policy cuts its own window: only ``agent_state`` and ``zero_net_input`` call ``make_state``.

The env hands every policy the whole episode (``PolicyObservation``). The two
learned policies' inputs are the only windows there are, each built in one
place, so the window a policy trains on is the one it is served. A third
caller would be a second place that decides a window.
"""

import ast
from pathlib import Path

import pytest

import balm

ALLOWED = {"policy.agent_state", "baselines.zero_net_input"}


def make_state_callers(source: str, module: str) -> list:
    """The qualified name of the function (``module`` alone at module level)
    that makes each call of ``make_state`` in ``source``, by name or as an
    attribute."""
    callers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "make_state":
                callers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return callers


def test_only_the_learned_policies_cut_a_window():
    package = Path(balm.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        callers.update(make_state_callers(path.read_text(), path.stem))
    assert callers == ALLOWED


@pytest.mark.parametrize(
    "source, caller",
    [
        ("def observe(state, records):\n    return make_state(state.error_history, 5)\n",
         "env.observe"),
        ("class BAEnv:\n    def step(self, lam):\n        return policy.make_state([1.0])\n",
         "env.BAEnv.step"),
        ("WINDOW = make_state([1.0], 3)\n", "env"),
    ],
    ids=["function", "method", "module-level"],
)
def test_guard_finds_a_stray_call(source, caller):
    assert make_state_callers(source, "env") == [caller]
