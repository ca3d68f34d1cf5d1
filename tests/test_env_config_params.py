"""An episode's settings have one home: only the LM layer takes them as parameters.

``EnvConfig`` states each setting of an episode (the iteration cap, the
convergence threshold, deterministic timing, accept-on-improve, the reward)
and its default once. ``solve`` takes them as ``**settings`` and hands them
to it; every other caller builds its settings with ``EnvConfig.of``. Below
the env, ``lm_iterate`` and ``convergence_check`` take the one setting each
step or check needs. A third function with such a parameter would be a
second place that states a setting or its default.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import balm
from balm.env import EnvConfig

ALLOWED = {"solver.lm_iterate", "solver.convergence_check"}
SETTINGS = {f.name for f in fields(EnvConfig)}


def setting_takers(source: str, module: str) -> list:
    """The qualified name of each function (or lambda) in ``source`` with a
    parameter named after an ``EnvConfig`` field."""
    takers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        elif isinstance(node, ast.Lambda):
            where = f"{where}.<lambda>"
        args = getattr(node, "args", None)
        if isinstance(args, ast.arguments):
            params = args.posonlyargs + args.args + args.kwonlyargs
            if any(p.arg in SETTINGS for p in params):
                takers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return takers


def test_only_the_lm_layer_takes_a_setting():
    package = Path(balm.__file__).parent
    takers = set()
    for path in sorted(package.glob("*.py")):
        takers.update(setting_takers(path.read_text(), path.stem))
    assert takers == ALLOWED


@pytest.mark.parametrize(
    "source, taker",
    [
        ("def solve(problem, policy, max_iterations=100):\n    pass\n", "solver.solve"),
        ("class Harness:\n    def run(self, *, threshold=1e-6):\n        pass\n",
         "solver.Harness.run"),
        ("def outer():\n    return lambda deterministic_time: 0\n", "solver.outer.<lambda>"),
        ("def step(accept_only_improving, /, lam):\n    pass\n", "solver.step"),
    ],
    ids=["function", "keyword-only-method", "lambda", "positional-only"],
)
def test_guard_finds_a_second_home(source, taker):
    assert setting_takers(source, "solver") == [taker]
