"""One episode loop: only ``BAEnv.rollout`` resets and steps an env.

An episode is one solve, reset, stepped with a damping per iteration and
ended by the env. ``solve``, the zero-net collector and SAC training each
play it through ``BAEnv.rollout`` with their own chooser, so what happens
between two steps and when an episode ends is written once. A second
function that calls ``.reset(`` or ``.step(`` would be a second loop. The
guard cannot tell an env from another object, so any such call counts:
nothing else in the package has a ``reset`` or ``step`` method.
"""

import ast
from pathlib import Path

import pytest

import balm

ALLOWED = {"env.BAEnv.rollout"}
EPISODE_METHODS = {"reset", "step"}


def episode_callers(source: str, module: str) -> list:
    """The qualified name of the function (``module`` alone at module level)
    that makes each call of a ``reset`` or ``step`` attribute in ``source``."""
    callers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in EPISODE_METHODS:
                callers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return callers


def package_sources():
    package = Path(balm.__file__).parent
    return [(path.stem, path.read_text()) for path in sorted(package.glob("*.py"))]


def test_only_the_rollout_resets_and_steps_an_env():
    callers = set()
    for module, source in package_sources():
        callers.update(episode_callers(source, module))
    assert callers == ALLOWED


def test_the_solver_imports_nothing_inside_a_function():
    # ``solve`` lives beside the env it rolls out, so the solver needs no
    # import that waits for ``env`` to load.
    source = dict(package_sources())["solver"]
    late = [
        node.lineno
        for function in ast.walk(ast.parse(source))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert late == []


@pytest.mark.parametrize(
    "source, caller",
    [
        ("def solve(problem, policy):\n    return env.reset(problem)\n", "sac.solve"),
        ("class Trainer:\n    def run(self, lam):\n        return self.env.step(lam)\n",
         "sac.Trainer.run"),
        ("def train_agent(env):\n    def choose(obs):\n        return env.step(0.25)\n",
         "sac.train_agent.choose"),
        ("OUT = ENV.step(0.25)\n", "sac"),
    ],
    ids=["function", "method", "chooser", "module-level"],
)
def test_guard_finds_a_second_loop(source, caller):
    assert episode_callers(source, "sac") == [caller]
