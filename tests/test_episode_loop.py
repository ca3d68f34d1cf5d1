"""One episode loop: only ``BAEnv.rollout`` resets and steps an env, and
only ``lm_iterate`` writes an iteration's record.

An episode is one solve, reset, stepped with a damping per iteration and
ended by the env. ``solve``, the zero-net collector and SAC training each
play it through ``BAEnv.rollout`` with their own chooser, so what happens
between two steps and when an episode ends is written once. A second
function that calls ``.reset(`` or ``.step(`` would be a second loop. The
guard cannot tell an env from another object, so any such call counts:
nothing else in the package has a ``reset`` or ``step`` method.

Each iteration's ``IterationRecord`` is made by ``solver.lm_iterate``, where
it is measured, and appended there to the successor state's ``records``.
A second function that makes one, or that appends, extends or adds to a
``records`` attribute, would be a second writer of the run's history.
"""

import ast
from pathlib import Path

import pytest

import balm

ALLOWED = {"env.BAEnv.rollout"}
EPISODE_METHODS = {"reset", "step"}
LIST_WRITES = {"append", "extend", "insert"}


def functions_around(source: str, module: str, matches) -> list:
    """The qualified name of the function (``module`` alone at module level)
    around each node of ``source`` that ``matches``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if matches(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def episode_callers(source: str, module: str) -> list:
    """Where ``source`` calls a ``reset`` or ``step`` attribute."""
    return functions_around(
        source, module,
        lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in EPISODE_METHODS,
    )


def is_records(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "records"


def writes_a_record(node) -> bool:
    """An ``IterationRecord(...)``, or an append, extend, insert or ``+=`` on a
    ``records`` attribute."""
    if isinstance(node, ast.AugAssign):
        return is_records(node.target)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "IterationRecord"
    if not isinstance(func, ast.Attribute):
        return False
    return func.attr == "IterationRecord" or (func.attr in LIST_WRITES and is_records(func.value))


def record_writers(source: str, module: str) -> list:
    """Where ``source`` makes an ``IterationRecord`` or adds to a ``records`` attribute."""
    return functions_around(source, module, writes_a_record)


def package_sources():
    package = Path(balm.__file__).parent
    return [(path.stem, path.read_text()) for path in sorted(package.glob("*.py"))]


def test_only_the_rollout_resets_and_steps_an_env():
    callers = set()
    for module, source in package_sources():
        callers.update(episode_callers(source, module))
    assert callers == ALLOWED


def test_only_lm_iterate_writes_a_record():
    writers = []
    for module, source in package_sources():
        writers += record_writers(source, module)
    assert writers == ["solver.lm_iterate"] * 2  # one record made, and appended once


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


@pytest.mark.parametrize(
    "source, writers",
    [
        ("class BAEnv:\n    def step(self, lam):\n"
         "        state, record = lm_iterate(self._problem, self._state, lam)\n"
         "        self.records.append(record)\n", ["env.BAEnv.step"]),
        ("def failed(lam):\n    return IterationRecord(1, lam, float('nan'), 1.0)\n",
         ["env.failed"]),
        ("RECORD = solver.IterationRecord(1, 0.25, 1.0, 1.0)\n", ["env"]),
        ("def merge(state, records):\n    state.records.extend(records)\n", ["env.merge"]),
        ("def merge(state, records):\n    state.records += records\n", ["env.merge"]),
        ("def rows(results):\n    records = []\n    records.append(results[0])\n", []),
    ],
    ids=["env-step-appends", "second-constructor", "module-level", "extend", "add",
         "a-local-list-is-not-a-run"],
)
def test_guard_finds_a_second_record_writer(source, writers):
    assert record_writers(source, "env") == writers
