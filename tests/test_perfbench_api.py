"""The benchmark's use of the problem API, checked in the main suite.

``perfbench/`` builds its sparse scenes from ``CameraPose``/``Point3``/
``Observation`` records and reads them back through the problem's record
properties. Its own tests are not part of this suite, so a change to
``BAProblem`` that broke the benchmark would otherwise pass here. The
modules are imported as they are, without edits.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from balm.solver import ParamVector, estimation_error, residuals

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("scenes", "reference")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield tuple(importlib.import_module(name) for name in MODULES)
    for name in MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("seed", [1, 2])
def test_reference_reads_the_problems_own_arrays(perfbench, seed):
    scenes, reference = perfbench
    problem = scenes.sparse_scene(8, 40, seed)
    for part in (problem, problem.ground_truth):
        own = (part.camera_blocks, part.point_blocks, *part.observation_arrays())
        read = reference.problem_arrays(part)
        for mine, theirs in zip(own, read, strict=True):
            assert (theirs.dtype, theirs.shape) == (mine.dtype, mine.shape)
            assert theirs.tobytes() == mine.tobytes()


@pytest.mark.parametrize("seed", [1, 2])
def test_ground_truth_error_matches_the_solvers(perfbench, seed):
    scenes, reference = perfbench
    problem = scenes.sparse_scene(8, 40, seed)
    truth = problem.ground_truth
    ours = estimation_error(residuals(truth, ParamVector.from_problem(truth)), truth.pixel_sigma)
    assert reference.ground_truth_error(problem) == pytest.approx(ours, rel=1e-12)
