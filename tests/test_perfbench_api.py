"""The benchmark's use of the package, checked in the main suite.

``perfbench/`` builds its sparse scenes from ``CameraPose``/``Point3``/
``Observation`` records and reads them back through the problem's record
properties, and its tracer wraps the package's functions by name. Its own
tests are not part of this suite, so a change to ``BAProblem`` or to a
traced name that broke the benchmark would otherwise pass here. The modules
are imported as they are, without edits.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from balm.solver import SolverState

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
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
    ours = SolverState.initial(truth).error_history[0]
    assert reference.ground_truth_error(problem) == pytest.approx(ours, rel=1e-12)


# Installing the tracer rebinds the package's functions for good, so it runs
# in a child process. It prints the names the tracer looks up that do not
# resolve, and the name of every span.
TRACED_COLLECTION = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from tracer import ORACLE, TRACED_METHODS, TRACED_MODULES, ZERO_NET_TRAIN, Tracer

t = Tracer()
t.install()
modules = {name: sys.modules["balm." + name] for name in TRACED_MODULES}
names = [(m, c + "." + f) for m, c, f, _ in TRACED_METHODS]
names += [tuple(n.split(".")) for n in (ORACLE, ZERO_NET_TRAIN)]
missing = []
for module, path in names:
    value = modules[module]
    for attr in path.split("."):
        value = getattr(value, attr, None)
    if value is None:
        missing.append(module + "." + path)

from balm import suite_scene
from balm.baselines import ZeroNetConfig, _collect_labeled_windows

config = ZeroNetConfig(max_iterations=3, deterministic_time=True)
_collect_labeled_windows(suite_scene(0), None, config)
print(json.dumps({"missing": missing, "spans": [span[0] for span in t.spans]}))
"""


def test_the_tracer_sees_one_linearization_per_label():
    child = subprocess.run(
        [sys.executable, "-c", TRACED_COLLECTION, str(PERFBENCH), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["missing"] == []
    spans = report["spans"]
    assert spans.count("baselines.zero_net_oracle") == 3
    assert spans.count("solver.linearize") == spans.count("baselines.zero_net_oracle")
    assert {"solver.lm_iterate", "solver.damped_step"} <= set(spans)


def run_tiny_workload(workload: str, out_dir) -> None:
    """Run one workload of the benchmark at its tiny size in a child; it must be correct."""
    child = subprocess.run(
        [
            sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
            "--tiny", "--seconds", "1", "--out-dir", str(out_dir),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["correct"] is True, child.stdout
    assert result["failed"] == 0


def test_tiny_suite_benchmark_runs_correctly(tmp_path):
    # The classic, scheduler and fixed policies driven through the
    # benchmark's lapping wrapper.
    run_tiny_workload("suite-solve", tmp_path)


def test_tiny_zero_net_benchmark_runs_correctly(tmp_path):
    run_tiny_workload("zero-net-train", tmp_path)


def test_tiny_sac_pipeline_benchmark_runs_correctly(tmp_path):
    run_tiny_workload("sac-pipeline", tmp_path)


def test_tiny_sparse_benchmark_runs_correctly(tmp_path):
    # The Schur layer's pair plan on partial visibility, checked against the
    # benchmark's independent reference.
    run_tiny_workload("sparse-solve", tmp_path)
