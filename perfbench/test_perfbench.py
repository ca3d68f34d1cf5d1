"""Tests of the benchmark itself: the reference projection and a tiny run of each workload.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import project, rodrigues, whitened_error  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def test_reference_quarter_turn_with_distortion():
    # R = 90 degrees about z sends X = (1, 2, 0) to (-2, 1, 0); with t = (0, 0, -10)
    # P = (-2, 1, -10), p = -P_xy / P_z = (-0.2, 0.1), |p|^2 = 0.05,
    # distortion = 1 + 0.1 * 0.05 + 0.01 * 0.05^2 = 1.005025,
    # pixel = 500 * 1.005025 * p = (-100.5025, 50.25125).
    camera = np.array([[0.0, 0.0, np.pi / 2, 0.0, 0.0, -10.0, 500.0, 0.1, 0.01]])
    point = np.array([[1.0, 2.0, 0.0]])
    pixel = project(camera, point, [0], [0])
    np.testing.assert_allclose(pixel, [[-100.5025, 50.25125]], rtol=1e-14)
    # Residual (0.5025, -0.25125) against z = (-100, 50): squares 0.25250625 and
    # 0.0631265625 sum to 0.3156328125; divided by sigma^2 = 4.
    error = whitened_error(camera, point, [0], [0], [[-100.0, 50.0]], pixel_sigma=2.0)
    assert error == pytest.approx(0.078908203125, rel=1e-13)


def test_reference_identity_rotation():
    # R = I: P = (3, -4, -5), p = (0.6, -0.8), |p|^2 = 1, distortion = 1 - 0.5 + 0.25.
    camera = np.array([[0.0, 0.0, 0.0, 1.0, -2.0, -3.0, 100.0, -0.5, 0.25]])
    pixel = project(camera, np.array([[2.0, -2.0, -2.0]]), [0], [0])
    np.testing.assert_allclose(pixel, [[45.0, -60.0]], rtol=1e-14)
    np.testing.assert_allclose(rodrigues(np.zeros(3)), np.eye(3))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_traced_and_untraced(workload, tmp_path):
    expected = {
        0: {m["name"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"] for m in BENCHMARK["per_layer"]},
    }
    for trace in (0, 1):
        done = run_bench(
            "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
            "--tiny", "--out-dir", str(tmp_path),
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, done.stdout
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == expected[trace]
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
    report = json.loads((tmp_path / f"{workload}-seed5-trace1.json").read_text())
    spans = report["trace"]["spans"]
    assert spans, "the traced run recorded no spans"
    fields = report["trace"]["fields"]
    start, end, parent, phase = map(fields.index, ("start", "end", "parent", "phase"))
    covered = [0.0] * len(spans)
    for span in spans:
        if span[parent] >= 0:
            covered[span[parent]] += span[end] - span[start]
    self_s = [s[end] - s[start] - c for s, c in zip(spans, covered)]
    assert min(self_s) >= -1e-9, "a child span outlasts its parent"
    # The measured rounds, timed by run.py's own clock, are spent almost
    # wholly inside traced calls.
    measured = sum(t for s, t in zip(spans, self_s) if s[phase] == "measure")
    walls = sum(report["round_walls_s"])
    assert 0.9 * walls <= measured <= walls, (measured, walls)


def test_exits_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "suite-solve", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
