"""Shared scene fixtures.

``suite_problem`` mirrors the benchmark configuration: heavy sigma weighting
keeps estimation errors inside the policy observation clip and makes the
factor-of-two heuristic pay a visible iteration cost next to light damping,
while the mild pixel noise keeps undamped steps stable near the optimum.

BLAS runs single-threaded unless the environment says otherwise: the golden
digests and the benchmark are defined at one thread, and criterion 10's
child process can then run alongside the in-process pipeline. The variables
must be set before anything imports numpy.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from balm import solver  # noqa: E402
from balm.scene import generate_synthetic, project_many  # noqa: E402


def suite_problem(seed, num_cameras=10, num_points=10):
    return generate_synthetic(
        num_cameras, num_points, pixel_sigma=250.0, noise_std=0.5, seed=seed
    )


def residuals(problem, params):
    """Observed-minus-predicted pixels, shape (k, 2), formed as the solver forms them."""
    cam_idx, pt_idx, pixels = problem.observation_arrays()
    return pixels - project_many(params.cameras, params.points, cam_idx, pt_idx)[0]


def flat(params):
    """The parameters as one vector, cameras then points."""
    return np.concatenate([params.cameras.ravel(), params.points.ravel()])


@pytest.fixture(scope="session")
def tiny_problem():
    """Four cameras and six points."""
    return generate_synthetic(4, 6, seed=1)


@pytest.fixture(scope="session")
def default_problem():
    """Mid-size scene at the generator defaults (unweighted, noisy pixels)."""
    return generate_synthetic(6, 30, seed=0)


@pytest.fixture(scope="session")
def suite_problem_0():
    return suite_problem(0)


@pytest.fixture
def linearize_calls(monkeypatch):
    """The list that gains one entry per ``solver.linearize`` call in the test."""
    calls = []
    original = solver.linearize

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "linearize", counted)
    return calls
