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

from balm import nn, solver  # noqa: E402
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


def dense_system(lin):
    """The full Hessian and gradient of ``lin`` in the cameras-then-points layout."""
    nc, npts = lin.num_cameras, lin.num_points
    dim = 9 * nc + 3 * npts
    hess = np.zeros((dim, dim))
    for ci in range(nc):
        hess[9 * ci : 9 * ci + 9, 9 * ci : 9 * ci + 9] = lin.h_cc[ci]
    for pj in range(npts):
        o = 9 * nc + 3 * pj
        hess[o : o + 3, o : o + 3] = lin.h_pp[pj]
    for k in range(len(lin.cam_idx)):
        ci, pj = lin.cam_idx[k], lin.pt_idx[k]
        block = lin.h_cp[k]
        hess[9 * ci : 9 * ci + 9, 9 * nc + 3 * pj : 9 * nc + 3 * pj + 3] = block
        hess[9 * nc + 3 * pj : 9 * nc + 3 * pj + 3, 9 * ci : 9 * ci + 9] = block.T
    grad = np.concatenate([lin.grad_cam.ravel(), lin.grad_pt.ravel()])
    return hess, grad


def dense_step(lin, lam):
    """The reference for ``solver.damped_step``: (H + lam*I) delta = -g on the whole Hessian.

    ``solver._solve_spd`` factors a Fortran copy of H + lam*I in place, and
    makes the copy again for its least-squares fallback. Returns
    (delta_cameras, delta_points); an unsolvable system raises
    ``SingularSystemError``.
    """
    hess, grad = dense_system(lin)

    def system():
        return np.asfortranarray(hess + lam * np.eye(len(hess)))

    delta = solver._solve_spd(system(), -grad, system)
    split = 9 * lin.num_cameras
    return delta[:split].reshape(-1, 9), delta[split:].reshape(-1, 3)


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


def whole_net_grads(net, activations, grad_out):
    """The whole net's parameter gradient, and d/d(input), for ``grad_out`` (B, out).

    The reference for ``nn.mlp_backward_adam``: the same backward loop and
    panel code, with every layer's gradient written into one array in
    ``net.flat``'s layout. The gradient comes as an ``Mlp`` wrapping that
    array, so its ``weights`` and ``biases`` are per-layer views.
    """
    grads = nn.Mlp.from_flat(net.widths, np.empty_like(net.flat))

    def write(k, delta):
        for _ in nn._layer_grads(activations[k], delta, grads.flat[net.layers[k]].__getitem__):
            pass

    return grads, nn._backprop(net, activations, grad_out, write, to_input=True)
