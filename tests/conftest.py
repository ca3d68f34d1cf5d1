"""Shared scene fixtures, and the textbook MLP that ``nn`` is checked against.

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


# The textbook MLP, the reference for ``nn``'s forward pass, backward sweep
# and Adam. It reads only a net's ``weights`` and ``biases`` and calls no
# ``nn`` function, so a fault in ``nn``'s own code cannot cancel out in it.


def textbook_forward(weights, biases, x):
    """Every layer's output, the input first: h_(k+1) = max(h_k W_k + b_k, 0),
    with no ReLU on the last layer."""
    outputs = [np.atleast_2d(np.asarray(x, dtype=float))]
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = outputs[-1] @ w + b
        outputs.append(z if k == len(weights) - 1 else np.maximum(z, 0.0))
    return outputs


def textbook_backprop(weights, outputs, grad_out):
    """Backprop dL/d(net output) ``grad_out`` through every layer and ReLU.

    With d_k the gradient at layer k's output, dL/dW_k = h_k^T d_k,
    dL/db_k is d_k summed over the batch, and d_(k-1) = (d_k W_k^T) * [h_k > 0].
    Returns the weight gradients, the bias gradients and dL/d(input).
    """
    delta = np.asarray(grad_out, dtype=float)
    grad_w, grad_b = [], []
    for k in reversed(range(len(weights))):
        grad_w.insert(0, outputs[k].T @ delta)
        grad_b.insert(0, delta.sum(axis=0))
        delta = delta @ weights[k].T
        if k > 0:
            delta = delta * (outputs[k] > 0.0)
    return grad_w, grad_b, delta


class TextbookNet:
    """Copies of a net's parameters, trained by backprop and bias-corrected
    Adam (Kingma & Ba 2015, Algorithm 1) with moments per parameter array."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, net):
        self.weights = [w.copy() for w in net.weights]
        self.biases = [b.copy() for b in net.biases]
        self.first = [np.zeros_like(p) for p in self.params()]
        self.second = [np.zeros_like(p) for p in self.params()]
        self.step = 0

    def params(self):
        """The parameter arrays in ``Mlp.flat``'s order w0, b0, w1, b1, ..."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def forward(self, x):
        return textbook_forward(self.weights, self.biases, x)

    def train(self, outputs, grad_out, lr):
        """One Adam step on the gradient backprop gives for ``grad_out``."""
        grad_w, grad_b, _ = textbook_backprop(self.weights, outputs, grad_out)
        grads = [g for pair in zip(grad_w, grad_b) for g in pair]
        self.step += 1
        t = self.step
        for p, g, m, v in zip(self.params(), grads, self.first, self.second):
            m[...] = self.BETA1 * m + (1.0 - self.BETA1) * g
            v[...] = self.BETA2 * v + (1.0 - self.BETA2) * g * g
            p -= lr * (m / (1.0 - self.BETA1**t)) / (np.sqrt(v / (1.0 - self.BETA2**t)) + self.EPS)

    def mse_step(self, x, y, lr):
        """One step on the mean squared error of the output; returns the loss."""
        outputs = self.forward(x)
        diff = outputs[-1] - y
        self.train(outputs, 2.0 * diff / diff.size, lr)
        return float(np.mean(diff * diff))


def assert_matches_textbook(net, adam, ref):
    """``net`` and its ``AdamState`` equal ``ref``'s parameters and moments to
    within rounding: the sweep sums its products in another order."""
    assert adam.step == ref.step
    for got, want in ((net.flat, ref.params()), (adam.m, ref.first), (adam.v, ref.second)):
        want = np.concatenate([a.ravel() for a in want])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
