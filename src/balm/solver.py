"""Damped least-squares core for bundle adjustment.

One iteration linearizes the reprojection residuals, solves the damped
normal equations ``(H + lambda*I) delta = -g`` (eliminating point blocks via
the Schur complement when the camera count warrants it), and applies the
step additively to all parameter blocks. Steps are accepted unconditionally
unless the caller opts into accept-on-improve. ``H`` and ``g`` carry the
observation weight 1/pixel_sigma^2; lambda is added to that weighted ``H``
as it is, with no rescaling.

The Schur elimination builds the reduced camera system
``S = blockdiag(H_cc + lambda*I) - W V^-1 W^T``, with ``W`` the
camera-point blocks ``H_cp`` and ``V = blockdiag(H_pp + lambda*I)``
(Triggs et al. 2000; Agarwal et al. 2010), without a loop over points.
Every ordered pair of observations (a, b) of one point contributes the 9x9
block ``E_a H_cp[b]^T`` to the (camera a, camera b) block of ``S``, where
``E_a = H_cp[a] V_p^-1`` for the point p both observe. The pair list
depends only on the observation indices, so it is built once per index set
(the pair plan, memoized on the indices' content) and shared by every
iteration, policy and oracle trial on that scene. The blocks come from one
batched product per chunk of pairs, and a segmented sum over the pairs
sorted by (camera, camera) folds them into ``S``. Fixed-size chunks keep the
temporaries small on scenes with many points.

Sums keep a fixed order, so that making them faster cannot move a bit of
the output: small batched products add their inner index in order
(``_batched_matmul``, bit-equal to ``einsum``), scatters are one
``bincount`` adding rows in observation order, and the pair products keep
their ``matmul`` and ``np.add.reduceat``. Reordering a sum moves a step in
its last bits, and along the near-singular gauge directions at small
lambda by far more.
"""

from __future__ import annotations

import functools
import time
from dataclasses import astuple, dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .scene import (
    DEPTH_EPS,
    BAProblem,
    _cross,
    _rotation_coefficients,
    project_many,
    rotate_points,
)

LAMBDA_MIN = 1e-16
LAMBDA_MAX = 1e16
CONVERGENCE_FLOOR = 1e-30
DENSE_CAMERA_LIMIT = 5  # below this, skip the Schur elimination entirely
PAIR_CHUNK = 1024  # observation pairs per batched product in the Schur assembly

OUTCOME_CONVERGED = "converged"
OUTCOME_ITERATION_CAP = "iteration-cap"
OUTCOME_NUMERICAL_FAILURE = "numerical-failure"


class NumericalFailureError(RuntimeError):
    """A residual or step evaluation produced a non-finite or degenerate value."""

    def __init__(self, message: str, observation_index: int | None = None):
        super().__init__(message)
        self.observation_index = observation_index


class SingularSystemError(RuntimeError):
    """The damped normal equations could not be solved."""


@dataclass
class ParamVector:
    """Packed optimization variables: camera blocks (n,9) and point blocks (m,3)."""

    cameras: np.ndarray
    points: np.ndarray

    @staticmethod
    def from_problem(problem: BAProblem) -> "ParamVector":
        return ParamVector(problem.camera_array(), problem.point_array())

    def copy(self) -> "ParamVector":
        return ParamVector(self.cameras.copy(), self.points.copy())

    def plus(self, delta_cameras: np.ndarray, delta_points: np.ndarray) -> "ParamVector":
        return ParamVector(self.cameras + delta_cameras, self.points + delta_points)

    def flat(self) -> np.ndarray:
        """Single vector in the fixed cameras-then-points layout."""
        return np.concatenate([self.cameras.ravel(), self.points.ravel()])


@dataclass
class Residuals:
    """Per-observation residuals observed-minus-predicted, shape (n, 2)."""

    values: np.ndarray

    @property
    def stacked(self) -> np.ndarray:
        return self.values.ravel()


@dataclass
class Linearization:
    """Residuals, block Jacobian, weighted gradient and Hessian blocks.

    ``jac_cam``/``jac_pt`` are the raw residual Jacobian blocks; gradient and
    Hessian fold in the observation weight 1/pixel_sigma^2.
    """

    cam_idx: np.ndarray
    pt_idx: np.ndarray
    residual: np.ndarray  # (n, 2)
    jac_cam: np.ndarray  # (n, 2, 9)
    jac_pt: np.ndarray  # (n, 2, 3)
    grad_cam: np.ndarray  # (num_cameras, 9)
    grad_pt: np.ndarray  # (num_points, 3)
    h_cc: np.ndarray  # (num_cameras, 9, 9)
    h_pp: np.ndarray  # (num_points, 3, 3)
    h_cp: np.ndarray  # (n, 9, 3), one cross block per observation
    num_cameras: int
    num_points: int
    # (n, 2) observed pixels the residuals were taken against; linearize
    # sets them so a step can be evaluated without rebuilding them.
    pixels: np.ndarray | None = None


@dataclass
class IterationRecord:
    iteration: int
    lam: float
    error: float
    duration_s: float


@dataclass
class SolverState:
    """Mutable optimization state; ``error_history`` has iteration+1 entries."""

    params: ParamVector
    error_history: list[float]
    durations: list[float]
    iteration: int = 0
    failed: bool = False
    last_step_accepted: bool = True

    @staticmethod
    def initial(problem: BAProblem) -> "SolverState":
        params = ParamVector.from_problem(problem)
        err = estimation_error(residuals(problem, params), problem.pixel_sigma)
        return SolverState(params=params, error_history=[err], durations=[])

    def copy(self) -> "SolverState":
        return SolverState(
            params=self.params.copy(),
            error_history=list(self.error_history),
            durations=list(self.durations),
            iteration=self.iteration,
            failed=self.failed,
            last_step_accepted=self.last_step_accepted,
        )


@dataclass
class SolveResult:
    params: ParamVector
    outcome: str
    iterations: int
    total_time_s: float
    final_error: float
    initial_error: float
    records: list[IterationRecord] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.outcome == OUTCOME_CONVERGED


def residuals(problem: BAProblem, params: ParamVector) -> Residuals:
    """Observed-minus-predicted pixels; degenerate depths become failures."""
    return Residuals(values=_residual_values(params, *problem.observation_arrays()))


def _residual_values(
    params: ParamVector, cam_idx: np.ndarray, pt_idx: np.ndarray, pixels: np.ndarray
) -> np.ndarray:
    predicted, depths = project_many(params.cameras, params.points, cam_idx, pt_idx)
    _check_depths(depths)
    return _checked_residual(pixels - predicted)


def _check_depths(depths: np.ndarray) -> None:
    bad = np.abs(depths) <= DEPTH_EPS
    if np.any(bad):
        index = int(np.argmax(bad))
        raise NumericalFailureError(
            f"observation {index}: camera-frame depth is numerically zero", index
        )


def _checked_residual(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        index = int(np.argmax(~np.isfinite(values).all(axis=1)))
        raise NumericalFailureError(f"observation {index}: non-finite residual", index)
    return values


def estimation_error(res: Residuals, pixel_sigma: float) -> float:
    """Sum of squared sigma-whitened residuals."""
    return float(np.sum(res.values * res.values) / (pixel_sigma * pixel_sigma))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise outer products, shape (n, i, j)."""
    return a[:, :, None] * b[:, None, :]


def _batched_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[n] @ b[n]`` with the inner index summed in order, first term first.

    Bit-equal to ``einsum("nij,njk->nik")``, unlike ``matmul``, whose
    kernels may block or fuse the sum. One output column at a time keeps
    the vectorized operations long.
    """
    out = np.empty(a.shape[:2] + b.shape[2:])
    for k in range(b.shape[2]):
        column = a[:, :, 0] * b[:, 0, k, None]
        for j in range(1, a.shape[2]):
            column += a[:, :, j] * b[:, j, k, None]
        out[:, :, k] = column
    return out


def _rotation_point_jacobian(
    camera_rotvecs: np.ndarray, cam_idx: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """d(R(w) @ X)/dw for each observation, shape (n, 3, 3).

    Observation n rotates ``points[n]`` by ``camera_rotvecs[cam_idx[n]]``.
    Derived from the unnormalized Rodrigues form
    R(w)X = cos(t) X + sinc(t) (w x X) + (1-cos t)/t^2 (w.X) w with t = |w|;
    all angle-dependent coefficients get series fallbacks near t = 0 and
    are computed once per camera. Entry (i, j) is
    -sinc X_i w_j + beta (w x X)_i w_j + gamma (w.X) w_i w_j + omc w_i X_j
    + omc (w.X) [i = j] - sinc [X]_x[i, j], summed in that order.
    """
    theta2 = np.sum(camera_rotvecs * camera_rotvecs, axis=1)
    theta = np.sqrt(theta2)
    small = theta2 < 1e-12
    safe = np.where(small, 1.0, theta)
    safe2 = np.where(small, 1.0, theta2)  # not safe**2, which moves bits

    sinc = np.where(small, 1.0 - theta2 / 6.0, np.sin(safe) / safe)
    omc = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(safe)) / safe2)
    # d(cos t)/dw = -sinc * w; d(sinc)/dw = beta * w; d(omc)/dw = gamma * w.
    beta = np.where(
        small,
        -1.0 / 3.0 + theta2 / 30.0,
        (safe * np.cos(safe) - np.sin(safe)) / safe**3,
    )
    gamma = np.where(
        small,
        -1.0 / 12.0 + theta2 / 180.0,
        (safe * np.sin(safe) - 2.0 * (1.0 - np.cos(safe))) / safe**4,
    )
    sinc, omc, beta, gamma = sinc[cam_idx], omc[cam_idx], beta[cam_idx], gamma[cam_idx]

    rotvecs = camera_rotvecs[cam_idx]
    dot = np.sum(rotvecs * points, axis=1)
    w, p, c = rotvecs.T, points.T, _cross(rotvecs, points).T
    gamma_dot = gamma * dot
    x, y, z = p
    skew = ((None, -z, y), (z, None, -x), (-y, x, None))  # [X]_x
    jac = np.empty((len(points), 3, 3))
    for i in range(3):
        for j in range(3):
            entry = -(sinc * (p[i] * w[j]))
            entry += beta * (c[i] * w[j])
            entry += gamma_dot * (w[i] * w[j])
            entry += omc * (w[i] * p[j])
            if i == j:
                entry += omc * dot
            else:
                entry -= sinc * skew[i][j]
            jac[:, i, j] = entry
    return jac


def _rotation_matrices(rotvecs: np.ndarray) -> np.ndarray:
    """R(w) for each row, shape (n, 3, 3), from one set of Rodrigues coefficients.

    Column k is ``rotate_points(w, e_k)`` to the bit: the same terms are
    summed in the same order.
    """
    theta2 = np.sum(rotvecs * rotvecs, axis=1)
    cos_t, sinc, omc = _rotation_coefficients(theta2)
    eye = np.eye(3)
    columns = (
        cos_t[:, None, None] * eye
        + sinc[:, None, None] * _cross(rotvecs[:, None, :], eye)
        + _outer(omc[:, None] * rotvecs, rotvecs)
    )
    return columns.transpose(0, 2, 1)


def _row_slots(index: np.ndarray, width: int) -> np.ndarray:
    """Flat bincount slots of ``width``-wide rows ``index[n]``."""
    return (index[:, None] * width + np.arange(width)).ravel()


def _row_sums(index: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """``out[index[n]] += values[n]`` over rows in order, as one bincount."""
    width = values[0].size
    sums = np.bincount(_row_slots(index, width), weights=values.ravel(), minlength=length * width)
    return sums.reshape((length,) + values.shape[1:])


def linearize(problem: BAProblem, params: ParamVector) -> Linearization:
    """Residuals plus analytic block Jacobian and weighted normal-equation blocks."""
    cam_idx, pt_idx, pixels = problem.observation_arrays()
    cams = params.cameras[cam_idx]
    pts = params.points[pt_idx]
    rot = cams[:, 0:3]
    focal = cams[:, 6]
    k1 = cams[:, 7]
    k2 = cams[:, 8]

    # One projection serves the residual and the Jacobian; it is the
    # arithmetic of project_many, so the residual equals residuals()'s.
    cam_frame = rotate_points(rot, pts) + cams[:, 3:6]
    z = cam_frame[:, 2]
    _check_depths(z)
    plane = -cam_frame[:, :2] / z[:, None]
    r2 = np.sum(plane * plane, axis=1)
    distortion = 1.0 + k1 * r2 + k2 * r2 * r2
    residual = _checked_residual(pixels - focal[:, None] * distortion[:, None] * plane)

    n = len(cam_idx)
    # d(plane)/d(cam_frame): rows for x and y image axes.
    dplane = np.zeros((n, 2, 3))
    dplane[:, 0, 0] = -1.0 / z
    dplane[:, 1, 1] = -1.0 / z
    dplane[:, 0, 2] = cam_frame[:, 0] / (z * z)
    dplane[:, 1, 2] = cam_frame[:, 1] / (z * z)

    # d(pixel)/d(plane) = f * (distortion * I + (2 k1 + 4 k2 r2) p p^T)
    dpix_dplane = distortion[:, None, None] * np.eye(2)
    dpix_dplane = dpix_dplane + (2.0 * k1 + 4.0 * k2 * r2)[:, None, None] * _outer(plane, plane)
    dpix_dplane *= focal[:, None, None]

    chain = _batched_matmul(dpix_dplane, dplane)  # d(pixel)/d(cam_frame)

    camera_rot = params.cameras[:, 0:3]
    drot = _rotation_point_jacobian(camera_rot, cam_idx, pts)
    rot_mat = _rotation_matrices(camera_rot)[cam_idx]

    dpix_cam = np.zeros((n, 2, 9))
    dpix_cam[:, :, 0:3] = _batched_matmul(chain, drot)
    dpix_cam[:, :, 3:6] = chain
    dpix_cam[:, :, 6] = distortion[:, None] * plane
    dpix_cam[:, :, 7] = (focal * r2)[:, None] * plane
    dpix_cam[:, :, 8] = (focal * r2 * r2)[:, None] * plane
    dpix_pt = _batched_matmul(chain, rot_mat)

    # Residual is observed minus predicted, so its Jacobian is negated.
    jac_cam = -dpix_cam
    jac_pt = -dpix_pt

    weight = 1.0 / (problem.pixel_sigma * problem.pixel_sigma)
    nc, npts = problem.num_cameras, problem.num_points

    grad_cam = _row_sums(cam_idx, weight * np.einsum("nij,ni->nj", jac_cam, residual), nc)
    grad_pt = _row_sums(pt_idx, weight * np.einsum("nij,ni->nj", jac_pt, residual), npts)
    # One row of the 9x9 blocks at a time keeps the temporaries in cache.
    row_slots = _row_slots(cam_idx, 9)
    h_cc = np.empty((nc, 9, 9))
    for j in range(9):
        terms = jac_cam[:, 0, j, None] * jac_cam[:, 0, :]
        terms += jac_cam[:, 1, j, None] * jac_cam[:, 1, :]
        terms *= weight
        h_cc[:, j] = np.bincount(row_slots, weights=terms.ravel(), minlength=nc * 9).reshape(nc, 9)
    h_pp = _row_sums(pt_idx, weight * _batched_matmul(jac_pt.transpose(0, 2, 1), jac_pt), npts)
    h_cp = weight * _batched_matmul(jac_cam.transpose(0, 2, 1), jac_pt)

    return Linearization(
        cam_idx=cam_idx,
        pt_idx=pt_idx,
        residual=residual,
        jac_cam=jac_cam,
        jac_pt=jac_pt,
        grad_cam=grad_cam,
        grad_pt=grad_pt,
        h_cc=h_cc,
        h_pp=h_pp,
        h_cp=h_cp,
        num_cameras=nc,
        num_points=npts,
        pixels=pixels,
    )


def dense_system(lin: Linearization) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the full Hessian and gradient in the cameras-then-points layout."""
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


def _solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve with a least-squares fallback for semidefinite systems.

    Calls the LAPACK routines behind ``cho_factor``/``cho_solve`` directly,
    which skips their argument checks and batching wrappers.
    """
    factor, info = dpotrf(matrix, lower=1, clean=0)
    if info == 0:
        solution, info = dpotrs(factor, rhs, lower=1)
    if info != 0:
        try:
            solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"least-squares fallback failed: {exc}") from exc
    if not np.all(np.isfinite(solution)):
        raise SingularSystemError("damped system produced a non-finite step")
    return solution


def _camera_pairs(
    cam_idx: np.ndarray, pt_idx: np.ndarray, num_cameras: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every ordered pair of observations that share a point, sorted by block.

    Returns the pairs' observation indices (first, second), each pair's
    (camera, camera) block index ``cam_idx[first] * num_cameras +
    cam_idx[second]``, and the positions where a new block index starts.
    Within a block, pairs stay in point order.
    """
    order = np.argsort(pt_idx, kind="stable")
    counts = np.bincount(pt_idx)
    sorted_pts = pt_idx[order]
    views = counts[sorted_pts]  # each observation pairs with every view of its point
    group_first = (np.cumsum(counts) - counts)[sorted_pts]
    first = np.repeat(order, views)
    rank = np.arange(len(first)) - np.repeat(np.cumsum(views) - views, views)
    second = order[np.repeat(group_first, views) + rank]
    block = cam_idx[first] * num_cameras + cam_idx[second]
    by_block = np.argsort(block, kind="stable")
    block = block[by_block]
    starts = np.flatnonzero(np.diff(block)) + 1
    return first[by_block], second[by_block], block, starts


def _pair_plan(
    cam_idx: np.ndarray, pt_idx: np.ndarray, num_cameras: int
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
    """The Schur assembly's pairs in PAIR_CHUNK-sized chunks, built once per index set.

    Each chunk is (first, second, segment starts within the chunk, the
    (camera, camera) block index of each segment). The plan is memoized on
    the content of the indices, so it cannot go stale.
    """
    cam_idx = np.ascontiguousarray(cam_idx, dtype=np.intp)
    pt_idx = np.ascontiguousarray(pt_idx, dtype=np.intp)
    return _cached_pair_plan(num_cameras, cam_idx.tobytes(), pt_idx.tobytes())


@functools.lru_cache(maxsize=8)
def _cached_pair_plan(num_cameras: int, cam_bytes: bytes, pt_bytes: bytes):
    cam_idx = np.frombuffer(cam_bytes, dtype=np.intp)
    pt_idx = np.frombuffer(pt_bytes, dtype=np.intp)
    first, second, block_of, starts = _camera_pairs(cam_idx, pt_idx, num_cameras)
    chunks = []
    for lo in range(0, len(first), PAIR_CHUNK):
        hi = min(lo + PAIR_CHUNK, len(first))
        # Segments of equal (camera, camera) block within the chunk; a block
        # whose segment crosses a chunk edge is summed in two parts.
        cuts = starts[np.searchsorted(starts, lo, "right") : np.searchsorted(starts, hi)]
        segment_starts = np.concatenate(([0], cuts - lo))
        chunk = (first[lo:hi], second[lo:hi], segment_starts, block_of[lo + segment_starts])
        for array in chunk:
            array.flags.writeable = False  # shared by every later call
        chunks.append(chunk)
    return tuple(chunks)


def _added_rows(base: np.ndarray, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.add.at(base.copy(), index, values)`` to the bit: base rows first."""
    return _row_sums(
        np.concatenate((np.arange(len(base)), index)),
        np.concatenate((base, values)),
        len(base),
    )


def damped_step(
    lin: Linearization, lam: float, method: str = "auto"
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (H + lambda*I) delta = -g; returns (delta_cameras, delta_points).

    ``method`` is "auto" (Schur elimination unless the problem is tiny),
    "schur", or "dense".
    """
    if lam < 0 or not np.isfinite(lam):
        raise ValueError(f"damping must be a non-negative finite scalar, got {lam}")
    if method == "auto":
        method = "dense" if lin.num_cameras < DENSE_CAMERA_LIMIT else "schur"
    if method == "dense":
        hess, grad = dense_system(lin)
        delta = _solve_spd(hess + lam * np.eye(len(hess)), -grad)
        split = 9 * lin.num_cameras
        return delta[:split].reshape(-1, 9), delta[split:].reshape(-1, 3)
    if method != "schur":
        raise ValueError(f"unknown method {method!r}")

    nc = lin.num_cameras
    point_system = lin.h_pp + lam * np.eye(3)
    try:
        point_inv = np.linalg.inv(point_system)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"point block inversion failed: {exc}") from exc

    cross_dinv = _batched_matmul(lin.h_cp, np.take(point_inv, lin.pt_idx, axis=0))
    cross_t = np.ascontiguousarray(lin.h_cp.transpose(0, 2, 1))

    blocks = np.zeros((nc * nc, 9, 9))
    diagonal = np.arange(nc) * (nc + 1)
    blocks[diagonal] = lin.h_cc + lam * np.eye(9)
    for first, second, segment_starts, segment_blocks in _pair_plan(lin.cam_idx, lin.pt_idx, nc):
        # np.take gathers rows about twice as fast as fancy indexing.
        products = np.matmul(np.take(cross_dinv, first, axis=0), np.take(cross_t, second, axis=0))
        blocks[segment_blocks] -= np.add.reduceat(products, segment_starts, axis=0)
    reduced = blocks.reshape(nc, nc, 9, 9).transpose(0, 2, 1, 3)

    rhs = _added_rows(
        -lin.grad_cam,
        lin.cam_idx,
        np.einsum("nij,nj->ni", cross_dinv, lin.grad_pt[lin.pt_idx]),
    )
    delta_cam = _solve_spd(reduced.reshape(9 * nc, 9 * nc), rhs.ravel()).reshape(nc, 9)

    back = _added_rows(
        lin.grad_pt, lin.pt_idx, np.einsum("nij,ni->nj", lin.h_cp, delta_cam[lin.cam_idx])
    )
    delta_pt = -np.einsum("nij,nj->ni", point_inv, back)
    return delta_cam, delta_pt


def evaluate_step(
    problem: BAProblem,
    params: ParamVector,
    lin: Linearization,
    lam: float,
    method: str = "auto",
) -> tuple[ParamVector, float]:
    """The damped step from ``params`` (linearized as ``lin``) and its error.

    Returns the candidate parameters and their estimation error, read
    against the observations ``lin`` was built from. Raises
    ``NumericalFailureError`` or ``SingularSystemError`` when the step or its
    error cannot be evaluated.
    """
    delta_cam, delta_pt = damped_step(lin, lam, method=method)
    candidate = params.plus(delta_cam, delta_pt)
    values = _residual_values(candidate, lin.cam_idx, lin.pt_idx, lin.pixels)
    err = estimation_error(Residuals(values=values), problem.pixel_sigma)
    if not np.isfinite(err):
        raise NumericalFailureError("estimation error is non-finite")
    return candidate, err


def lm_iterate(
    problem: BAProblem,
    state: SolverState,
    lam: float,
    deterministic_time: bool = False,
    accept_only_improving: bool = False,
    method: str = "auto",
) -> tuple[SolverState, IterationRecord]:
    """Run one damped iteration from ``state``; returns the successor state.

    The iteration is ``linearize`` followed by ``evaluate_step``. The step
    is applied additively to every parameter block and accepted
    unconditionally unless ``accept_only_improving`` is set, in which case a
    worsening step leaves the parameters (and error) unchanged. Failures
    (degenerate depth, non-finite error, unsolvable system) mark the state
    instead of raising.
    """
    start = time.perf_counter()
    new_state = state.copy()
    try:
        lin = linearize(problem, state.params)
        candidate, err = evaluate_step(problem, state.params, lin, lam, method=method)
    except (NumericalFailureError, SingularSystemError):
        duration = 1.0 if deterministic_time else time.perf_counter() - start
        new_state.failed = True
        record = IterationRecord(
            iteration=state.iteration + 1, lam=lam, error=float("nan"), duration_s=duration
        )
        return new_state, record

    previous = state.error_history[-1]
    if accept_only_improving and err > previous:
        err = previous
        new_state.last_step_accepted = False
    else:
        new_state.params = candidate
        new_state.last_step_accepted = True
    duration = 1.0 if deterministic_time else time.perf_counter() - start
    new_state.iteration += 1
    new_state.error_history.append(err)
    new_state.durations.append(duration)
    record = IterationRecord(
        iteration=new_state.iteration, lam=lam, error=err, duration_s=duration
    )
    return new_state, record


def convergence_check(error_history: list[float], threshold: float = 1e-6) -> bool:
    """Relative error decrease below threshold between the last two iterations."""
    if len(error_history) < 2:
        return False
    previous, current = error_history[-2], error_history[-1]
    return abs(previous - current) / max(previous, CONVERGENCE_FLOOR) < threshold


def classic_lambda_update(
    lam: float, err_t: float, err_prev: float, mode: str = "standard"
) -> float:
    """Factor-of-two damping update.

    ``paper`` mode halves on a worse error and doubles otherwise; ``standard``
    mode is the mirror image (halve on improvement, double on regression).
    """
    if mode == "paper":
        factor = 0.5 if err_t > err_prev else 2.0
    elif mode == "standard":
        factor = 0.5 if err_t < err_prev else 2.0
    else:
        raise ValueError(f"unknown classic mode {mode!r}")
    return float(np.clip(lam * factor, LAMBDA_MIN, LAMBDA_MAX))


def solve(
    problem: BAProblem,
    policy,
    max_iterations: int = 100,
    threshold: float = 1e-6,
    deterministic_time: bool = False,
    accept_only_improving: bool = False,
) -> SolveResult:
    """Roll out one ``BAEnv`` episode with ``policy`` choosing every damping.

    The episode ends when the error plateaus, the cap is hit, or numerics
    fail. ``policy`` supplies the damping each iteration through
    ``next_lambda(observation)``; it is reset first so one instance can be
    reused across solves.
    """
    from .env import BAEnv, EnvConfig

    env = BAEnv(
        EnvConfig(
            window=policy.window,
            max_iterations=max_iterations,
            threshold=threshold,
            deterministic_time=deterministic_time,
            accept_only_improving=accept_only_improving,
        )
    )
    policy.reset()
    out = env.step(policy.next_lambda(env.reset(problem)))
    while not out.done:
        out = env.step(policy.next_lambda(out.observation))
    state = env.solver_state
    return SolveResult(
        params=state.params,
        outcome=out.info["outcome"],
        iterations=state.iteration,
        total_time_s=float(sum(state.durations)),
        final_error=state.error_history[-1],
        initial_error=state.error_history[0],
        records=env.records,
    )


def _fmt(value) -> str:
    """One CSV cell: NaN is blank, floats round-trip, sequences join with ';'."""
    if isinstance(value, float):
        if np.isnan(value):
            return ""
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt(v) for v in value)
    return str(value)


def csv_text(columns, rows) -> str:
    """A header line of ``columns``, then one line of ``_fmt`` cells per row."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


RECORD_COLUMNS = ("iter", "lambda", "error", "duration_s")  # IterationRecord's fields, in order


def records_to_csv(records: list[IterationRecord]) -> str:
    return csv_text(RECORD_COLUMNS, map(astuple, records))


def result_to_json_dict(result: SolveResult) -> dict:
    return {
        "outcome": result.outcome,
        "iterations": result.iterations,
        "total_time_s": result.total_time_s,
        "final_error": result.final_error,
        "initial_error": result.initial_error,
        "records": [
            {
                "iter": rec.iteration,
                "lambda": rec.lam,
                "error": None if not np.isfinite(rec.error) else rec.error,
                "duration_s": rec.duration_s,
            }
            for rec in result.records
        ],
    }
