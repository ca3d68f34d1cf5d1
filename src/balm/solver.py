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
depends only on the observation indices; the blocks come from one batched
product per chunk of pairs, and a segmented sum over the pairs sorted by
(camera, camera) folds them into ``S``. Fixed-size chunks keep the
temporaries small on scenes with many points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .scene import BAProblem, project_many, rotate_points

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

    @property
    def dim(self) -> int:
        return self.cameras.size + self.points.size


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
    bad = np.abs(depths) <= 1e-12
    if np.any(bad):
        index = int(np.argmax(bad))
        raise NumericalFailureError(
            f"observation {index}: camera-frame depth is numerically zero", index
        )
    values = pixels - predicted
    if not np.all(np.isfinite(values)):
        index = int(np.argmax(~np.isfinite(values).all(axis=1)))
        raise NumericalFailureError(f"observation {index}: non-finite residual", index)
    return values


def estimation_error(res: Residuals, pixel_sigma: float) -> float:
    """Sum of squared sigma-whitened residuals."""
    return float(np.sum(res.values * res.values) / (pixel_sigma * pixel_sigma))


def _rotation_point_jacobian(rotvecs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """d(R(w) @ X)/dw for each row pair, shape (n, 3, 3).

    Derived from the unnormalized Rodrigues form
    R(w)X = cos(t) X + sinc(t) (w x X) + (1-cos t)/t^2 (w.X) w with t = |w|;
    all angle-dependent coefficients get series fallbacks near t = 0.
    """
    rotvecs = np.atleast_2d(np.asarray(rotvecs, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = rotvecs.shape[0]
    theta2 = np.sum(rotvecs * rotvecs, axis=1)
    theta = np.sqrt(theta2)
    small = theta2 < 1e-12
    safe = np.where(small, 1.0, theta)

    sinc = np.where(small, 1.0 - theta2 / 6.0, np.sin(safe) / safe)
    omc = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(safe)) / theta2)
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

    cross = np.cross(rotvecs, points)
    dot = np.sum(rotvecs * points, axis=1)

    jac = np.zeros((n, 3, 3))
    jac -= sinc[:, None, None] * np.einsum("ni,nj->nij", points, rotvecs)
    jac += beta[:, None, None] * np.einsum("ni,nj->nij", cross, rotvecs)
    jac += (gamma * dot)[:, None, None] * np.einsum("ni,nj->nij", rotvecs, rotvecs)
    jac += omc[:, None, None] * np.einsum("ni,nj->nij", rotvecs, points)
    jac += (omc * dot)[:, None, None] * np.eye(3)
    # sinc * d(w x X)/dw = -sinc * [X]_x
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    skew = np.zeros((n, 3, 3))
    skew[:, 0, 1] = -z
    skew[:, 0, 2] = y
    skew[:, 1, 0] = z
    skew[:, 1, 2] = -x
    skew[:, 2, 0] = -y
    skew[:, 2, 1] = x
    jac -= sinc[:, None, None] * skew
    return jac


def _row_sums(index: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """``out[index[n]] += values[n]`` over rows in order, as one bincount."""
    width = values[0].size
    slots = (index[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(slots, weights=values.ravel(), minlength=length * width)
    return sums.reshape((length,) + values.shape[1:])


def linearize(problem: BAProblem, params: ParamVector) -> Linearization:
    """Residuals plus analytic block Jacobian and weighted normal-equation blocks."""
    cam_idx, pt_idx, pixels = problem.observation_arrays()
    residual = _residual_values(params, cam_idx, pt_idx, pixels)

    cams = params.cameras[cam_idx]
    pts = params.points[pt_idx]
    rot = cams[:, 0:3]
    focal = cams[:, 6]
    k1 = cams[:, 7]
    k2 = cams[:, 8]

    cam_frame = rotate_points(rot, pts) + cams[:, 3:6]
    z = cam_frame[:, 2]
    plane = -cam_frame[:, :2] / z[:, None]
    r2 = np.sum(plane * plane, axis=1)
    distortion = 1.0 + k1 * r2 + k2 * r2 * r2

    n = len(cam_idx)
    # d(plane)/d(cam_frame): rows for x and y image axes.
    dplane = np.zeros((n, 2, 3))
    dplane[:, 0, 0] = -1.0 / z
    dplane[:, 1, 1] = -1.0 / z
    dplane[:, 0, 2] = cam_frame[:, 0] / (z * z)
    dplane[:, 1, 2] = cam_frame[:, 1] / (z * z)

    # d(pixel)/d(plane) = f * (distortion * I + (2 k1 + 4 k2 r2) p p^T)
    dpix_dplane = distortion[:, None, None] * np.eye(2)
    dpix_dplane = dpix_dplane + (2.0 * k1 + 4.0 * k2 * r2)[:, None, None] * np.einsum(
        "ni,nj->nij", plane, plane
    )
    dpix_dplane *= focal[:, None, None]

    chain = np.einsum("nij,njk->nik", dpix_dplane, dplane)  # d(pixel)/d(cam_frame)

    drot = _rotation_point_jacobian(rot, pts)
    # Rotation matrix columns via rotating the basis vectors, once per camera.
    camera_rot = params.cameras[:, 0:3]
    eye = np.eye(3)
    rot_mat = np.stack(
        [rotate_points(camera_rot, np.broadcast_to(eye[k], camera_rot.shape)) for k in range(3)],
        axis=2,
    )[cam_idx]

    dpix_cam = np.zeros((n, 2, 9))
    dpix_cam[:, :, 0:3] = np.einsum("nij,njk->nik", chain, drot)
    dpix_cam[:, :, 3:6] = chain
    dpix_cam[:, :, 6] = distortion[:, None] * plane
    dpix_cam[:, :, 7] = (focal * r2)[:, None] * plane
    dpix_cam[:, :, 8] = (focal * r2 * r2)[:, None] * plane
    dpix_pt = np.einsum("nij,njk->nik", chain, rot_mat)

    # Residual is observed minus predicted, so its Jacobian is negated.
    jac_cam = -dpix_cam
    jac_pt = -dpix_pt

    weight = 1.0 / (problem.pixel_sigma * problem.pixel_sigma)
    nc, npts = problem.num_cameras, problem.num_points

    grad_cam = _row_sums(cam_idx, weight * np.einsum("nij,ni->nj", jac_cam, residual), nc)
    grad_pt = _row_sums(pt_idx, weight * np.einsum("nij,ni->nj", jac_pt, residual), npts)
    h_cc = _row_sums(cam_idx, weight * np.einsum("nij,nik->njk", jac_cam, jac_cam), nc)
    h_pp = _row_sums(pt_idx, weight * np.einsum("nij,nik->njk", jac_pt, jac_pt), npts)
    h_cp = weight * np.einsum("nij,nik->njk", jac_cam, jac_pt)

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
    """Cholesky solve with a least-squares fallback for semidefinite systems."""
    try:
        factor = scipy.linalg.cho_factor(matrix, lower=True, check_finite=False)
        solution = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
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

    cross_dinv = np.einsum("nij,njk->nik", lin.h_cp, point_inv[lin.pt_idx])

    first, second, block_of, starts = _camera_pairs(lin.cam_idx, lin.pt_idx, nc)
    blocks = np.zeros((nc * nc, 9, 9))
    diagonal = np.arange(nc) * (nc + 1)
    blocks[diagonal] = lin.h_cc + lam * np.eye(9)
    for lo in range(0, len(first), PAIR_CHUNK):
        hi = min(lo + PAIR_CHUNK, len(first))
        products = np.matmul(cross_dinv[first[lo:hi]], lin.h_cp[second[lo:hi]].transpose(0, 2, 1))
        # Segments of equal (camera, camera) block within the chunk; a block
        # whose segment crosses a chunk edge is summed in two parts.
        cuts = starts[np.searchsorted(starts, lo, "right") : np.searchsorted(starts, hi)]
        segment_starts = np.concatenate(([0], cuts - lo))
        blocks[block_of[lo + segment_starts]] -= np.add.reduceat(products, segment_starts, axis=0)
    reduced = blocks.reshape(nc, nc, 9, 9).transpose(0, 2, 1, 3)

    rhs = -lin.grad_cam.copy()
    np.add.at(
        rhs, lin.cam_idx, np.einsum("nij,nj->ni", cross_dinv, lin.grad_pt[lin.pt_idx])
    )
    delta_cam = _solve_spd(reduced.reshape(9 * nc, 9 * nc), rhs.ravel()).reshape(nc, 9)

    back = lin.grad_pt.copy()
    np.add.at(
        back, lin.pt_idx, np.einsum("nij,ni->nj", lin.h_cp, delta_cam[lin.cam_idx])
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
    """Iterate until the error plateaus, the cap is hit, or numerics fail.

    ``policy`` supplies the damping each iteration through
    ``next_lambda(observation)``; it is reset first so one instance can be
    reused across solves.
    """
    from .policy import observe

    policy.reset()
    state = SolverState.initial(problem)
    records: list[IterationRecord] = []
    last_lambda = 0.0
    outcome = OUTCOME_ITERATION_CAP
    while True:
        obs = observe(state, policy.window, last_lambda)
        lam = float(policy.next_lambda(obs))
        state, record = lm_iterate(
            problem,
            state,
            lam,
            deterministic_time=deterministic_time,
            accept_only_improving=accept_only_improving,
        )
        records.append(record)
        last_lambda = lam
        if state.failed:
            outcome = OUTCOME_NUMERICAL_FAILURE
            break
        if state.last_step_accepted and convergence_check(state.error_history, threshold):
            outcome = OUTCOME_CONVERGED
            break
        if state.iteration >= max_iterations:
            outcome = OUTCOME_ITERATION_CAP
            break
    return SolveResult(
        params=state.params,
        outcome=outcome,
        iterations=state.iteration,
        total_time_s=float(sum(state.durations)),
        final_error=state.error_history[-1],
        initial_error=state.error_history[0],
        records=records,
    )


def records_to_csv(records: list[IterationRecord]) -> str:
    lines = ["iter,lambda,error,duration_s"]
    for rec in records:
        error = "" if not np.isfinite(rec.error) else repr(rec.error)
        lines.append(f"{rec.iteration},{rec.lam!r},{error},{rec.duration_s!r}")
    return "\n".join(lines) + "\n"


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
