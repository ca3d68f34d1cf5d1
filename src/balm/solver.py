"""Damped least-squares core for bundle adjustment.

One iteration linearizes the reprojection residuals, solves the damped
normal equations ``(H + lambda*I) delta = -g`` (eliminating the point
blocks via the Schur complement), and applies the step additively to all
parameter blocks. Steps are accepted unconditionally unless the caller
opts into accept-on-improve. ``H`` and ``g`` carry the observation weight
1/pixel_sigma^2; lambda is added to that weighted ``H`` with no rescaling.

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
temporaries small on scenes with many points. The Cholesky factorization
reads only the lower triangle of ``S``, so only the blocks on or below the
block diagonal are ever assembled, and one transposing copy writes them
into the Fortran-ordered matrix that is factored in place. When the
factorization fails, it has overwritten that matrix, so the copy is made
again, and the least-squares fallback solves its lower triangle mirrored:
the symmetric matrix that the factorization was given.

The plan also owns a workspace (``scene._Workspace``): one buffer that
holds every per-observation temporary of ``linearize`` and of the Schur
``damped_step``, the reduced system and the pair gathers and products
included. The two calls never overlap, so they share it, and every call
rewrites it. Once each has run on an index set, neither allocates more
than its results and a few small temporaries, so the allocator no longer
hands megabytes back to the system each iteration, only to fault them in
again on the next. ``linearize`` and ``damped_step`` are therefore not
reentrant across threads (balm starts none). No ``Linearization`` field
and no returned step is ever part of the workspace: a linearization stays
valid while other calls reuse it, as the greedy oracle's trials do.

Each LM state is projected once and linearized once. A ``SolverState``
owns the projection and the ``Linearization`` of its parameters, and it
makes the parameter arrays read-only, so neither can go stale.
``SolverState.initial`` keeps the projection that scored the starting
parameters, and ``lm_iterate`` the one that scored a lone accepted
candidate; the first ``SolverState.linearization`` request builds the
Jacobian from it through ``linearize`` and then drops it. A k-iteration
solve therefore makes k + 1 projections, not 2k + 1, and the greedy
oracle and the iteration that follows it share one linearization. The
successor of a rejected or failed step shares its parameters and their
linearization. A batch of several dampings keeps no projection.

The per-observation arrays of an iteration are component-major, with the
observation index last: the gathered cameras (9, n) and points (3, n), the
camera-frame points (3, n), the Jacobian blocks (2, 9, n) and (2, 3, n),
and the cross blocks ``H_cp`` and ``E`` (9, 3, n). Every elementwise
operation then runs over contiguous length-n rows, and ``Linearization``
exposes the arrays as transposed (n, ...) views.

The Schur step runs on a leading damping axis of length L: ``evaluate_steps``
evaluates a whole damping grid on one linearization (the greedy oracle's
eleven trials) as one batch, and ``damped_step`` and ``lm_iterate``'s
candidate are its L = 1 case. The point blocks ``h_pp + lambda*I`` and
their inverses, E, the pair gathers, the right-hand side and the
back-substitution each run once over all L dampings. The pair products
and their segmented sums, the Cholesky solve and its fallback run per
damping, and so does every failure, which stays with its own damping.
Each damping's rows are the bits it gets alone. The candidates of all
dampings are projected together, with each damping's residuals and error
summed over its own contiguous rows.

Sums keep a fixed order, so that making them faster cannot move a bit of
the output: small batched products add their inner index in order, first
term first (``_batched_matmul``); 2- and 3-term dot products add from 0.0
in order, as ``np.sum`` over a short last axis does (``scene._dot``); and
scatters are one ``bincount`` per block row, adding in observation order.
Three sums add in an order that numpy or BLAS fixes for the row-major
layout they read:

- ``np.add.reduceat`` of a segment a[start:end] is ``a[start]`` plus
  numpy's pairwise sum of the rest, which adds in order below 8 terms,
  in 8 interleaved accumulators from 8 to 128 terms, and by recursive
  halving above 128. Over a damping axis it adds the same terms, through
  a strided pairwise sum that is slower than one call per damping (1.14
  against 0.85 ms for 11 dampings of the suite's 550 lower pairs).
- The pair products' ``matmul`` (a BLAS kernel per 9x3 by 3x9 product) is
  not the sequential sum ``((0 + a0 b0) + a1 b1) + a2 b2``: on 600 products
  of standard-normal factors, 16,057 of the 48,600 entries differ.
- The ``einsum`` contractions of the Schur right-hand side and
  back-substitution: over a contiguous 3-long axis, ``einsum`` does not
  add in order.

Reordering a sum moves a step in its last bits, and along the
near-singular gauge directions at small lambda by far more.

The Cholesky routines ``dpotrf``/``dpotrs`` are loaded from the file of scipy's
LAPACK extension ``scipy.linalg._flapack``: importing ``scipy.linalg`` for them
would more than double balm's import time.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import astuple, dataclass, field, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .scene import (
    DEPTH_EPS,
    BAProblem,
    _Workspace,
    _cross,
    _dot,
    _project_rows,
    _rotation_coefficients,
)

LAMBDA_MIN = 1e-16
LAMBDA_MAX = 1e16
CONVERGENCE_FLOOR = 1e-30
PAIR_CHUNK = 1024  # observation pairs per batched product in the Schur assembly
_EYE2, _EYE3, _EYE9 = np.eye(2), np.eye(3), np.eye(9)
for _eye in (_EYE2, _EYE3, _EYE9):
    _eye.flags.writeable = False

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
        return ParamVector(problem.camera_blocks.copy(), problem.point_blocks.copy())


@dataclass
class Linearization:
    """Residuals, block Jacobian, weighted gradient and Hessian blocks.

    ``jac_cam``/``jac_pt`` are the raw residual Jacobian blocks; gradient and
    Hessian fold in the observation weight 1/pixel_sigma^2. ``linearize``
    stores the Jacobian, gradient and Hessian blocks component-major, with
    the observation or block index last, and these fields are transposed
    views of that storage in the shapes below: ``jac_cam`` is a (n, 2, 9)
    view of a (2, 9, n) array. ``damped_step`` accepts any strides, as does
    the tests' dense reference (``dense_step`` in ``tests/conftest.py``).
    Every field is an array of its own, never part of the pair plan's
    workspace, so a linearization outlives later calls.
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


@dataclass
class IterationRecord:
    iteration: int
    lam: float
    error: float
    duration_s: float


@dataclass
class SolverState:
    """One LM state; ``error_history`` has iteration+1 entries.

    The state owns its parameters, whose arrays it makes read-only, and
    their projection and linearization over the observations of the
    problem it was made for; pass it only to calls on that problem.
    ``dataclasses.replace`` carries neither onto other parameters.
    """

    params: ParamVector
    error_history: list[float]
    durations: list[float]
    iteration: int = 0
    failed: bool = False
    last_step_accepted: bool = True
    _projection: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _linearization: Linearization | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.params.cameras.flags.writeable = False
        self.params.points.flags.writeable = False

    @staticmethod
    def initial(problem: BAProblem) -> "SolverState":
        """The problem's parameters and error; their projection is kept for ``linearization``."""
        params = ParamVector.from_problem(problem)
        cam_idx, pt_idx, pixels = problem.observation_arrays()
        rows = _project_rows(params.cameras, params.points, cam_idx, pt_idx)
        err = estimation_error(_checked_residual(pixels, rows[6], rows[2][2]), problem.pixel_sigma)
        state = SolverState(params=params, error_history=[err], durations=[])
        state._projection = rows
        return state

    def linearization(self, problem: BAProblem) -> Linearization:
        """The parameters' ``linearize``, built on the first request from the kept projection."""
        if self._linearization is None:
            self._linearization = linearize(problem, self.params, _projection=self._projection)
            self._projection = None
        return self._linearization

    def copy(self) -> "SolverState":
        """This state with lists of its own; the parameters and what is built on them are shared."""
        twin = replace(self, error_history=list(self.error_history), durations=list(self.durations))
        twin._projection, twin._linearization = self._projection, self._linearization
        return twin


def _checked_residual(pixels, predicted, depths) -> np.ndarray:
    """``pixels - predicted``; a numerically zero depth or a non-finite value raises."""
    bad = np.abs(depths) <= DEPTH_EPS
    if bad.any():
        index = int(np.argmax(bad))
        raise NumericalFailureError(
            f"observation {index}: camera-frame depth is numerically zero", index
        )
    values = pixels - predicted
    if not np.isfinite(values).all():
        index = int(np.argmax(~np.isfinite(values).all(axis=1)))
        raise NumericalFailureError(f"observation {index}: non-finite residual", index)
    return values


def estimation_error(res: np.ndarray, pixel_sigma: float) -> float:
    """Sum of squared sigma-whitened residuals."""
    return float((res * res).sum() / (pixel_sigma * pixel_sigma))


def _batched_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray, scratch) -> np.ndarray:
    """``a @ b`` per trailing index, on component-major (i, j, ...) and (j, k, ...) arrays.

    The result goes into ``out``, and the trailing axes broadcast. The inner
    index is summed in order, first term first, unlike ``matmul`` or
    ``einsum``, whose kernels may block, pair or fuse the sum. Each step is
    one broadcast over contiguous rows; the terms go through ``scratch``.
    """
    np.multiply(a[:, 0, None], b[None, 0], out=out)
    mark = scratch.used
    term = scratch(*out.shape)
    for j in range(1, a.shape[1]):
        out += np.multiply(a[:, j, None], b[None, j], out=term)
    scratch.release(mark)
    return out


def _rotation_point_jacobian(
    camera_rotvecs: np.ndarray, cam_idx: np.ndarray, w: np.ndarray, p: np.ndarray, scratch
) -> np.ndarray:
    """d(R(w) @ X)/dw for each observation, component-major (3, 3, n).

    Observation n rotates point column ``p[:, n]`` by ``w[:, n]``, which is
    column ``cam_idx[n]`` of the (3, num_cameras) ``camera_rotvecs``.
    Derived from the unnormalized Rodrigues form
    R(w)X = cos(t) X + sinc(t) (w x X) + (1-cos t)/t^2 (w.X) w with t = |w|;
    all angle-dependent coefficients get series fallbacks near t = 0 and
    are computed once per camera. Entry (i, j) is
    -sinc X_i w_j + beta (w x X)_i w_j + gamma (w.X) w_i w_j + omc w_i X_j
    + omc (w.X) [i = j] - sinc [X]_x[i, j], summed in that order. The
    result and its temporaries come from ``scratch``.
    """
    theta2 = _dot(camera_rotvecs, camera_rotvecs)
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
    jac = scratch(3, 3, len(cam_idx))
    mark = scratch.used

    dot = _dot(w, p)
    c = _cross(w, p, out=scratch(*p.shape))
    gamma_dot = gamma * dot
    term = scratch(*p.shape)
    for i in range(3):
        row = jac[i]
        np.multiply(c[i], w, out=row)
        row *= beta
        np.multiply(p[i], w, out=term)
        term *= sinc
        row -= term  # -a + b is b - a to the bit
        np.multiply(w[i], w, out=term)
        term *= gamma_dot
        row += term
        np.multiply(w[i], p, out=term)
        term *= omc
        row += term
    diagonal = omc * dot
    for i in range(3):
        jac[i, i] += diagonal
    # - sinc [X]_x, where sinc * (-X_k) is -(sinc * X_k)
    x, y, z = np.multiply(sinc, p, out=term)
    jac[0, 1] += z
    jac[0, 2] -= y
    jac[1, 0] -= z
    jac[1, 2] += x
    jac[2, 0] += y
    jac[2, 1] -= x
    scratch.release(mark)
    return jac


def _rotation_matrices(rotvecs: np.ndarray) -> np.ndarray:
    """R(w) of each column of the (3, n) ``rotvecs``, component-major (3, 3, n).

    Column k is ``rotate_points(w, e_k)`` to the bit: the same terms are
    summed in the same order.
    """
    cos_t, sinc, omc = _rotation_coefficients(_dot(rotvecs, rotvecs))
    eye = _EYE3[:, :, None]
    return (
        cos_t * eye
        + sinc * _cross(rotvecs[:, None, :], eye)
        + (omc * rotvecs)[None, :, :] * rotvecs[:, None, :]
    )


def _column_slots(index: np.ndarray, rows: int, length: int, scratch) -> np.ndarray:
    """Flat bincount slots ``r * length + index[n]`` of a (rows, n) array, in ``scratch``."""
    slots = scratch(rows, len(index), dtype=np.intp)
    return np.add(np.arange(rows)[:, None] * length, index, out=slots).ravel()


def _column_sums(slots: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """``out[..., index[n]] += values[..., n]`` over n in order, as one bincount.

    ``slots`` are ``_column_slots(index, rows, length)`` for the ``rows``
    components of ``values``; the result has shape (..., length).
    """
    shape = values.shape[:-1] + (length,)
    sums = np.bincount(slots, weights=values.ravel(), minlength=math.prod(shape))
    return sums.reshape(shape)


def _gradient_sums(
    jac: np.ndarray, residual: np.ndarray, weight: float, slots: np.ndarray, length: int, scratch
) -> np.ndarray:
    """Per-block sums of ``weight * J^T r`` for a (2, width, n) ``jac``: (width, length)."""
    mark = scratch.used
    terms = np.multiply(jac[0], residual[:, 0], out=scratch(*jac.shape[1:]))
    terms += np.multiply(jac[1], residual[:, 1], out=scratch(*jac.shape[1:]))
    terms *= weight
    sums = _column_sums(slots, terms, length)
    scratch.release(mark)
    return sums


def _gram_sums(
    jac: np.ndarray, weight: float, slots: np.ndarray, length: int, scratch
) -> np.ndarray:
    """Per-block sums of ``weight * J^T J`` for a (2, width, n) ``jac``: (width, width, length).

    Entry (j, k) of one observation is (J0j J0k + J1j J1k) * weight, the
    same bits as entry (k, j), so each block row j sums only k >= j, one
    bincount per row, and the lower triangle copies the upper one.
    """
    width, n = jac.shape[1:]
    out = np.empty((width, width, length))
    mark = scratch.used
    first, second = scratch(width, n), scratch(width, n)
    for j in range(width):
        terms = np.multiply(jac[0, j], jac[0, j:], out=first[: width - j])
        terms += np.multiply(jac[1, j], jac[1, j:], out=second[: width - j])
        terms *= weight
        out[j, j:] = _column_sums(slots[: (width - j) * n], terms, length)
        out[j + 1 :, j] = out[j, j + 1 :]
    scratch.release(mark)
    return out


def linearize(problem: BAProblem, params: ParamVector, *, _projection=None) -> Linearization:
    """Residuals plus analytic block Jacobian and weighted normal-equation blocks.

    ``_projection`` is ``SolverState``'s kept projection of ``params``
    (``SolverState.linearization`` passes it); without it, ``params`` are
    projected here. The temporaries live in the pair plan's workspace;
    every returned array is new.
    """
    cam_idx, pt_idx, pixels = problem.observation_arrays()
    nc, npts, n = problem.num_cameras, problem.num_points, len(cam_idx)
    scratch = _pair_plan(cam_idx, pt_idx, nc).workspace.frame()
    # One projection, kept or made here, serves the residual and the Jacobian.
    cams, pts, cam_frame, plane, r2, distortion, predicted = _projection or _project_rows(
        params.cameras, params.points, cam_idx, pt_idx, scratch
    )
    focal, k1, k2 = cams[6], cams[7], cams[8]
    z = cam_frame[2]
    residual = _checked_residual(pixels, predicted, z)

    # d(plane)/d(cam_frame): rows for x and y image axes.
    dplane = scratch(2, 3, n)
    dplane.fill(0.0)
    dplane[0, 0] = -1.0 / z
    dplane[1, 1] = -1.0 / z
    dplane[0, 2] = cam_frame[0] / (z * z)
    dplane[1, 2] = cam_frame[1] / (z * z)

    # d(pixel)/d(plane) = f * (distortion * I + (2 k1 + 4 k2 r2) p p^T)
    dpix_dplane = np.multiply(distortion, _EYE2[:, :, None], out=scratch(2, 2, n))
    outer = np.multiply(plane[:, None], plane[None, :], out=scratch(2, 2, n))
    outer *= 2.0 * k1 + 4.0 * k2 * r2
    dpix_dplane += outer
    dpix_dplane *= focal

    chain = _batched_matmul(dpix_dplane, dplane, scratch(2, 3, n), scratch)  # d(pixel)/d(cam_frame)

    camera_rot = params.cameras[:, 0:3].T
    drot = _rotation_point_jacobian(camera_rot, cam_idx, cams[0:3], pts, scratch)
    rot_mat = scratch.take(_rotation_matrices(camera_rot), cam_idx, axis=2)

    # Residual is observed minus predicted, so its Jacobian is negated.
    jac_cam = np.empty((2, 9, n))
    np.negative(_batched_matmul(chain, drot, scratch(2, 3, n), scratch), out=jac_cam[:, 0:3])
    np.negative(chain, out=jac_cam[:, 3:6])
    for column, factor in ((6, distortion), (7, focal * r2), (8, focal * r2 * r2)):
        np.negative(np.multiply(factor, plane, out=jac_cam[:, column]), out=jac_cam[:, column])
    jac_pt = np.negative(_batched_matmul(chain, rot_mat, scratch(2, 3, n), scratch))
    scratch.release(0)  # the projection and the Jacobian's factors are spent

    weight = 1.0 / (problem.pixel_sigma * problem.pixel_sigma)
    cam_slots = _column_slots(cam_idx, 9, nc, scratch)
    pt_slots = _column_slots(pt_idx, 3, npts, scratch)
    grad_cam = _gradient_sums(jac_cam, residual, weight, cam_slots, nc, scratch)
    grad_pt = _gradient_sums(jac_pt, residual, weight, pt_slots, npts, scratch)
    h_cc = _gram_sums(jac_cam, weight, cam_slots, nc, scratch)
    h_pp = _gram_sums(jac_pt, weight, pt_slots, npts, scratch)
    h_cp = _batched_matmul(jac_cam.transpose(1, 0, 2), jac_pt, np.empty((9, 3, n)), scratch)
    h_cp *= weight

    return Linearization(
        cam_idx=cam_idx,
        pt_idx=pt_idx,
        residual=residual,
        jac_cam=jac_cam.transpose(2, 0, 1),
        jac_pt=jac_pt.transpose(2, 0, 1),
        grad_cam=grad_cam.T,
        grad_pt=grad_pt.T,
        h_cc=h_cc.transpose(2, 0, 1),
        h_pp=h_pp.transpose(2, 0, 1),
        h_cp=h_cp.transpose(2, 0, 1),
        num_cameras=nc,
        num_points=npts,
    )


def _flapack():
    """``scipy.linalg._flapack``, loaded from its file unless already imported,
    and registered under its name for a later ``import scipy.linalg`` to reuse."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    linalg = os.path.join(os.path.dirname(scipy_spec.origin), "linalg") if scipy_spec else None
    spec = linalg and FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if not spec:
        raise ImportError(f"scipy's LAPACK extension {name} was not found", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


dpotrf, dpotrs = _flapack().dpotrf, _flapack().dpotrs


def _solve_spd(
    matrix: np.ndarray, rhs: np.ndarray, rebuild: Callable[[], np.ndarray]
) -> np.ndarray:
    """Cholesky solve with a least-squares fallback for semidefinite systems.

    Calls LAPACK's ``dpotrf``/``dpotrs`` from scipy's ``_flapack`` extension
    (the routines behind ``scipy.linalg.cho_factor``/``cho_solve``) directly,
    which skips those wrappers' argument checks and batching. The
    factorization reads only the lower triangle of ``matrix``, and the
    fallback solves the symmetric matrix with that lower triangle, its
    strict part mirrored into the upper one. A Fortran-ordered ``matrix`` is
    factored in place, so ``rebuild()`` returns it anew for the fallback.
    """
    factor, info = dpotrf(matrix, lower=1, clean=0, overwrite_a=True)
    if info == 0:
        solution, info = dpotrs(factor, rhs, lower=1)
    if info != 0:
        lower = np.tril(rebuild())
        try:
            solution, *_ = np.linalg.lstsq(lower + np.tril(lower, -1).T, rhs, rcond=None)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"least-squares fallback failed: {exc}") from exc
    if not np.isfinite(solution).all():
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


@dataclass(frozen=True)
class _PairPlan:
    """The Schur assembly's pairs in PAIR_CHUNK-sized chunks, and the LM layer's workspace.

    Each chunk is (first, second, segment starts within the chunk, the
    (camera, camera) block index of each segment). ``lower`` holds the pairs
    whose block is on or below the block diagonal (camera of ``first`` >=
    camera of ``second``), the only blocks that the Cholesky factorization
    reads and so the only ones assembled. Its chunks are the lower pairs of
    a chunking of all the pairs in ``_camera_pairs`` order, so a block that
    crosses a chunk edge of that order is summed in two parts.

    ``workspace`` holds every per-observation temporary of ``linearize``
    and of the Schur step on this index set: the projection, the
    Jacobian's factors, the Gram and gradient terms and the bincount slots;
    ``E`` in both layouts, ``H_cp^T``, the reduced camera systems, the pair
    gathers and products, and the gathered operands of the right-hand side
    and the back-substitution, for every damping of a batch. The calls
    never overlap, so they share it, and every call rewrites it. No
    ``Linearization`` field or returned step is ever part of it.
    ``row_slots`` keeps the bincount slots of ``_added_rows``, which depend
    only on the indices and the batch's shape.
    """

    lower: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    points_indexed: int  # 1 + the largest point index
    workspace: _Workspace = field(default_factory=_Workspace)
    row_slots: dict = field(default_factory=dict)  # ``_added_rows``' bincount slots

    def subtract(self, blocks, cross_dinv, cross_t) -> None:
        """``blocks[l, b] -= sum of cross_dinv[l, first] @ cross_t[second]`` over the lower pairs.

        ``blocks`` is (L, num_blocks, 9, 9) and ``cross_dinv`` (L, n, 9, 3),
        one row per damping; ``cross_t`` (n, 3, 9) is shared by all of them.
        """
        scratch = self.workspace
        count = len(blocks)
        for first, second, segment_starts, segment_blocks in self.lower:
            mark = scratch.used
            # np.take gathers rows about twice as fast as fancy indexing.
            left = scratch.take(cross_dinv, first, axis=1)
            right = scratch.take(cross_t, second, axis=0)
            # One damping's products at a time keeps the workspace near its
            # one-damping size; reduceat runs per damping anyway (see the
            # module docstring).
            products = scratch(len(first), 9, 9)
            sums = scratch(len(segment_starts), 9, 9)
            for damping in range(count):
                np.matmul(left[damping], right, out=products)
                np.add.reduceat(products, segment_starts, axis=0, out=sums)
                blocks[damping][segment_blocks] -= sums
            scratch.release(mark)


def _pair_plan(cam_idx: np.ndarray, pt_idx: np.ndarray, num_cameras: int) -> _PairPlan:
    """The Schur assembly's pair plan, built once per index set.

    The plan is memoized on the content of the indices, so it cannot go
    stale.
    """
    cam_idx = np.ascontiguousarray(cam_idx, dtype=np.intp)
    pt_idx = np.ascontiguousarray(pt_idx, dtype=np.intp)
    return _cached_pair_plan(num_cameras, cam_idx.tobytes(), pt_idx.tobytes())


@functools.lru_cache(maxsize=8)
def _cached_pair_plan(num_cameras: int, cam_bytes: bytes, pt_bytes: bytes) -> _PairPlan:
    cam_idx = np.frombuffer(cam_bytes, dtype=np.intp)
    pt_idx = np.frombuffer(pt_bytes, dtype=np.intp)
    first, second, block_of, starts = _camera_pairs(cam_idx, pt_idx, num_cameras)
    on_lower = block_of // num_cameras >= block_of % num_cameras
    lower = []
    for lo in range(0, len(first), PAIR_CHUNK):
        hi = min(lo + PAIR_CHUNK, len(first))
        # Segments of equal (camera, camera) block within the chunk; a block
        # whose segment crosses a chunk edge is summed in two parts.
        cuts = starts[np.searchsorted(starts, lo, "right") : np.searchsorted(starts, hi)]
        segment_starts = np.concatenate(([lo], cuts))
        kept = on_lower[segment_starts]
        if not kept.any():
            continue
        kept_lengths = np.diff(np.append(segment_starts, hi))[kept]
        side = on_lower[lo:hi]
        chunk = (
            first[lo:hi][side],
            second[lo:hi][side],
            np.cumsum(kept_lengths) - kept_lengths,
            block_of[segment_starts[kept]],
        )
        for array in chunk:
            array.flags.writeable = False  # shared by every later call
        lower.append(chunk)
    return _PairPlan(tuple(lower), int(pt_idx.max(initial=-1)) + 1)


def _added_rows(base: np.ndarray, index: np.ndarray, values: np.ndarray, plan) -> np.ndarray:
    """``np.add.at(base.copy(), index, values[l])`` for each l, to the bit: base rows first.

    ``values`` is (L, len(index), width), and ``index`` is the camera or the
    point index array of ``plan``; the result is an (L, *base.shape) view.
    One bincount adds every l's rows, with l the middle slot index. The
    slots depend only on the index and the shapes, so the plan keeps them.
    """
    length, width = base.shape
    count, rows = len(values), length + len(index)
    key = (length, width, count)  # width 9 for camera rows, 3 for point rows
    slots = plan.row_slots.get(key)
    if slots is None:
        rows_index = np.concatenate((np.arange(length), index))
        slots = (rows_index[:, None] * (count * width) + np.arange(count * width)).ravel()
        slots.flags.writeable = False
        plan.row_slots[key] = slots
    scratch = plan.workspace
    mark = scratch.used
    addends = scratch(rows, count, width)
    np.copyto(addends[:length], base[:, None])
    np.copyto(addends[length:], values.transpose(1, 0, 2))
    sums = np.bincount(slots, weights=addends.ravel(), minlength=count * base.size)
    scratch.release(mark)
    return sums.reshape(length, count, width).transpose(1, 0, 2)


def _damped_steps(lin: Linearization, lams):
    """The Schur steps of (H + lambda*I) delta = -g at each damping of ``lams``, as one batch.

    Returns (delta_cameras (L, num_cameras, 9), delta_points (L,
    num_points, 3), failures), where ``failures[l]`` is the
    ``SingularSystemError`` of damping l, or None when its rows hold its
    step. A damping's rows are, to the bit, what the batch of it alone
    gives. The temporaries live in the pair plan's workspace.
    """
    lams = [float(lam) for lam in lams]
    for lam in lams:
        if lam < 0 or not math.isfinite(lam):
            raise ValueError(f"damping must be a non-negative finite scalar, got {lam}")
    count, nc = len(lams), lin.num_cameras
    failures = [None] * count

    n = len(lin.cam_idx)
    plan = _pair_plan(lin.cam_idx, lin.pt_idx, nc)
    if plan.points_indexed > len(lin.h_pp):
        # The workspace's gathers do not check their indices.
        raise IndexError(f"point index {plan.points_indexed - 1} is out of range")
    damping_axis = np.array(lams).reshape(count, 1, 1, 1)
    point_system = lin.h_pp + damping_axis * _EYE3
    try:
        point_inv = np.linalg.inv(point_system.reshape(-1, 3, 3)).reshape(point_system.shape)
    except np.linalg.LinAlgError:
        # Find the dampings whose point blocks are singular; the rest go on.
        point_inv = np.zeros(point_system.shape)
        for damping in range(count):
            try:
                point_inv[damping] = np.linalg.inv(point_system[damping])
            except np.linalg.LinAlgError as exc:
                failures[damping] = SingularSystemError(f"point block inversion failed: {exc}")

    # E = H_cp V^-1 component-major, then one copy to (L, n, 9, 3) for the pair gathers.
    scratch = plan.workspace.frame()
    cross_dinv = scratch(count, n, 9, 3)
    mark = scratch.used
    point_inv_columns = np.ascontiguousarray(point_inv.transpose(2, 3, 0, 1))
    cross_columns = _batched_matmul(
        lin.h_cp.transpose(1, 2, 0)[:, :, None],
        scratch.take(point_inv_columns, lin.pt_idx, axis=3),
        scratch(9, 3, count, n),
        scratch,
    )
    np.copyto(cross_dinv, cross_columns.transpose(2, 3, 0, 1))
    scratch.release(mark)

    # The right-hand side over the L * n rows of every damping at once.
    grad_pt_rows = scratch(count, n, 3)
    lin.grad_pt.take(lin.pt_idx, axis=0, out=grad_pt_rows[0], mode="clip")
    grad_pt_rows[1:] = grad_pt_rows[0]
    cross_grad = np.einsum(
        "nij,nj->ni",
        cross_dinv.reshape(count * n, 9, 3),
        grad_pt_rows.reshape(count * n, 3),
        out=scratch(count * n, 9),
    )
    rhs = _added_rows(-lin.grad_cam, lin.cam_idx, cross_grad.reshape(count, n, 9), plan)
    scratch.release(mark)

    cross_t = scratch(n, 3, 9)
    np.copyto(cross_t, lin.h_cp.transpose(0, 2, 1))
    blocks = scratch(count, nc * nc, 9, 9)  # block (a, b) of damping l's S at [l, a * nc + b]
    blocks.fill(0.0)
    blocks[:, np.arange(nc) * (nc + 1)] = lin.h_cc + damping_axis * _EYE9
    plan.subtract(blocks, cross_dinv, cross_t)

    def fortran(damping: int) -> np.ndarray:
        """Damping ``damping``'s reduced system, as a Fortran-ordered matrix in ``scratch``."""
        # Element (a, r, b, s) of S is storage[b, s, a, r]: Fortran order, so
        # the Cholesky factorization runs in place.
        storage = scratch(nc, 9, nc, 9)
        np.copyto(storage, blocks[damping].reshape(nc, nc, 9, 9).transpose(1, 3, 0, 2))
        return storage.reshape(9 * nc, 9 * nc).T

    delta_cam = np.zeros((count, nc, 9))
    for damping in range(count):
        if failures[damping] is not None:
            continue
        mark = scratch.used
        try:
            solution = _solve_spd(
                fortran(damping), rhs[damping].ravel(), functools.partial(fortran, damping)
            )
            delta_cam[damping] = solution.reshape(nc, 9)
        except SingularSystemError as exc:
            failures[damping] = exc
        scratch.release(mark)
    scratch.release(0)

    delta_cam_rows = scratch.take(delta_cam, lin.cam_idx, axis=1)
    # One damping reads H_cp as it is; more read a C-ordered copy per damping,
    # whose sums are the same bits.
    h_cp_rows = lin.h_cp if count == 1 else np.concatenate((lin.h_cp,) * count)
    cross_step = np.einsum(
        "nij,ni->nj", h_cp_rows, delta_cam_rows.reshape(count * n, 9), out=scratch(count * n, 3)
    )
    back = _added_rows(lin.grad_pt, lin.pt_idx, cross_step.reshape(count, n, 3), plan)
    npts = len(lin.grad_pt)
    delta_pt = -np.einsum(
        "nij,nj->ni", point_inv.reshape(count * npts, 3, 3), back.reshape(count * npts, 3)
    ).reshape(count, npts, 3)
    for damping, failure in enumerate(failures):
        if failure is not None:
            delta_pt[damping] = 0.0  # a failed damping's rows are zero
    return delta_cam, delta_pt, failures


def damped_step(lin: Linearization, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve (H + lambda*I) delta = -g; returns (delta_cameras, delta_points).

    The point blocks are eliminated through the Schur complement. The
    tests check this step against a dense solve of the whole Hessian
    (``dense_step`` in ``tests/conftest.py``). The temporaries live in the
    pair plan's workspace; the returned steps are new arrays.
    """
    (delta_cam,), (delta_pt,), (failure,) = _damped_steps(lin, (lam,))
    if failure is not None:
        raise failure
    return delta_cam, delta_pt


def _candidate_errors(problem: BAProblem, params: ParamVector, delta_cam, delta_pt, failures):
    """Per damping l, the candidate ``params + delta_*[l]`` and its error, or its failure.

    One projection covers every damping's candidate: the cameras are
    stacked as (L * num_cameras, 9) and the points as (L * num_points, 3),
    with the observation indices offset for each damping. Each damping's
    residual and error then come from its own contiguous rows, so they are
    the bits a projection of that candidate alone gives. Returns the
    outcomes and the projection, which for a lone candidate is its own.
    """
    cam_idx, pt_idx, pixels = problem.observation_arrays()
    n, count = len(cam_idx), len(failures)
    cameras = params.cameras + delta_cam
    points = params.points + delta_pt
    if count > 1:
        offsets = np.arange(count)[:, None]
        cam_idx = (cam_idx + offsets * len(params.cameras)).ravel()
        pt_idx = (pt_idx + offsets * len(params.points)).ravel()
    projection = _project_rows(cameras.reshape(-1, 9), points.reshape(-1, 3), cam_idx, pt_idx)
    predicted, depths = projection[6], projection[2][2]
    outcomes = list(failures)
    for damping, failure in enumerate(failures):
        if failure is not None:
            continue
        rows = slice(damping * n, (damping + 1) * n)
        try:
            res = _checked_residual(pixels, predicted[rows], depths[rows])
            err = estimation_error(res, problem.pixel_sigma)
            if not math.isfinite(err):
                raise NumericalFailureError("estimation error is non-finite")
            outcomes[damping] = (ParamVector(cameras[damping], points[damping]), err)
        except NumericalFailureError as exc:
            outcomes[damping] = exc
    return outcomes, projection


def evaluate_steps(
    problem: BAProblem, params: ParamVector, lin: Linearization, lams
) -> list:
    """The damped step from ``params`` (linearized as ``lin``) at every damping
    of ``lams``, and its candidate's error, as one batch.

    Returns, per damping, what that damping gives alone, to the bit:
    ``(candidate, error)``, or the ``NumericalFailureError`` or
    ``SingularSystemError`` that evaluating it hit, as a value. A failure
    stays with its own damping. Invalid dampings raise ``ValueError``.
    """
    lams = list(lams)
    if not lams:
        return []
    return _candidate_errors(problem, params, *_damped_steps(lin, lams))[0]


def lm_iterate(
    problem: BAProblem,
    state: SolverState,
    lam: float,
    deterministic_time: bool = False,
    accept_only_improving: bool = False,
) -> tuple[SolverState, IterationRecord]:
    """Run one damped iteration from ``state``; returns the successor state.

    The iteration is the state's linearization, then ``damped_step`` and
    the candidate's error, as in ``evaluate_steps``. The step is applied
    additively to every parameter block and accepted unconditionally unless
    ``accept_only_improving`` is set, in which case a worsening step leaves
    the parameters (and error) unchanged. Failures (a non-finite damping,
    degenerate depth, non-finite error, unsolvable system) mark the state
    instead of raising.
    An accepted candidate keeps the projection that scored it; the
    successor of a rejected or failed step shares the state's parameters
    and linearization.
    """
    start = time.perf_counter()
    try:
        if not math.isfinite(lam):
            raise NumericalFailureError(f"damping {lam} is not finite")
        delta_cam, delta_pt = damped_step(state.linearization(problem), lam)
        (outcome,), projection = _candidate_errors(
            problem, state.params, delta_cam[None], delta_pt[None], [None]
        )
        if isinstance(outcome, Exception):
            raise outcome
        candidate, err = outcome
    except (NumericalFailureError, SingularSystemError):
        duration = 1.0 if deterministic_time else time.perf_counter() - start
        new_state = state.copy()
        new_state.failed = True
        record = IterationRecord(
            iteration=state.iteration + 1, lam=lam, error=float("nan"), duration_s=duration
        )
        return new_state, record

    previous = state.error_history[-1]
    if accept_only_improving and err > previous:
        err = previous
        new_state = state.copy()
        new_state.last_step_accepted = False
    else:
        new_state = replace(
            state,
            params=candidate,
            error_history=list(state.error_history),
            durations=list(state.durations),
            last_step_accepted=True,
        )
        new_state._projection = projection
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


def result_to_json_dict(result) -> dict:
    return {
        "outcome": result.outcome,
        "iterations": result.iterations,
        "total_time_s": result.total_time_s,
        "final_error": result.final_error,
        "initial_error": result.initial_error,
        # JSON has no NaN: a failed step's error is null
        "records": [
            {col: v if np.isfinite(v) else None for col, v in zip(RECORD_COLUMNS, astuple(rec))}
            for rec in result.records
        ],
    }
