import dataclasses
import hashlib
import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from balm import scene as scene_module
from balm import solver
from balm.baselines import DEFAULT_ORACLE_GRID, zero_net_oracle
from balm.scene import (
    BAProblem,
    CameraPose,
    Observation,
    generate_synthetic,
    project,
    rotate_points,
)
from balm.env import BAEnv, EnvConfig, StepOutcome, solve
from balm.policy import ClassicPolicy, ConstantSchedulerPolicy, FixedPolicy, PolicyObservation
from balm.solver import (
    LAMBDA_MAX,
    LAMBDA_MIN,
    IterationRecord,
    Linearization,
    NumericalFailureError,
    ParamVector,
    SingularSystemError,
    SolverState,
    convergence_check,
    damped_step,
    estimation_error,
    evaluate_steps,
    linearize,
    lm_iterate,
    records_to_csv,
    result_to_json_dict,
)

from conftest import dense_step, dense_system, flat, residuals, suite_problem


# ---------------------------------------------------------------------------
# Oracles: plain-loop reimplementations used to pin down the vectorized code.


def loop_error(problem, params):
    """Double-loop estimation error through the scalar projection path."""
    total = 0.0
    for obs in problem.observations:
        cam = CameraPose.from_array(params.cameras[obs.camera_index])
        predicted = project(cam, params.points[obs.point_index])
        diff = np.asarray(obs.pixel, dtype=float) - predicted
        total += float(diff @ diff) / problem.pixel_sigma**2
    return total


def unflatten(problem, vector):
    split = 9 * problem.num_cameras
    return ParamVector(
        vector[:split].reshape(-1, 9).copy(), vector[split:].reshape(-1, 3).copy()
    )


def initial_error(problem, params):
    """The error ``SolverState.initial`` finds at ``params`` on ``problem``'s observations."""
    moved = BAProblem.from_arrays(
        params.cameras, params.points, *problem.observation_arrays(), problem.pixel_sigma
    )
    return SolverState.initial(moved).error_history[0]


def fd_jacobian(problem, params, h=1e-6):
    """Central-difference Jacobian of the stacked residual vector."""
    base = flat(params)
    jac = np.zeros((2 * problem.num_observations, base.size))
    for k in range(base.size):
        plus = base.copy()
        plus[k] += h
        minus = base.copy()
        minus[k] -= h
        r_plus = residuals(problem, unflatten(problem, plus)).ravel()
        r_minus = residuals(problem, unflatten(problem, minus)).ravel()
        jac[:, k] = (r_plus - r_minus) / (2.0 * h)
    return jac


def scatter_jacobian(lin):
    """Dense residual Jacobian assembled from the per-observation blocks."""
    n = len(lin.cam_idx)
    dim = 9 * lin.num_cameras + 3 * lin.num_points
    jac = np.zeros((2 * n, dim))
    for k in range(n):
        ci, pj = lin.cam_idx[k], lin.pt_idx[k]
        jac[2 * k : 2 * k + 2, 9 * ci : 9 * ci + 9] = lin.jac_cam[k]
        col = 9 * lin.num_cameras + 3 * pj
        jac[2 * k : 2 * k + 2, col : col + 3] = lin.jac_pt[k]
    return jac


def assemble_blocks(cam_idx, pt_idx, residual, jac_cam, jac_pt, nc, npts, sigma):
    """Loop-built Linearization from raw blocks."""
    w = 1.0 / sigma**2
    grad_cam = np.zeros((nc, 9))
    grad_pt = np.zeros((npts, 3))
    h_cc = np.zeros((nc, 9, 9))
    h_pp = np.zeros((npts, 3, 3))
    h_cp = np.zeros((len(cam_idx), 9, 3))
    for k in range(len(cam_idx)):
        ci, pj = cam_idx[k], pt_idx[k]
        grad_cam[ci] += w * jac_cam[k].T @ residual[k]
        grad_pt[pj] += w * jac_pt[k].T @ residual[k]
        h_cc[ci] += w * jac_cam[k].T @ jac_cam[k]
        h_pp[pj] += w * jac_pt[k].T @ jac_pt[k]
        h_cp[k] = w * jac_cam[k].T @ jac_pt[k]
    return Linearization(
        cam_idx=np.asarray(cam_idx, dtype=int),
        pt_idx=np.asarray(pt_idx, dtype=int),
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
    )


def random_linearization(seed=0, nc=4, npts=30):
    """Fully-observed random blocks: no gauge freedom, comfortably conditioned,
    so the undamped Newton step is uniquely defined."""
    rng = np.random.default_rng(seed)
    cam_idx = np.repeat(np.arange(nc), npts)
    pt_idx = np.tile(np.arange(npts), nc)
    n = len(cam_idx)
    return assemble_blocks(
        cam_idx,
        pt_idx,
        rng.normal(0.0, 1.0, (n, 2)),
        rng.normal(0.0, 1.0, (n, 2, 9)),
        rng.normal(0.0, 1.0, (n, 2, 3)),
        nc,
        npts,
        1.0,
    )


def thinned_problem(num_cameras=8, num_points=40, seed=0):
    """A suite-like scene where each point keeps only 1-3 of its views.

    Point j keeps camera j mod num_cameras, so every camera stays observed,
    plus up to two other cameras drawn at random.
    """
    full = generate_synthetic(
        num_cameras, num_points, pixel_sigma=250.0, noise_std=0.5, seed=seed
    )
    rng = np.random.default_rng(seed)
    keep = set()
    for pj in range(num_points):
        others = [c for c in range(num_cameras) if c != pj % num_cameras]
        extra = rng.choice(others, size=rng.integers(0, 3), replace=False)
        keep.update((int(c), pj) for c in [pj % num_cameras, *extra])
    observations = [
        Observation(o.camera_index, o.point_index, o.pixel.copy())
        for o in full.observations
        if (o.camera_index, o.point_index) in keep
    ]
    return BAProblem(full.cameras, full.points, observations, pixel_sigma=full.pixel_sigma)


def with_distortion(problem, k1, k2):
    """``problem`` with every camera's radial distortion set to (k1, k2)."""
    cameras = problem.camera_blocks.copy()
    cameras[:, 7] = k1
    cameras[:, 8] = k2
    return BAProblem.from_arrays(
        cameras, problem.point_blocks, problem.cam_idx, problem.pt_idx, problem.pixels,
        problem.pixel_sigma,
    )


def few_view_problem(num_cameras=12, num_points=80, seed=4):
    """A suite-like scene where each point keeps 2-5 of its views, as in BAL.

    Point j keeps camera j mod num_cameras, so every camera stays observed,
    plus 1-4 other cameras drawn at random.
    """
    full = generate_synthetic(
        num_cameras, num_points, pixel_sigma=250.0, noise_std=0.5, seed=seed
    )
    rng = np.random.default_rng(seed)
    keep = np.zeros((num_cameras, num_points), dtype=bool)
    for pj in range(num_points):
        others = [c for c in range(num_cameras) if c != pj % num_cameras]
        extra = rng.choice(others, size=rng.integers(1, 5), replace=False)
        keep[[pj % num_cameras, *extra], pj] = True
    mask = keep[full.cam_idx, full.pt_idx]
    return BAProblem.from_arrays(
        full.camera_blocks, full.point_blocks, full.cam_idx[mask], full.pt_idx[mask],
        full.pixels[mask], full.pixel_sigma,
    )


def relative_gap(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------


class TestResiduals:
    def test_observed_minus_predicted_frozen(self):
        problem = generate_synthetic(
            2, 2, seed=0, noise_std=0.0, init_noise=0.0, rotation_noise=0.0
        )
        params = ParamVector.from_problem(problem)
        res = residuals(problem, params)
        np.testing.assert_array_equal(res, 0.0)
        # shift one observation and the residual is exactly that shift
        problem.pixels[0] += [3.0, -4.0]
        res = residuals(problem, params)
        np.testing.assert_allclose(res[0], [3.0, -4.0], atol=1e-12)

    def test_degenerate_depth_is_a_failure(self, tiny_problem):
        params = ParamVector.from_problem(tiny_problem)
        params.points[:] = 0.0
        params.cameras[:, 3:6] = 0.0
        indices = []
        for evaluate in (initial_error, linearize):
            with pytest.raises(NumericalFailureError, match="depth") as failure:
                evaluate(tiny_problem, params)
            indices.append(failure.value.observation_index)
        assert indices == [0, 0]

    def test_non_finite_residual_is_a_failure(self, tiny_problem):
        params = ParamVector.from_problem(tiny_problem)
        params.cameras[2, 6] = float("nan")
        first = [o.camera_index for o in tiny_problem.observations].index(2)
        with pytest.raises(NumericalFailureError, match="non-finite") as failure:
            linearize(tiny_problem, params)
        assert failure.value.observation_index == first
        # A problem holds no NaN block, so the initial state meets a NaN
        # residual only through its pixels, which stay writable.
        with pytest.raises(ValueError, match="camera block 2 is not finite"):
            initial_error(tiny_problem, params)
        problem = BAProblem.from_arrays(
            tiny_problem.camera_blocks, tiny_problem.point_blocks, tiny_problem.cam_idx,
            tiny_problem.pt_idx, tiny_problem.pixels.copy(), tiny_problem.pixel_sigma,
        )
        problem.pixels[first, 0] = float("nan")
        with pytest.raises(NumericalFailureError, match="non-finite") as failure:
            SolverState.initial(problem)
        assert failure.value.observation_index == first

    def test_estimation_error_frozen(self):
        res = np.array([[3.0, 4.0]])
        assert estimation_error(res, 1.0) == 25.0
        assert estimation_error(res, 2.0) == 6.25

    def test_estimation_error_matches_loop(self, default_problem):
        params = ParamVector.from_problem(default_problem)
        res = residuals(default_problem, params)
        fast = estimation_error(res, default_problem.pixel_sigma)
        slow = loop_error(default_problem, params)
        assert abs(fast - slow) / slow < 1e-12

    def test_weighted_error_matches_loop(self):
        problem = suite_problem(3, num_cameras=4, num_points=8)
        params = ParamVector.from_problem(problem)
        fast = estimation_error(residuals(problem, params), problem.pixel_sigma)
        slow = loop_error(problem, params)
        assert abs(fast - slow) / slow < 1e-12


class TestJacobian:
    def test_matches_finite_differences(self):
        for seed in (0, 1):
            problem = generate_synthetic(4, 6, seed=seed)
            params = ParamVector.from_problem(problem)
            lin = linearize(problem, params)
            analytic = scatter_jacobian(lin)
            numeric = fd_jacobian(problem, params)
            assert relative_gap(analytic, numeric) < 1e-5

    def test_matches_finite_differences_with_distortion_scale(self):
        # the generator writes k1 = k2 = 0, so set nonzero coefficients by
        # hand; cover the focal=1 regime of the elimination tests and the
        # suite's focal 500
        for focal in (1.0, 500.0):
            problem = with_distortion(
                generate_synthetic(4, 6, seed=2, focal=focal, noise_std=0.01), 0.05, -0.01
            )
            params = ParamVector.from_problem(problem)
            lin = linearize(problem, params)
            assert relative_gap(scatter_jacobian(lin), fd_jacobian(problem, params)) < 1e-5

    def test_zero_rotation_linearizes_without_warnings(self):
        # The series branch covers t = 0; the unused closed form must not
        # divide by zero there.
        problem = generate_synthetic(4, 6, seed=1)
        params = ParamVector.from_problem(problem)
        params.cameras[0, :3] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lin = linearize(problem, params)
        assert relative_gap(scatter_jacobian(lin), fd_jacobian(problem, params)) < 1e-5

    def test_block_assembly_matches_loops(self, tiny_problem):
        params = ParamVector.from_problem(tiny_problem)
        lin = linearize(tiny_problem, params)
        ref = assemble_blocks(
            lin.cam_idx,
            lin.pt_idx,
            lin.residual,
            lin.jac_cam,
            lin.jac_pt,
            lin.num_cameras,
            lin.num_points,
            tiny_problem.pixel_sigma,
        )
        assert np.array_equal(lin.residual, residuals(tiny_problem, params))
        np.testing.assert_allclose(lin.grad_cam, ref.grad_cam, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(lin.grad_pt, ref.grad_pt, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(lin.h_cc, ref.h_cc, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(lin.h_pp, ref.h_pp, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(lin.h_cp, ref.h_cp, rtol=1e-12, atol=1e-15)

    def test_gradient_is_half_error_slope(self, tiny_problem):
        # d(error)/d(theta) = 2 J^T W r, so the assembled gradient is half of
        # a finite-difference slope of the estimation error
        params = ParamVector.from_problem(tiny_problem)
        lin = linearize(tiny_problem, params)
        _, grad = dense_system(lin)
        base = flat(params)
        h = 1e-6
        rng = np.random.default_rng(0)
        for k in rng.choice(base.size, size=8, replace=False):
            plus = base.copy()
            plus[k] += h
            minus = base.copy()
            minus[k] -= h
            slope = (
                loop_error(tiny_problem, unflatten(tiny_problem, plus))
                - loop_error(tiny_problem, unflatten(tiny_problem, minus))
            ) / (2.0 * h)
            assert abs(2.0 * grad[k] - slope) / max(abs(slope), 1.0) < 1e-4

    def test_translation_gauge_invariance(self, default_problem):
        # moving all points by a constant and compensating each camera's
        # translation leaves every projection unchanged
        params = ParamVector.from_problem(default_problem)
        base = estimation_error(residuals(default_problem, params), default_problem.pixel_sigma)
        delta = np.array([0.3, -0.2, 0.5])
        shifted = ParamVector(params.cameras.copy(), params.points.copy())
        shifted.points += delta
        shifted.cameras[:, 3:6] -= rotate_points(shifted.cameras[:, 0:3], delta)
        after = estimation_error(residuals(default_problem, shifted), default_problem.pixel_sigma)
        assert abs(after - base) / base < 1e-9


class TestDenseSystem:
    def test_matches_explicit_normal_equations(self, tiny_problem):
        params = ParamVector.from_problem(tiny_problem)
        lin = linearize(tiny_problem, params)
        hess, grad = dense_system(lin)
        jac = scatter_jacobian(lin)
        w = 1.0 / tiny_problem.pixel_sigma**2
        ref_h = w * jac.T @ jac
        ref_g = w * jac.T @ lin.residual.ravel()
        scale = np.max(np.abs(ref_h))
        np.testing.assert_allclose(hess, ref_h, atol=1e-12 * scale)
        np.testing.assert_allclose(grad, ref_g, atol=1e-12 * max(np.max(np.abs(ref_g)), 1.0))

    def test_damping_is_added_unscaled_to_the_weighted_hessian(self):
        # with H = J^T W J and g = J^T W r at W = I / sigma^2, the step solves
        # (H + lambda I) delta = -g: lambda carries no (sigma/f)^2 factor
        problem = suite_problem(2, num_cameras=4, num_points=8)
        lin = linearize(problem, ParamVector.from_problem(problem))
        jac = scatter_jacobian(lin)
        w = 1.0 / problem.pixel_sigma**2
        hess = w * jac.T @ jac
        grad = w * jac.T @ lin.residual.ravel()
        for lam in (1e-2, 1.0, 1e2):
            dc, dp = dense_step(lin, lam)
            step = np.concatenate([dc.ravel(), dp.ravel()])
            expected = np.linalg.solve(hess + lam * np.eye(len(hess)), -grad)
            assert np.linalg.norm(step - expected) / np.linalg.norm(expected) < 1e-8

    def test_symmetry(self, default_problem):
        lin = linearize(default_problem, ParamVector.from_problem(default_problem))
        hess, _ = dense_system(lin)
        np.testing.assert_allclose(hess, hess.T, atol=1e-10 * np.max(np.abs(hess)))


class TestDampedStep:
    def test_small_damping_recovers_newton_step(self):
        lin = random_linearization(seed=0)
        hess, grad = dense_system(lin)
        exact = np.linalg.solve(hess, -grad)
        for step_of in (dense_step, damped_step):
            dc, dp = step_of(lin, 1e-12)
            step = np.concatenate([dc.ravel(), dp.ravel()])
            assert np.linalg.norm(step - exact) / np.linalg.norm(exact) < 1e-6

    def test_large_damping_follows_negative_gradient(self):
        lin = random_linearization(seed=1)
        _, grad = dense_system(lin)
        for step_of in (dense_step, damped_step):
            dc, dp = step_of(lin, 1e8)
            step = np.concatenate([dc.ravel(), dp.ravel()])
            cos = -(step @ grad) / (np.linalg.norm(step) * np.linalg.norm(grad))
            assert cos > 1.0 - 1e-6

    def test_large_damping_scales_inversely(self):
        lin = random_linearization(seed=2)
        _, grad = dense_system(lin)
        dc, dp = damped_step(lin, 1e8)
        step = np.concatenate([dc.ravel(), dp.ravel()])
        np.testing.assert_allclose(step, -grad / 1e8, rtol=1e-4)

    @pytest.mark.parametrize("lam", [1e-6, 1e-2, 1.0, 1e2])
    def test_schur_matches_dense_on_scenes(self, lam):
        for seed in (0, 1):
            problem = generate_synthetic(6, 40, seed=seed, focal=1.0, noise_std=0.01)
            lin = linearize(problem, ParamVector.from_problem(problem))
            dc_d, dp_d = dense_step(lin, lam)
            dc_s, dp_s = damped_step(lin, lam)
            dense_delta = np.concatenate([dc_d.ravel(), dp_d.ravel()])
            schur_delta = np.concatenate([dc_s.ravel(), dp_s.ravel()])
            gap = np.linalg.norm(schur_delta - dense_delta) / np.linalg.norm(dense_delta)
            assert gap < 1e-8

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e4, 1e8])
    def test_schur_matches_dense_under_partial_visibility(self, lam):
        # lambda = 1e-12 is left out: a one-view point's depth is then
        # unobservable and neither path determines its step
        problem = thinned_problem()
        views = np.bincount([o.point_index for o in problem.observations])
        assert views.min() == 1 and views.max() == 3
        lin = linearize(problem, ParamVector.from_problem(problem))
        dc_d, dp_d = dense_step(lin, lam)
        dc_s, dp_s = damped_step(lin, lam)
        dense_delta = np.concatenate([dc_d.ravel(), dp_d.ravel()])
        schur_delta = np.concatenate([dc_s.ravel(), dp_s.ravel()])
        gap = np.linalg.norm(schur_delta - dense_delta) / np.linalg.norm(dense_delta)
        assert gap < 1e-8

    def test_pair_plan_built_once_per_index_set(self, suite_problem_0, monkeypatch):
        calls = {"n": 0}
        original = solver._camera_pairs

        def counted(*args):
            calls["n"] += 1
            return original(*args)

        solver._cached_pair_plan.cache_clear()
        monkeypatch.setattr(solver, "_camera_pairs", counted)
        result = solve(suite_problem_0, ClassicPolicy(), deterministic_time=True)
        assert result.iterations > 1
        zero_net_oracle(suite_problem_0, SolverState.initial(suite_problem_0))
        assert calls["n"] == 1

        # other indices get a plan of their own, not the cached one
        problem = thinned_problem()
        assert solve(problem, ClassicPolicy(), max_iterations=5).outcome != "numerical-failure"
        assert calls["n"] == 2
        lin = linearize(problem, ParamVector.from_problem(problem))
        dc_d, dp_d = dense_step(lin, 1e-3)
        dc_s, dp_s = damped_step(lin, 1e-3)
        dense_delta = np.concatenate([dc_d.ravel(), dp_d.ravel()])
        schur_delta = np.concatenate([dc_s.ravel(), dp_s.ravel()])
        assert np.linalg.norm(schur_delta - dense_delta) / np.linalg.norm(dense_delta) < 1e-8
        assert calls["n"] == 2

    @pytest.mark.parametrize("chunk", [solver.PAIR_CHUNK, 64])
    @pytest.mark.parametrize("make_problem", [few_view_problem, thinned_problem])
    def test_pair_plan_splits_at_the_block_diagonal(self, make_problem, chunk, monkeypatch):
        problem = make_problem()
        cam_idx, pt_idx, nc = problem.cam_idx, problem.pt_idx, problem.num_cameras
        solver._cached_pair_plan.cache_clear()
        monkeypatch.setattr(solver, "PAIR_CHUNK", chunk)
        plan = solver._pair_plan(cam_idx, pt_idx, nc)
        solver._cached_pair_plan.cache_clear()
        first, second, block_of, _ = solver._camera_pairs(cam_idx, pt_idx, nc)

        def segments(chunks):
            for chunk_first, chunk_second, starts, blocks in chunks:
                assert 0 < len(chunk_first) <= chunk
                ends = np.append(starts[1:], len(chunk_first))
                for lo, hi, block in zip(starts, ends, blocks):
                    assert lo < hi
                    yield block, chunk_first[lo:hi], chunk_second[lo:hi]

        lower = list(segments(plan.lower))
        lower_first = np.concatenate([f for _, f, _ in lower])
        lower_second = np.concatenate([s for _, _, s in lower])
        assert np.all(cam_idx[lower_first] >= cam_idx[lower_second])
        n, pairs = problem.num_observations, len(first)
        assert len(lower_first) == n + (pairs - n) // 2
        for block, f, s in lower:
            assert np.all(cam_idx[f] * nc + cam_idx[s] == block)

        # The segments are the lower pairs in _camera_pairs' order, and each
        # one is a run of that order that lies within one chunk of it and
        # starts at a block change or a chunk edge.
        on_lower = block_of // nc >= block_of % nc
        np.testing.assert_array_equal(lower_first, first[on_lower])
        np.testing.assert_array_equal(lower_second, second[on_lower])
        position = np.flatnonzero(on_lower)
        lengths = np.array([len(f) for _, f, _ in lower])
        ends = np.cumsum(lengths)
        starts, lasts = position[ends - lengths], position[ends - 1]
        np.testing.assert_array_equal(lasts - starts, lengths - 1)
        assert np.all(starts // chunk == lasts // chunk)
        cut = np.flatnonzero(np.diff(block_of)) + 1
        edges = np.arange(chunk, pairs, chunk)
        boundaries = np.union1d(np.union1d(cut, edges), [0])
        np.testing.assert_array_equal(starts, boundaries[on_lower[boundaries]])

    def test_gauge_step_solves_the_full_matrix_when_cholesky_fails(self, monkeypatch):
        # At lambda = 1e-15 a one-view point's depth is unobservable and the
        # reduced system is not positive definite. The failed factorization
        # overwrote the matrix in place, so the fallback rebuilds it in the
        # workspace and solves the lower triangle that the factorization was
        # given, mirrored: the upper blocks are never assembled.
        problem = thinned_problem()
        lin = linearize(problem, ParamVector.from_problem(problem))
        workspace = solver._pair_plan(lin.cam_idx, lin.pt_idx, lin.num_cameras).workspace
        factored, solved = [], []
        dpotrf, lstsq = solver.dpotrf, np.linalg.lstsq

        def factor_spy(matrix, **kwargs):
            factored.append((matrix.copy(), np.shares_memory(matrix, workspace.buffer)))
            return dpotrf(matrix, **kwargs)

        def lstsq_spy(matrix, rhs, **kwargs):
            solved.append(matrix.copy())
            return lstsq(matrix, rhs, **kwargs)

        monkeypatch.setattr(solver, "dpotrf", factor_spy)
        monkeypatch.setattr(np.linalg, "lstsq", lstsq_spy)
        for warm in (False, True):  # the first call sizes the workspace
            factored.clear()
            solved.clear()
            damped_step(lin, 1e-15)
            assert len(factored) == 1 and len(solved) == 1
            (given, in_place), matrix = factored[0], solved[0]
            assert in_place or not warm
            assert matrix.shape == (9 * problem.num_cameras,) * 2
            lower = np.tril(given)
            assert matrix.tobytes() == (lower + np.tril(lower, -1).T).tobytes()

    def test_fallback_matrix_is_symmetric(self, monkeypatch):
        # The reduced system's two triangles differ by rounding that a
        # one-view point's near-singular V^-1 amplifies: max |S - S^T| is
        # 1.1e-3 of max |S| when both are assembled.
        problem = thinned_problem()
        lin = linearize(problem, ParamVector.from_problem(problem))
        solved, lstsq = [], np.linalg.lstsq

        def lstsq_spy(matrix, rhs, **kwargs):
            solved.append(matrix.copy())
            return lstsq(matrix, rhs, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", lstsq_spy)
        damped_step(lin, 1e-15)
        (matrix,) = solved
        assert np.count_nonzero(np.triu(matrix, 1)) > 0
        np.testing.assert_array_equal(matrix, matrix.T)

    def test_fallback_steps_converge_at_unit_pixel_sigma(self, monkeypatch):
        # At pixel sigma 1, balm solve's default, lambda = 1e-12 steps take
        # the least-squares fallback. Solving both assembled triangles took 8
        # iterations here.
        fallbacks, lstsq = [], np.linalg.lstsq

        def counted_lstsq(*args, **kwargs):
            fallbacks.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        problem = generate_synthetic(10, 10, pixel_sigma=1.0, noise_std=0.5, seed=100)
        result = solve(problem, FixedPolicy(1e-12), deterministic_time=True)
        assert result.converged and result.iterations <= 6
        assert len(fallbacks) >= result.iterations // 2

    @pytest.mark.parametrize("shared", [True, False])
    def test_scratch_buffers_do_not_alias(self, shared):
        problem = few_view_problem()
        if shared:
            result = solve(problem, ClassicPolicy(), max_iterations=2, deterministic_time=True)
            other = (problem, result.params)
        else:
            other = (suite_problem(100), ParamVector.from_problem(suite_problem(100)))
        lins = [linearize(problem, ParamVector.from_problem(problem)), linearize(*other)]

        def fresh(lin):
            solver._cached_pair_plan.cache_clear()
            return [a.tobytes() for a in damped_step(lin, 1e-3)]

        expected = [fresh(lin) for lin in lins]
        solver._cached_pair_plan.cache_clear()
        results = [(i, damped_step(lins[i], 1e-3)) for i in (0, 1, 0)]
        for lin in lins:
            plan = solver._pair_plan(lin.cam_idx, lin.pt_idx, lin.num_cameras)
            for _, step in results:
                assert not any(np.shares_memory(delta, plan.workspace.buffer) for delta in step)
        for i, step in results:
            assert [a.tobytes() for a in step] == expected[i]

    def test_interleaved_calls_on_one_plan_leak_no_state(self):
        # Every suite scene has the same index set, so linearize and
        # damped_step on two of them share one workspace.
        problems = [suite_problem(100), suite_problem(101)]
        params = [ParamVector.from_problem(problem) for problem in problems]
        plans = {id(solver._pair_plan(p.cam_idx, p.pt_idx, p.num_cameras)) for p in problems}
        assert len(plans) == 1

        def lin_bytes(lin):
            return [getattr(lin, name).tobytes() for name in LIN_FIELDS]

        alone_lin, alone_step, lins = {}, {}, {}
        for i in (0, 1):
            solver._cached_pair_plan.cache_clear()
            lins[i] = linearize(problems[i], params[i])
            alone_lin[i] = lin_bytes(lins[i])
            for lam in GOLDEN_LAMBDAS:
                solver._cached_pair_plan.cache_clear()
                alone_step[i, lam] = [a.tobytes() for a in damped_step(lins[i], lam)]

        solver._cached_pair_plan.cache_clear()
        plan = solver._pair_plan(problems[0].cam_idx, problems[0].pt_idx, 10)
        calls = 0
        for lam in GOLDEN_LAMBDAS + GOLDEN_LAMBDAS[::-1]:
            for i in (0, 1, 0):
                step = damped_step(lins[1 - i], lam)
                assert [a.tobytes() for a in step] == alone_step[1 - i, lam]
                lin = linearize(problems[i], params[i])
                assert lin_bytes(lin) == alone_lin[i]
                arrays = [getattr(lin, name) for name in LIN_FIELDS] + list(step)
                assert not any(np.shares_memory(a, plan.workspace.buffer) for a in arrays)
                calls += 1
        assert plan.workspace.buffer.size > 0 and calls == 18

    def test_warm_calls_allocate_little(self):
        # 1,371 observations; counted in bytes, which do not depend on the host.
        problem = few_view_problem(40, 400, 4)
        params = ParamVector.from_problem(problem)
        for _ in range(2):
            damped_step(linearize(problem, params), 1e-3)
        tracemalloc.start()
        try:
            lin = linearize(problem, params)
            _, lin_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            damped_step(lin, 1e-3)
            _, step_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(getattr(lin, name).nbytes for name in LIN_FIELDS)
        assert returned > 600 * 1024
        assert lin_peak <= 900 * 1024  # the returned arrays, plus slack
        assert step_peak - held <= 900 * 1024
        # The workspace is as large as the Schur step's largest phase needs:
        # E and H_cp^T, the reduced system, and one chunk's gathers, products
        # and sums.
        plan = solver._pair_plan(problem.cam_idx, problem.pt_idx, problem.num_cameras)
        chunk = max(len(c[0]) for c in plan.lower)
        n, nc = problem.num_observations, problem.num_cameras
        assert plan.workspace.buffer.size <= 54 * n + 81 * nc * nc + 216 * chunk

    # The dense dispatch below five cameras is gone; the two tests keep their
    # names so that test ids do not move. On either side of the old limit the
    # step factors the reduced camera system, once.
    @staticmethod
    def _default_step_is_the_schur_step(problem, monkeypatch):
        lin = linearize(problem, ParamVector.from_problem(problem))
        factored, dpotrf = [], solver.dpotrf

        def factor_spy(matrix, **kwargs):
            factored.append(matrix.shape)
            return dpotrf(matrix, **kwargs)

        monkeypatch.setattr(solver, "dpotrf", factor_spy)
        damped_step(lin, 0.1)
        assert factored == [(9 * problem.num_cameras,) * 2]

    def test_auto_uses_dense_below_camera_limit(self, tiny_problem, monkeypatch):
        assert tiny_problem.num_cameras == 4
        self._default_step_is_the_schur_step(tiny_problem, monkeypatch)

    def test_auto_uses_schur_at_camera_limit(self, default_problem, monkeypatch):
        assert default_problem.num_cameras >= 5
        self._default_step_is_the_schur_step(default_problem, monkeypatch)

    def test_rejects_bad_damping(self):
        lin = random_linearization(seed=3, nc=2, npts=4)
        with pytest.raises(ValueError):
            damped_step(lin, -1.0)
        with pytest.raises(ValueError):
            damped_step(lin, float("inf"))

    def test_out_of_range_point_index_raises(self):
        lin = random_linearization(seed=3, nc=5, npts=4)
        bad = dataclasses.replace(lin, pt_idx=np.where(lin.pt_idx == 3, 4, lin.pt_idx))
        with pytest.raises(IndexError):
            damped_step(bad, 0.1)

    def test_non_finite_system_raises_singular(self):
        lin = random_linearization(seed=4, nc=2, npts=4)
        lin.h_cc[0, 0, 0] = float("nan")
        lin.grad_cam[0, 0] = float("nan")
        with pytest.raises(SingularSystemError):
            damped_step(lin, 0.1)

    def test_spd_solve_is_cholesky_with_lstsq_fallback(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(12, 12))
        spd, rhs = a @ a.T + np.eye(12), rng.normal(size=12)
        factor = scipy.linalg.cho_factor(spd, lower=True)
        expected = scipy.linalg.cho_solve(factor, rhs)
        assert solver._solve_spd(spd.copy(), rhs, spd.copy).tobytes() == expected.tobytes()
        semidefinite = np.diag([2.0, 1.0, 0.0])  # zero pivot: Cholesky fails
        expected, *_ = np.linalg.lstsq(semidefinite, rhs[:3], rcond=None)
        solution = solver._solve_spd(semidefinite.copy(), rhs[:3], semidefinite.copy)
        np.testing.assert_array_equal(solution, expected)

    def test_spd_solve_reads_only_the_lower_triangle(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(90, 90))
        spd, rhs = a @ a.T + np.eye(90), rng.normal(size=90)
        lower = spd.copy()
        lower[np.triu_indices(90, 1)] = np.nan
        expected = solver._solve_spd(spd.copy(), rhs, spd.copy).tobytes()
        unused = lambda: pytest.fail("rebuild")  # noqa: E731
        assert solver._solve_spd(lower, rhs, rebuild=unused).tobytes() == expected
        # the fallback solves the lower triangle that ``rebuild`` returns, mirrored
        semidefinite = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        lower = semidefinite.copy()
        lower[np.triu_indices(3, 1)] = np.nan
        expected, *_ = np.linalg.lstsq(semidefinite, rhs[:3], rcond=None)
        solution = solver._solve_spd(lower.copy(), rhs[:3], rebuild=lower.copy)
        np.testing.assert_array_equal(solution, expected)


LIGHT_IMPORT = """
import sys
import balm
from balm.bench import suite_scene

balm.solve(suite_scene(100), balm.ClassicPolicy(), deterministic_time=True)
loaded = sorted(m for m in sys.modules if m == "scipy.linalg" or m.startswith("scipy.spatial"))
assert not loaded, loaded
flapack = sys.modules["scipy.linalg._flapack"]
import scipy.linalg.lapack

assert scipy.linalg.lapack._flapack is flapack
assert balm.solver.dpotrf is scipy.linalg.lapack.dpotrf
assert balm.solver.dpotrs is scipy.linalg.lapack.dpotrs
"""
SCIPY_FIRST = """
import scipy.linalg.lapack
import balm

assert balm.solver.dpotrf is scipy.linalg.lapack.dpotrf
assert balm.solver.dpotrs is scipy.linalg.lapack.dpotrs
"""


class TestLapackSource:
    """``dpotrf``/``dpotrs`` are scipy's own, loaded without ``scipy.linalg``."""

    @pytest.mark.parametrize("code", [LIGHT_IMPORT, SCIPY_FIRST], ids=["balm-first", "scipy-first"])
    def test_fresh_interpreter(self, code):
        env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr

    def test_missing_extension_raises_import_error(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        fake_scipy = importlib.machinery.ModuleSpec("scipy", None, origin=str(tmp_path / "x.py"))
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake_scipy)
        with pytest.raises(ImportError, match="_flapack"):
            solver._flapack()
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="_flapack"):
            solver._flapack()


TESTS_DIR = Path(__file__).resolve().parent
LIN_FIELDS = ("residual", "jac_cam", "jac_pt", "grad_cam", "grad_pt", "h_cc", "h_pp", "h_cp")
GOLDEN_LAMBDAS = (1e-15, 1e-3, 1e4)
GOLDEN_SCENES = {
    "suite-100": lambda: suite_problem(100),
    "thinned": thinned_problem,
    "suite-100-distorted": lambda: with_distortion(
        suite_problem(100), *np.random.default_rng(100).uniform(-0.05, 0.05, size=(2, 10))
    ),
    "few-view": few_view_problem,
    # 1,371 observations: 3,281 lower pairs in 6 chunks of the Schur assembly
    "few-view-40x400": lambda: few_view_problem(40, 400, 4),
}
# sha256 of the LM layer's outputs (see lm_layer_digest) on each scene, from
# the initial state and after 3 classic iterations, with one BLAS thread.
GOLDEN_LM_DIGESTS = {
    "suite-100/0": "59c4d59c2b94e8c2e42b40eaa8715d196f31885f6d85994973b33ea5d2788760",
    "suite-100/3": "c909b4fe724416dbf64e98b6e6503778e471b5e055060cacecbd0b1035474a2a",
    "thinned/0": "b81d44a8bceb646d67193436e7171959574a8e0e803afa5b675fc45b9055fba4",
    "thinned/3": "f3d78d18c33f8cffdd7478b3dfd1a16e9ba999ac9a5f0576fbe7fa0e24cca185",
    "suite-100-distorted/0": "156520dd7425c2bf1769cec0513a26b2d6af15538fdcf621a316f021f978cd88",
    "suite-100-distorted/3": "a8f41146054ce30e239097c79cf0c23e767bd63dd55332f0d8dead0ddab79a30",
    "few-view/0": "eb995f69db831324f67d9aadfc63401a2e0d31308d6b6347a91e47a82841dfb5",
    "few-view/3": "79c0a8addb32420a721f613437bb4d2df9178fce3170955c690ce6cee7f906fb",
    "few-view-40x400/0": "64ddedce94395204536ee0ee8e8c5afd86c91f45fc84d4d05b23a5e28c1660b7",
    "few-view-40x400/3": "2a7fec316321e1ba78431624ed96f7e0847fbb04820e6c8bd3281a7bc132ff5e",
}


def dense_evaluate(problem, params, lin, lams):
    """``evaluate_steps`` with ``dense_step`` in place of the Schur step, which
    raises its own failure."""
    outcomes = []
    for lam in lams:
        delta_cam, delta_pt = dense_step(lin, lam)
        (outcome,), _ = solver._candidate_errors(
            problem, params, delta_cam[None], delta_pt[None], [None]
        )
        outcomes.append(outcome)
    return outcomes


def lm_layer_digest(problem, params) -> str:
    """sha256 over every ``linearize`` field, the residuals, and, at each golden
    lambda, the schur and dense steps with their candidates and errors."""
    digest = hashlib.sha256()
    lin = linearize(problem, params)
    for name in LIN_FIELDS:
        digest.update(name.encode() + getattr(lin, name).tobytes())
    digest.update(residuals(problem, params).tobytes())
    for lam in GOLDEN_LAMBDAS:
        for step_of, evaluate in ((damped_step, evaluate_steps), (dense_step, dense_evaluate)):
            try:
                delta_cam, delta_pt = step_of(lin, lam)
            except (NumericalFailureError, SingularSystemError) as exc:
                digest.update(type(exc).__name__.encode())
                continue
            (outcome,) = evaluate(problem, params, lin, [lam])
            if isinstance(outcome, Exception):
                digest.update(type(outcome).__name__.encode())
                continue
            candidate, err = outcome
            digest.update(delta_cam.tobytes() + delta_pt.tobytes())
            digest.update(flat(candidate).tobytes() + np.float64(err).tobytes())
    return digest.hexdigest()


def golden_lm_digests() -> dict:
    """``lm_layer_digest`` of every golden case."""
    digests = {}
    for case in GOLDEN_LM_DIGESTS:
        scene, iterations = case.split("/")
        problem = GOLDEN_SCENES[scene]()
        params = ParamVector.from_problem(problem)
        if int(iterations):
            result = solve(
                problem, ClassicPolicy(), max_iterations=int(iterations), deterministic_time=True
            )
            assert result.iterations == int(iterations)
            params = result.params
        digests[case] = lm_layer_digest(problem, params)
    return digests


@pytest.fixture(scope="module")
def lm_layer_digests():
    """The golden cases' digests from a child process with one BLAS thread.

    OpenBLAS splits the Cholesky of a larger dense system across threads,
    which moves the dense step's last bits with the thread count.
    """
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join((str(Path(solver.__file__).parents[1]), str(TESTS_DIR))),
    )
    code = "import json, test_solver; print(json.dumps(test_solver.golden_lm_digests()))"
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=TESTS_DIR, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


class TestLmLayerBits:
    @pytest.mark.parametrize("case", sorted(GOLDEN_LM_DIGESTS))
    def test_outputs_are_byte_stable(self, case, lm_layer_digests):
        assert lm_layer_digests[case] == GOLDEN_LM_DIGESTS[case]

    @pytest.mark.parametrize("scene", ["suite-100", "few-view"])
    def test_fields_keep_their_shapes_and_any_layout_gives_the_same_step(self, scene):
        problem = GOLDEN_SCENES[scene]()
        lin = linearize(problem, ParamVector.from_problem(problem))
        n, nc, npts = problem.num_observations, problem.num_cameras, problem.num_points
        shapes = {
            "residual": (n, 2), "jac_cam": (n, 2, 9), "jac_pt": (n, 2, 3),
            "grad_cam": (nc, 9), "grad_pt": (npts, 3), "h_cc": (nc, 9, 9),
            "h_pp": (npts, 3, 3), "h_cp": (n, 9, 3),
        }
        assert {name: getattr(lin, name).shape for name in LIN_FIELDS} == shapes
        assert lin.cam_idx is problem.cam_idx
        assert lin.pt_idx is problem.pt_idx
        # a deep row-major copy of every field, as a hand-built Linearization has
        copied = dataclasses.replace(
            lin, **{name: np.array(getattr(lin, name), order="C") for name in LIN_FIELDS}
        )
        for field in LIN_FIELDS:
            assert getattr(copied, field).flags.c_contiguous
        for a, b in zip(dense_system(lin), dense_system(copied)):
            assert a.tobytes() == b.tobytes()
        for lam in GOLDEN_LAMBDAS:
            for step_of in (damped_step, dense_step):
                for a, b in zip(step_of(lin, lam), step_of(copied, lam)):
                    assert a.tobytes() == b.tobytes()


# The golden scenes, plus the tests' 4-camera scene.
BATCH_SCENES = {**GOLDEN_SCENES, "tiny-dense": lambda: generate_synthetic(4, 6, seed=1)}
BATCH_LAMBDAS = tuple(sorted(set(GOLDEN_LAMBDAS) | set(DEFAULT_ORACLE_GRID)))


def outcome_bytes(outcome):
    """A candidate's parameters and error as bytes, or a failure's type."""
    if isinstance(outcome, Exception):
        return type(outcome)
    candidate, err = outcome
    return candidate.cameras.tobytes(), candidate.points.tobytes(), np.float64(err).tobytes()


def each_alone(problem, params, lin, lams):
    """Per damping: (step bytes, outcome bytes) of damped_step and evaluate_steps alone."""
    results = []
    for lam in lams:
        try:
            step = [a.tobytes() for a in damped_step(lin, lam)]
        except (NumericalFailureError, SingularSystemError) as exc:
            results.append((None, type(exc)))
            continue
        results.append((step, outcome_bytes(evaluate_steps(problem, params, lin, [lam])[0])))
    return results


class TestEvaluateSteps:
    @pytest.mark.parametrize("iterations", [0, 3])
    @pytest.mark.parametrize("scene", sorted(BATCH_SCENES))
    def test_batch_is_each_damping_alone_to_the_bit(self, scene, iterations, monkeypatch):
        problem = BATCH_SCENES[scene]()
        params = ParamVector.from_problem(problem)
        if iterations:
            params = solve(
                problem, ClassicPolicy(), max_iterations=iterations, deterministic_time=True
            ).params
        lin = linearize(problem, params)
        expected = each_alone(problem, params, lin, BATCH_LAMBDAS)
        fallbacks = []
        lstsq = np.linalg.lstsq

        def counted_lstsq(*args, **kwargs):
            fallbacks.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        delta_cam, delta_pt, failures = solver._damped_steps(lin, BATCH_LAMBDAS)
        batch = evaluate_steps(problem, params, lin, BATCH_LAMBDAS)
        for k, (step, outcome) in enumerate(expected):
            assert outcome_bytes(batch[k]) == outcome
            if step is None:
                continue
            assert failures[k] is None
            assert [delta_cam[k].tobytes(), delta_pt[k].tobytes()] == step
        if scene == "thinned" and not iterations:
            # 1e-16, 1e-15 and 1e-12 take the least-squares fallback, in both calls
            assert len(fallbacks) == 6

    def test_failures_stay_with_their_own_damping(self):
        # Point 0 keeps only camera 0's view, and camera 0 has zero focal
        # length, so point 0's block of H is exactly zero: its inversion fails
        # at lambda = 0 and succeeds at every positive damping.
        full = suite_problem(100)
        keep = (full.pt_idx != 0) | (full.cam_idx == 0)
        cameras = full.camera_blocks.copy()
        cameras[0, 6] = 0.0
        problem = BAProblem.from_arrays(
            cameras, full.point_blocks, full.cam_idx[keep], full.pt_idx[keep],
            full.pixels[keep], full.pixel_sigma,
        )
        state = SolverState.initial(problem)
        lin = linearize(problem, state.params)
        lams = (1e-4, 0.0, 1e-16, 1.0, 0.0)
        batch = evaluate_steps(problem, state.params, lin, lams)
        failed = [isinstance(outcome, SingularSystemError) for outcome in batch]
        assert failed == [False, True, False, False, True]
        alone = each_alone(problem, state.params, lin, lams)
        assert [outcome_bytes(outcome) for outcome in batch] == [o for _, o in alone]
        # the oracle skips the failed candidate and keeps the best of the rest
        errors = {lam: batch[k][1] for k, lam in enumerate(lams) if lam > 0}
        assert zero_net_oracle(problem, state, lams) == min(errors, key=errors.get) == 1e-16

    @pytest.mark.parametrize("scene", ["tiny-dense", "suite-100"])
    def test_bad_damping_raises_and_an_empty_batch_is_empty(self, scene):
        problem = BATCH_SCENES[scene]()
        params = ParamVector.from_problem(problem)
        lin = linearize(problem, params)
        for lams in ((0.1, -1.0), (float("nan"), 0.1)):
            with pytest.raises(ValueError):
                evaluate_steps(problem, params, lin, lams)
        assert evaluate_steps(problem, params, lin, ()) == []


class TestLmIterate:
    def test_bookkeeping(self, tiny_problem):
        state = SolverState.initial(tiny_problem)
        new, rec = lm_iterate(tiny_problem, state, 0.25)
        assert new.iteration == 1
        assert len(new.error_history) == 2
        assert len(new.durations) == 1
        assert rec.iteration == 1
        assert rec.lam == 0.25
        assert rec.error == new.error_history[-1]
        assert rec.duration_s > 0.0
        assert new.error_history[-1] < state.error_history[0]
        # the input state is untouched
        assert state.iteration == 0
        assert len(state.error_history) == 1

    def test_deterministic_time(self, tiny_problem):
        state = SolverState.initial(tiny_problem)
        _, rec = lm_iterate(tiny_problem, state, 0.25, deterministic_time=True)
        assert rec.duration_s == 1.0

    def test_failure_marks_state_without_advancing(self, tiny_problem):
        params = ParamVector.from_problem(tiny_problem)
        params.points[:] = 0.0
        params.cameras[:, 3:6] = 0.0
        bad = dataclasses.replace(SolverState.initial(tiny_problem), params=params)
        new, rec = lm_iterate(tiny_problem, bad, 0.25)
        assert new.failed
        assert np.isnan(rec.error)
        assert rec.iteration == 1
        assert new.iteration == bad.iteration
        assert len(new.error_history) == len(bad.error_history)
        assert new.params is bad.params  # shared, not copied

    def test_linearize_reads_the_stored_arrays(self, tiny_problem):
        lin = linearize(tiny_problem, ParamVector.from_problem(tiny_problem))
        assert lin.cam_idx is tiny_problem.cam_idx
        assert lin.pt_idx is tiny_problem.pt_idx

    def test_solver_state_owns_its_parameters(self, tiny_problem):
        cameras = tiny_problem.camera_blocks.tobytes()
        points = tiny_problem.point_blocks.tobytes()
        state = SolverState.initial(tiny_problem)
        assert (state.params.cameras.tobytes(), state.params.points.tobytes()) == (cameras, points)
        # a state built from fresh arrays holds those, and the problem keeps its own
        params = ParamVector.from_problem(tiny_problem)
        params.cameras[:] = 0.0
        params.points[:] = 0.0
        zeroed = dataclasses.replace(state, params=params)
        assert zeroed.params is params
        assert tiny_problem.camera_blocks.tobytes() == cameras
        assert tiny_problem.point_blocks.tobytes() == points

    def test_a_states_parameters_are_read_only(self, tiny_problem):
        state = SolverState.initial(tiny_problem)
        fresh = ParamVector.from_problem(tiny_problem)
        for owner in (state, lm_iterate(tiny_problem, state, 0.25)[0], SolverState(fresh, [], [])):
            with pytest.raises(ValueError):
                owner.params.cameras[0, 0] = 1.0
            with pytest.raises(ValueError):
                owner.params.points[:] = 0.0

    def test_a_rejected_step_keeps_the_linearization(self, linearize_calls):
        problem = generate_synthetic(10, 10, seed=7)
        env = BAEnv(EnvConfig(accept_only_improving=True, deterministic_time=True))
        env.reset(problem)
        while env.solver_state.last_step_accepted:
            before = env.solver_state
            assert not env.step(1e-12).done
        assert env.solver_state.params is before.params  # shared, not copied
        made = len(linearize_calls)
        env.step(1e-12)
        assert len(linearize_calls) == made

    def test_reject_worsening_step_when_asked(self, tiny_problem):
        state = SolverState.initial(tiny_problem)
        # an undamped step on a noisy tiny scene can worsen; force many tries
        worst = None
        for lam in (1e-15, 1e-12):
            new, _ = lm_iterate(tiny_problem, state, lam, accept_only_improving=True)
            assert new.error_history[-1] <= state.error_history[-1]
            if not new.last_step_accepted:
                worst = new
        if worst is not None:
            np.testing.assert_array_equal(worst.params.cameras, state.params.cameras)


def counted_projections(monkeypatch) -> list:
    """Wrap ``scene._project_rows`` where the solver and ``project_many`` call it.

    Returns the list that gains one entry per projection.
    """
    calls = []
    project_rows = scene_module._project_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return project_rows(*args, **kwargs)

    monkeypatch.setattr(scene_module, "_project_rows", counted)
    monkeypatch.setattr(solver, "_project_rows", counted)
    return calls


class TestCarriedProjection:
    @pytest.mark.parametrize("scene", ["suite-100", "few-view-40x400", "thinned"])
    def test_carried_linearization_is_a_fresh_one_to_the_byte(self, scene, monkeypatch):
        problem = GOLDEN_SCENES[scene]()
        calls = counted_projections(monkeypatch)
        policy = ClassicPolicy()
        env = BAEnv(EnvConfig(deterministic_time=True))
        out = StepOutcome(env.reset(problem), 0.0, None)
        while not out.done:
            params = env.solver_state.params
            made = len(calls)
            carried = env.solver_state.linearization(problem)
            assert len(calls) == made  # linearized from the step's projection
            fresh = linearize(problem, ParamVector(params.cameras.copy(), params.points.copy()))
            assert len(calls) == made + 1
            for name in LIN_FIELDS:
                assert getattr(carried, name).tobytes() == getattr(fresh, name).tobytes(), name
            out = env.step(policy.next_lambda(out.observation))
        assert env.solver_state.iteration > 3

    @pytest.mark.parametrize("iterations", [1, 6])
    def test_a_solve_projects_each_state_once(self, iterations, monkeypatch):
        problem = suite_problem(100)
        calls = counted_projections(monkeypatch)
        result = solve(problem, ClassicPolicy(), max_iterations=iterations, deterministic_time=True)
        assert result.iterations == iterations
        assert len(calls) == iterations + 1

    def test_other_parameters_are_projected_again(self, monkeypatch):
        problem = suite_problem(100)
        state, _ = lm_iterate(problem, SolverState.initial(problem), 1e-3)
        params = ParamVector.from_problem(problem)
        params.points[:] = 0.0
        params.cameras[:, 3:6] = 0.0  # every depth is zero
        zeroed = dataclasses.replace(state, params=params)  # carries no projection
        calls = counted_projections(monkeypatch)
        with pytest.raises(NumericalFailureError, match="depth"):
            zeroed.linearization(problem)
        assert len(calls) == 1
        state.linearization(problem)
        assert len(calls) == 1  # the accepted step's projection

    def test_only_an_accepted_step_keeps_its_projection(self, monkeypatch):
        problem = suite_problem(100)
        state = SolverState.initial(problem)
        lin = state.linearization(problem)
        accepted, _ = lm_iterate(problem, state, 1e-3)
        outcomes = [evaluate_steps(problem, state.params, lin, [1e-3])[0]]
        outcomes += evaluate_steps(problem, state.params, lin, (1e-3, 1.0))
        calls = counted_projections(monkeypatch)
        accepted.linearization(problem)
        assert len(calls) == 0
        for candidate, err in outcomes:
            SolverState(candidate, [err], []).linearization(problem)
        assert len(calls) == 3


class TestConvergenceCheck:
    def test_frozen_cases(self):
        assert convergence_check([]) is False
        assert convergence_check([5.0]) is False
        assert convergence_check([10.0, 10.0]) is True
        assert convergence_check([10.0, 5.0]) is False
        assert convergence_check([1e-8, 1e-8 * (1.0 - 1e-7)]) is True
        assert convergence_check([1e-8, 1e-8 * (1.0 - 1e-5)]) is False
        assert convergence_check([10.0, 5.0, 5.0]) is True
        assert convergence_check([5.0, 10.0]) is False
        assert convergence_check([0.0, 0.0]) is True

    def test_threshold_argument(self):
        assert convergence_check([10.0, 9.0], threshold=0.2) is True
        assert convergence_check([10.0, 9.0], threshold=0.05) is False


def classic_lambda(lam, err_t, err_prev, mode):
    """The damping ``ClassicPolicy`` picks after ``lam`` moved the error from
    ``err_prev`` to ``err_t``."""
    obs = PolicyObservation(iteration_index=1, errors=(err_prev, err_t), lambdas=(lam,))
    return ClassicPolicy(mode=mode).next_lambda(obs)


class TestClassicUpdate:
    def test_standard_mode(self):
        assert classic_lambda(0.25, 1.0, 2.0, mode="standard") == 0.125
        assert classic_lambda(0.25, 2.0, 1.0, mode="standard") == 0.5
        assert classic_lambda(0.25, 1.0, 1.0, mode="standard") == 0.5

    def test_paper_mode_is_mirrored(self):
        assert classic_lambda(0.25, 1.0, 2.0, mode="paper") == 0.5
        assert classic_lambda(0.25, 2.0, 1.0, mode="paper") == 0.125

    def test_clamped_at_range_ends(self):
        assert classic_lambda(LAMBDA_MIN, 1.0, 2.0, mode="standard") == LAMBDA_MIN
        assert classic_lambda(LAMBDA_MAX, 2.0, 1.0, mode="standard") == LAMBDA_MAX

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            classic_lambda(0.25, 1.0, 2.0, mode="other")


class TestSolve:
    def test_noiseless_start_converges_immediately(self):
        problem = generate_synthetic(
            4, 8, seed=3, init_noise=0.0, noise_std=0.0, rotation_noise=0.0
        )
        result = solve(problem, ClassicPolicy())
        assert result.outcome == "converged"
        assert result.iterations == 1
        assert result.final_error <= 1e-20
        assert result.initial_error <= 1e-20

    def test_classic_converges_on_weighted_scenes(self):
        for seed in (0, 1):
            result = solve(suite_problem(seed), ClassicPolicy())
            assert result.outcome == "converged"
            assert 15 <= result.iterations <= 45
            assert result.final_error < 1e-2
            assert result.final_error < 1e-2 * result.initial_error

    def test_light_damping_outpaces_classic(self, suite_problem_0):
        classic = solve(suite_problem_0, ClassicPolicy())
        newton = solve(suite_problem_0, FixedPolicy(1e-15))
        assert newton.outcome == "converged"
        assert newton.iterations <= 8
        assert classic.iterations >= 2 * newton.iterations
        # both reach the same basin
        gap = abs(newton.final_error - classic.final_error)
        assert gap / classic.final_error < 1e-3

    def test_scheduler_cycles_and_converges(self, suite_problem_0):
        schedule = (1e-15, 1e-15, 0.194, 0.551)
        result = solve(suite_problem_0, ConstantSchedulerPolicy(schedule))
        assert result.outcome == "converged"
        assert result.iterations <= 12
        for k, rec in enumerate(result.records):
            assert rec.lam == schedule[k % len(schedule)]

    def test_heavy_fixed_damping_hits_iteration_cap(self):
        problem = generate_synthetic(10, 10, seed=0)
        result = solve(problem, FixedPolicy(1e8))
        assert result.outcome == "iteration-cap"
        assert result.iterations == 100
        assert len(result.records) == 100

    def test_classic_lambda_trace(self, suite_problem_0):
        result = solve(suite_problem_0, ClassicPolicy())
        lams = [rec.lam for rec in result.records]
        assert lams[0] == 0.25
        for prev, cur in zip(lams, lams[1:]):
            assert cur / prev in (0.5, 2.0)

    def test_max_iterations_argument(self, suite_problem_0):
        result = solve(suite_problem_0, ClassicPolicy(), max_iterations=5)
        assert result.outcome == "iteration-cap"
        assert result.iterations == 5

    def test_deterministic_time_totals(self, tiny_problem):
        result = solve(tiny_problem, ClassicPolicy(), deterministic_time=True)
        assert result.total_time_s == float(result.iterations)
        assert all(rec.duration_s == 1.0 for rec in result.records)

    def test_accept_only_improving_is_monotone(self):
        problem = generate_synthetic(10, 10, seed=7)
        result = solve(problem, FixedPolicy(1e-12), accept_only_improving=True)
        errors = [result.initial_error] + [rec.error for rec in result.records]
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= prev
        # a rejected step leaves the error flat, which must not read as converged
        assert result.outcome == "iteration-cap"
        assert result.iterations == 100

    def test_numerical_failure_outcome(self, tiny_problem, monkeypatch):
        calls = {"n": 0}
        original = solver.damped_step

        def flaky(lin, lam):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise SingularSystemError("injected")
            return original(lin, lam)

        monkeypatch.setattr(solver, "damped_step", flaky)
        result = solve(tiny_problem, FixedPolicy(0.25))
        assert result.outcome == "numerical-failure"
        assert result.iterations == 2
        assert len(result.records) == result.iterations + 1  # and the failed attempt
        assert np.isnan(result.records[-1].error)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_a_non_finite_damping_is_a_failed_step(self, tiny_problem, lam):
        state = SolverState.initial(tiny_problem)
        failed, record = lm_iterate(tiny_problem, state, lam)
        assert failed.failed and failed.iteration == 0
        assert failed.error_history == state.error_history
        assert record.iteration == 1 and np.isnan(record.error)

    def test_policy_reset_between_solves(self, suite_problem_0):
        policy = ClassicPolicy()
        first = solve(suite_problem_0, policy)
        second = solve(suite_problem_0, policy)
        assert first.iterations == second.iterations
        assert [r.lam for r in first.records] == [r.lam for r in second.records]


class TestSerialization:
    def test_records_to_csv_frozen(self):
        records = [
            IterationRecord(iteration=1, lam=0.25, error=2.5, duration_s=0.001),
            IterationRecord(iteration=2, lam=0.125, error=float("nan"), duration_s=0.002),
        ]
        lines = records_to_csv(records).splitlines()
        assert lines[0] == "iter,lambda,error,duration_s"
        assert lines[1] == "1,0.25,2.5,0.001"
        assert lines[2] == "2,0.125,,0.002"

    def test_result_json_round_trip(self, tiny_problem):
        result = solve(tiny_problem, ClassicPolicy(), deterministic_time=True)
        payload = result_to_json_dict(result)
        text = json.dumps(payload)
        back = json.loads(text)
        assert back["outcome"] == result.outcome
        assert back["iterations"] == result.iterations
        assert back["final_error"] == result.final_error
        assert len(back["records"]) == result.iterations
        assert back["records"][0]["lambda"] == 0.25

    def test_result_json_encodes_failed_error_as_null(self, tiny_problem, monkeypatch):
        monkeypatch.setattr(
            solver,
            "damped_step",
            lambda lin, lam: (_ for _ in ()).throw(
                SingularSystemError("injected")
            ),
        )
        result = solve(tiny_problem, FixedPolicy(0.25))
        payload = result_to_json_dict(result)
        assert payload["records"][0]["error"] is None
        json.dumps(payload)
