import json
import warnings

import numpy as np
import pytest
import scipy.linalg

from balm import solver
from balm.baselines import zero_net_oracle
from balm.scene import (
    BAProblem,
    CameraPose,
    Observation,
    generate_synthetic,
    project,
    rotation_matrix,
)
from balm.policy import ClassicPolicy, ConstantSchedulerPolicy, FixedPolicy
from balm.solver import (
    DENSE_CAMERA_LIMIT,
    LAMBDA_MAX,
    LAMBDA_MIN,
    IterationRecord,
    Linearization,
    NumericalFailureError,
    ParamVector,
    Residuals,
    SingularSystemError,
    SolverState,
    classic_lambda_update,
    convergence_check,
    damped_step,
    dense_system,
    estimation_error,
    linearize,
    lm_iterate,
    records_to_csv,
    residuals,
    result_to_json_dict,
    solve,
)

from conftest import suite_problem


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


def unflatten(problem, flat):
    split = 9 * problem.num_cameras
    return ParamVector(
        flat[:split].reshape(-1, 9).copy(), flat[split:].reshape(-1, 3).copy()
    )


def fd_jacobian(problem, params, h=1e-6):
    """Central-difference Jacobian of the stacked residual vector."""
    base = params.flat()
    jac = np.zeros((2 * problem.num_observations, base.size))
    for k in range(base.size):
        plus = base.copy()
        plus[k] += h
        minus = base.copy()
        minus[k] -= h
        r_plus = residuals(problem, unflatten(problem, plus)).stacked
        r_minus = residuals(problem, unflatten(problem, minus)).stacked
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
        np.testing.assert_array_equal(res.values, 0.0)
        # shift one observation and the residual is exactly that shift
        problem.observations[0].pixel = problem.observations[0].pixel + np.array([3.0, -4.0])
        res = residuals(problem, params)
        np.testing.assert_allclose(res.values[0], [3.0, -4.0], atol=1e-12)

    def test_degenerate_depth_is_a_failure(self, tiny_problem):
        params = ParamVector.from_problem(tiny_problem)
        params.points[:] = 0.0
        params.cameras[:, 3:6] = 0.0
        indices = []
        for evaluate in (residuals, linearize):
            with pytest.raises(NumericalFailureError, match="depth") as failure:
                evaluate(tiny_problem, params)
            indices.append(failure.value.observation_index)
        assert indices == [0, 0]

    def test_non_finite_residual_is_a_failure(self, tiny_problem):
        params = ParamVector.from_problem(tiny_problem)
        params.cameras[2, 6] = float("nan")
        first = [o.camera_index for o in tiny_problem.observations].index(2)
        for evaluate in (residuals, linearize):
            with pytest.raises(NumericalFailureError, match="non-finite") as failure:
                evaluate(tiny_problem, params)
            assert failure.value.observation_index == first

    def test_estimation_error_frozen(self):
        res = Residuals(values=np.array([[3.0, 4.0]]))
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
        # strong distortion coefficients come from the generator defaults;
        # also cover the focal=1 regime used by the elimination tests
        problem = generate_synthetic(4, 6, seed=2, focal=1.0, noise_std=0.01)
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
        assert np.array_equal(lin.residual, residuals(tiny_problem, params).values)
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
        base = params.flat()
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
        shifted = params.copy()
        shifted.points += delta
        for i in range(default_problem.num_cameras):
            rot = rotation_matrix(shifted.cameras[i, 0:3])
            shifted.cameras[i, 3:6] -= rot @ delta
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
            dc, dp = damped_step(lin, lam, method="dense")
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
        for method in ("dense", "schur"):
            dc, dp = damped_step(lin, 1e-12, method=method)
            step = np.concatenate([dc.ravel(), dp.ravel()])
            assert np.linalg.norm(step - exact) / np.linalg.norm(exact) < 1e-6

    def test_large_damping_follows_negative_gradient(self):
        lin = random_linearization(seed=1)
        _, grad = dense_system(lin)
        for method in ("dense", "schur"):
            dc, dp = damped_step(lin, 1e8, method=method)
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
            dc_d, dp_d = damped_step(lin, lam, method="dense")
            dc_s, dp_s = damped_step(lin, lam, method="schur")
            dense_step = np.concatenate([dc_d.ravel(), dp_d.ravel()])
            schur_step = np.concatenate([dc_s.ravel(), dp_s.ravel()])
            gap = np.linalg.norm(schur_step - dense_step) / np.linalg.norm(dense_step)
            assert gap < 1e-8

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e4, 1e8])
    def test_schur_matches_dense_under_partial_visibility(self, lam):
        # lambda = 1e-12 is left out: a one-view point's depth is then
        # unobservable and neither path determines its step
        problem = thinned_problem()
        views = np.bincount([o.point_index for o in problem.observations])
        assert views.min() == 1 and views.max() == 3
        lin = linearize(problem, ParamVector.from_problem(problem))
        dc_d, dp_d = damped_step(lin, lam, method="dense")
        dc_s, dp_s = damped_step(lin, lam, method="schur")
        dense_step = np.concatenate([dc_d.ravel(), dp_d.ravel()])
        schur_step = np.concatenate([dc_s.ravel(), dp_s.ravel()])
        gap = np.linalg.norm(schur_step - dense_step) / np.linalg.norm(dense_step)
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
        dc_d, dp_d = damped_step(lin, 1e-3, method="dense")
        dc_s, dp_s = damped_step(lin, 1e-3, method="schur")
        dense_step = np.concatenate([dc_d.ravel(), dp_d.ravel()])
        schur_step = np.concatenate([dc_s.ravel(), dp_s.ravel()])
        assert np.linalg.norm(schur_step - dense_step) / np.linalg.norm(dense_step) < 1e-8
        assert calls["n"] == 2

    def test_auto_uses_dense_below_camera_limit(self, tiny_problem):
        assert tiny_problem.num_cameras < DENSE_CAMERA_LIMIT
        lin = linearize(tiny_problem, ParamVector.from_problem(tiny_problem))
        auto = damped_step(lin, 0.1, method="auto")
        dense = damped_step(lin, 0.1, method="dense")
        np.testing.assert_array_equal(auto[0], dense[0])
        np.testing.assert_array_equal(auto[1], dense[1])

    def test_auto_uses_schur_at_camera_limit(self, default_problem):
        assert default_problem.num_cameras >= DENSE_CAMERA_LIMIT
        lin = linearize(default_problem, ParamVector.from_problem(default_problem))
        auto = damped_step(lin, 0.1, method="auto")
        schur = damped_step(lin, 0.1, method="schur")
        np.testing.assert_array_equal(auto[0], schur[0])
        np.testing.assert_array_equal(auto[1], schur[1])

    def test_rejects_bad_damping(self):
        lin = random_linearization(seed=3, nc=2, npts=4)
        with pytest.raises(ValueError):
            damped_step(lin, -1.0)
        with pytest.raises(ValueError):
            damped_step(lin, float("inf"))
        with pytest.raises(ValueError):
            damped_step(lin, 0.1, method="bogus")

    def test_non_finite_system_raises_singular(self):
        lin = random_linearization(seed=4, nc=2, npts=4)
        lin.h_cc[0, 0, 0] = float("nan")
        lin.grad_cam[0, 0] = float("nan")
        with pytest.raises(SingularSystemError):
            damped_step(lin, 0.1, method="dense")

    def test_spd_solve_is_cholesky_with_lstsq_fallback(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(12, 12))
        spd, rhs = a @ a.T + np.eye(12), rng.normal(size=12)
        factor = scipy.linalg.cho_factor(spd, lower=True)
        expected = scipy.linalg.cho_solve(factor, rhs)
        assert solver._solve_spd(spd, rhs).tobytes() == expected.tobytes()
        semidefinite = np.diag([2.0, 1.0, 0.0])  # zero pivot: Cholesky fails
        expected, *_ = np.linalg.lstsq(semidefinite, rhs[:3], rcond=None)
        np.testing.assert_array_equal(solver._solve_spd(semidefinite, rhs[:3]), expected)


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
        state = SolverState.initial(tiny_problem)
        bad = state.copy()
        bad.params.points[:] = 0.0
        bad.params.cameras[:, 3:6] = 0.0
        new, rec = lm_iterate(tiny_problem, bad, 0.25)
        assert new.failed
        assert np.isnan(rec.error)
        assert rec.iteration == 1
        assert new.iteration == bad.iteration
        assert len(new.error_history) == len(bad.error_history)

    def test_builds_observation_arrays_once(self, tiny_problem, monkeypatch):
        calls = {"n": 0}
        original = BAProblem.observation_arrays

        def counted(problem):
            calls["n"] += 1
            return original(problem)

        state = SolverState.initial(tiny_problem)
        monkeypatch.setattr(BAProblem, "observation_arrays", counted)
        new, _ = lm_iterate(tiny_problem, state, 0.25)
        assert not new.failed
        assert calls["n"] == 1

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


class TestClassicUpdate:
    def test_standard_mode(self):
        assert classic_lambda_update(0.25, 1.0, 2.0, mode="standard") == 0.125
        assert classic_lambda_update(0.25, 2.0, 1.0, mode="standard") == 0.5
        assert classic_lambda_update(0.25, 1.0, 1.0, mode="standard") == 0.5

    def test_paper_mode_is_mirrored(self):
        assert classic_lambda_update(0.25, 1.0, 2.0, mode="paper") == 0.5
        assert classic_lambda_update(0.25, 2.0, 1.0, mode="paper") == 0.125

    def test_clamped_at_range_ends(self):
        assert classic_lambda_update(LAMBDA_MIN, 1.0, 2.0, mode="standard") == LAMBDA_MIN
        assert classic_lambda_update(LAMBDA_MAX, 2.0, 1.0, mode="standard") == LAMBDA_MAX

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            classic_lambda_update(0.25, 1.0, 2.0, mode="other")


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

        def flaky(lin, lam, method="auto"):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise SingularSystemError("injected")
            return original(lin, lam, method=method)

        monkeypatch.setattr(solver, "damped_step", flaky)
        result = solve(tiny_problem, FixedPolicy(0.25))
        assert result.outcome == "numerical-failure"
        assert result.iterations == 2
        assert np.isnan(result.records[-1].error)

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
            lambda lin, lam, method="auto": (_ for _ in ()).throw(
                SingularSystemError("injected")
            ),
        )
        result = solve(tiny_problem, FixedPolicy(0.25))
        payload = result_to_json_dict(result)
        assert payload["records"][0]["error"] is None
        json.dumps(payload)
