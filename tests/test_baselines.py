"""Tests for the greedy-supervised damping baseline.

The oracle has a direct independent check: recompute every candidate's trial
error and verify the pick attains the minimum with ties broken toward the
smaller damping. The tiny training case uses the canonical 10x10 scene
family, where a full Gauss-Newton step is decisively the right move, so the
regressed net has clean structure to learn.
"""

import numpy as np
import pytest
from conftest import suite_problem

from balm import baselines
from balm.baselines import (
    DEFAULT_ORACLE_GRID,
    OracleFailureError,
    _collect_labeled_windows,
    init_zero_net,
    load_zero_net_checkpoint,
    raw_regression_target,
    save_zero_net_checkpoint,
    u_from_lambda,
    zero_net_action,
    zero_net_oracle,
    zero_net_predict,
    zero_net_train,
)
from balm.env import BAEnv, EnvConfig
from balm.nn import mlp_forward, mlp_init, save_mlp
from balm.policy import ClassicPolicy, PolicyObservation, ZeroNetPolicy, make_policy, make_state
from balm.sac import lambda_from_action
from balm.scene import generate_synthetic
from balm.solver import SolverState, lm_iterate, solve


def small_net(window=5, hidden=8, seed=0):
    return init_zero_net(window=window, hidden=hidden, seed=seed)


# ---------------------------------------------------------------------------
# action-space mapping helpers


def test_u_from_lambda_round_trips_through_action_map():
    for u in np.linspace(-1.0, 1.0, 9):
        assert u_from_lambda(lambda_from_action(u)) == pytest.approx(float(u), abs=1e-12)


def test_u_from_lambda_clips_out_of_range_dampings():
    assert u_from_lambda(1e16) == 1.0
    assert u_from_lambda(1e-16) == -1.0
    assert u_from_lambda(1e3) == pytest.approx(10.0 / 9.0, abs=1.0)  # clipped to 1
    assert u_from_lambda(1e3) == 1.0


def test_raw_regression_target_interior_values():
    # lambda = 0.25 sits inside the squashed range: target is plain atanh.
    u = (np.log10(0.25) + 7.0) / 9.0
    assert raw_regression_target(0.25) == pytest.approx(float(np.arctanh(u)), rel=1e-12)
    # squashing the target recovers the damping for interior grid values
    for lam in (1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.25, 0.5, 1.0, 10.0):
        back = lambda_from_action(float(np.tanh(raw_regression_target(lam))))
        assert back == pytest.approx(lam, rel=1e-6)


def test_raw_regression_target_grid_ends_hit_atanh_clip():
    lo = raw_regression_target(1e-16)
    hi = raw_regression_target(1e3)
    assert np.isfinite(lo) and np.isfinite(hi)
    assert lo < -10.0 and hi > 10.0
    assert lo == -raw_regression_target(1e16)


# ---------------------------------------------------------------------------
# greedy oracle


def test_oracle_noiseless_snapshot_returns_smallest_candidate():
    # At the exact optimum every trial step leaves the error at zero, so all
    # candidates tie and the smallest wins.
    problem = generate_synthetic(
        4, 6, init_noise=0.0, noise_std=0.0, rotation_noise=0.0, seed=3
    )
    state = SolverState.initial(problem)
    assert zero_net_oracle(problem, state) == min(DEFAULT_ORACLE_GRID)


def test_oracle_grid_order_does_not_matter():
    problem = generate_synthetic(
        4, 6, init_noise=0.0, noise_std=0.0, rotation_noise=0.0, seed=3
    )
    state = SolverState.initial(problem)
    assert zero_net_oracle(problem, state, (1.0, 1e-16, 1e-8)) == 1e-16


def test_oracle_prefers_small_damping_in_quadratic_basin():
    problem = generate_synthetic(6, 8, seed=0)
    state = SolverState.initial(problem)
    for _ in range(2):
        state, _ = lm_iterate(problem, state, 1e-15, deterministic_time=True)
    assert zero_net_oracle(problem, state, (1e-12, 1.0, 1e6)) == 1e-12


def test_oracle_matches_exhaustive_recheck_along_rollout():
    problem = suite_problem(0, 4, 6)
    env = BAEnv(EnvConfig(window=5, max_iterations=8, deterministic_time=True))
    classic = ClassicPolicy()
    classic.reset()
    obs = env.reset(problem)
    states = [env.solver_state.copy()]
    done = False
    while not done and len(states) < 5:
        out = env.step(classic.next_lambda(obs))
        obs, done = out.observation, out.done
        if not done:
            states.append(env.solver_state.copy())
    assert len(states) >= 3
    for state in states:
        picked = zero_net_oracle(problem, state)
        errors = {}
        for lam in DEFAULT_ORACLE_GRID:
            trial, record = lm_iterate(problem, state, lam, deterministic_time=True)
            if not trial.failed and np.isfinite(record.error):
                errors[lam] = record.error
        best = min(errors.values())
        assert errors[picked] == best
        assert picked == min(l for l, e in errors.items() if e == best)


def test_oracle_linearizes_the_state_once(monkeypatch):
    problem = suite_problem(0, 4, 6)
    state = SolverState.initial(problem)
    calls = {"n": 0}
    original = baselines.linearize

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(baselines, "linearize", counted)
    zero_net_oracle(problem, state)
    assert calls["n"] == 1


def test_oracle_does_not_mutate_the_snapshot():
    problem = suite_problem(0, 4, 6)
    state = SolverState.initial(problem)
    cameras = state.params.cameras.copy()
    points = state.params.points.copy()
    history = list(state.error_history)
    zero_net_oracle(problem, state)
    assert np.array_equal(state.params.cameras, cameras)
    assert np.array_equal(state.params.points, points)
    assert list(state.error_history) == history


def test_oracle_raises_when_every_candidate_fails():
    problem = generate_synthetic(6, 8, seed=0)
    state = SolverState.initial(problem)
    state.params.points[:] = 0.0
    state.params.cameras[:, 3:6] = 0.0  # all observations hit zero depth
    with pytest.raises(OracleFailureError):
        zero_net_oracle(problem, state)


def test_oracle_rejects_empty_grid():
    problem = generate_synthetic(6, 8, seed=0)
    with pytest.raises(ValueError):
        zero_net_oracle(problem, SolverState.initial(problem), ())


# ---------------------------------------------------------------------------
# prediction


def test_zero_weight_net_predicts_from_output_bias():
    net = small_net(window=2, hidden=4)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    net.biases[-1][0] = 0.3
    lam = zero_net_predict(net, [1.0, 2.0], [0.1, -0.2], [0.0, -1.0])
    assert lam == pytest.approx(10.0 ** (9.0 * np.tanh(0.3) - 7.0), rel=1e-12)


def test_predict_composes_forward_tanh_and_action_map():
    net = small_net(window=3, hidden=16, seed=4)
    rng = np.random.default_rng(7)
    states, actions, rewards = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    lam, u = zero_net_action(net, states, actions, rewards)
    x = np.concatenate([states, actions, rewards]).reshape(1, -1)
    raw = mlp_forward(net, x)[0, 0]
    assert u == pytest.approx(float(np.tanh(raw)), rel=1e-12)
    assert lam == pytest.approx(lambda_from_action(np.tanh(raw)), rel=1e-12)
    assert zero_net_predict(net, states, actions, rewards) == lam


def test_predict_is_pure():
    net = small_net(window=2, hidden=4, seed=1)
    states, actions, rewards = [0.5, 0.4], [0.1, 0.2], [-1.0, -1.0]
    first = zero_net_predict(net, states, actions, rewards)
    second = zero_net_predict(net, states, actions, rewards)
    assert first == second
    assert states == [0.5, 0.4]


def test_predict_rejects_wrong_window_width():
    net = small_net(window=3, hidden=4)
    with pytest.raises(ValueError):
        zero_net_predict(net, [1.0, 2.0], [0.0, 0.0], [0.0, 0.0])


def test_default_net_shape():
    net = init_zero_net()
    assert net.widths == [15, 1280, 1280, 1280, 1]


def test_policy_feeds_past_actions_and_negated_durations():
    net = small_net(window=5, hidden=16, seed=9)
    policy = ZeroNetPolicy(net)
    policy.reset()

    obs0 = PolicyObservation(
        state_vector=make_state([0.4], 5),
        iteration_index=0,
        last_lambda=0.0,
        raw_errors=(0.4,),
        recent_durations=(),
    )
    lam0 = policy.next_lambda(obs0)
    want0, u0 = zero_net_action(net, make_state([0.4], 5), np.zeros(5), np.zeros(5))
    assert lam0 == want0

    obs1 = PolicyObservation(
        state_vector=make_state([0.4, 0.3], 5),
        iteration_index=1,
        last_lambda=lam0,
        raw_errors=(0.4, 0.3),
        recent_durations=(0.5,),
    )
    lam1 = policy.next_lambda(obs1)
    actions = np.array([0.0, 0.0, 0.0, 0.0, u0])
    # A 0.5 s iteration fills its slot with -1, the negated duration that
    # deterministic timing records: the slots count iterations, not seconds.
    rewards = np.array([0.0, 0.0, 0.0, 0.0, -1.0])
    want1, _ = zero_net_action(net, make_state([0.4, 0.3], 5), actions, rewards)
    assert lam1 == want1


# ---------------------------------------------------------------------------
# training


def test_collected_windows_label_the_initial_state_too():
    problem = suite_problem(0, 4, 6)
    config = EnvConfig(window=5, max_iterations=3, threshold=1e-6, deterministic_time=True)
    inputs, targets = _collect_labeled_windows(problem, None, DEFAULT_ORACLE_GRID, config)
    assert len(inputs) == len(targets) == 3
    first = inputs[0]
    assert first.shape == (15,)
    # initial window: repeated first error, empty action/reward history
    initial_error = SolverState.initial(problem).error_history[0]
    assert np.allclose(first[:5], min(initial_error, 1000.0))
    assert np.array_equal(first[5:], np.zeros(10))
    expected = raw_regression_target(
        zero_net_oracle(problem, SolverState.initial(problem))
    )
    assert targets[0] == expected


@pytest.fixture(scope="module")
def tiny_trained_net():
    problems = [suite_problem(s) for s in (0, 1)]
    return zero_net_train(
        problems,
        epochs=2,
        seed=0,
        window=5,
        hidden=64,
        lr=1e-3,
        passes_per_epoch=150,
        max_iterations=60,
    )


def test_training_beats_classic_on_held_out_scenes(tiny_trained_net):
    held_out = [suite_problem(s) for s in (2, 3, 4)]
    net_iters = []
    classic_iters = []
    for problem in held_out:
        trained = solve(problem, ZeroNetPolicy(tiny_trained_net), deterministic_time=True)
        classic = solve(problem, ClassicPolicy(), deterministic_time=True)
        assert trained.outcome == "converged"
        assert classic.outcome == "converged"
        net_iters.append(trained.iterations)
        classic_iters.append(classic.iterations)
    assert np.mean(net_iters) < np.mean(classic_iters)


def test_training_is_reproducible(tiny_trained_net):
    problems = [suite_problem(s) for s in (0, 1)]
    again = zero_net_train(
        problems,
        epochs=2,
        seed=0,
        window=5,
        hidden=64,
        lr=1e-3,
        passes_per_epoch=150,
        max_iterations=60,
    )
    for a, b in zip(tiny_trained_net.weights, again.weights):
        assert np.array_equal(a, b)
    for a, b in zip(tiny_trained_net.biases, again.biases):
        assert np.array_equal(a, b)


def test_zero_net_does_not_depend_on_the_clock():
    """Both timing modes train the same net, and it picks the same dampings in both."""
    problems = [suite_problem(s) for s in (0, 1)]
    nets = [
        zero_net_train(
            problems, epochs=2, seed=0, hidden=16, passes_per_epoch=5,
            max_iterations=30, deterministic_time=mode,
        )
        for mode in (True, False)
    ]
    assert nets[0].flat.tobytes() == nets[1].flat.tobytes()
    lambdas = [
        [rec.lam for rec in solve(suite_problem(100), ZeroNetPolicy(nets[0]),
                                  deterministic_time=mode).records]
        for mode in (True, False)
    ]
    assert lambdas[0] == lambdas[1]


def test_training_requires_problems():
    with pytest.raises(ValueError):
        zero_net_train([])


def test_training_reports_progress():
    events = []
    zero_net_train(
        [suite_problem(0, 4, 6)],
        epochs=2,
        seed=0,
        window=5,
        hidden=8,
        passes_per_epoch=2,
        max_iterations=5,
        progress=events.append,
    )
    assert [e["epoch"] for e in events] == [0, 1]
    assert all(e["samples"] > 0 and np.isfinite(e["loss"]) for e in events)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    net = small_net(window=5, hidden=16, seed=3)
    path = tmp_path / "zero.net"
    save_zero_net_checkpoint(path, net)
    loaded = load_zero_net_checkpoint(path)
    assert loaded.widths == net.widths
    for a, b in zip(net.weights, loaded.weights):
        assert np.array_equal(a, b)
    for a, b in zip(net.biases, loaded.biases):
        assert np.array_equal(a, b)


def test_checkpoint_rejects_other_kinds(tmp_path):
    path = tmp_path / "plain.net"
    save_mlp(path, mlp_init([4, 8, 1], np.random.default_rng(0)))
    with pytest.raises(ValueError):
        load_zero_net_checkpoint(path)


def test_make_policy_loads_zero_net_checkpoint(tmp_path, tiny_trained_net):
    path = tmp_path / "zero.net"
    save_zero_net_checkpoint(path, tiny_trained_net)
    policy = make_policy({"kind": "zero_net", "checkpoint_path": str(path)})
    assert isinstance(policy, ZeroNetPolicy)
    assert policy.window == 5
    problem = suite_problem(2)
    from_file = solve(problem, policy, deterministic_time=True)
    direct = solve(problem, ZeroNetPolicy(tiny_trained_net), deterministic_time=True)
    assert from_file.iterations == direct.iterations
    assert from_file.final_error == direct.final_error
