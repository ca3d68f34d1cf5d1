"""Tests for the greedy-supervised damping baseline.

The oracle has a direct independent check: recompute every candidate's trial
error and verify the pick attains the minimum with ties broken toward the
smaller damping. The tiny training case uses the canonical 10x10 scene
family, where a full Gauss-Newton step is decisively the right move, so the
regressed net has clean structure to learn.
"""

import dataclasses
import re
import sys

import numpy as np
import pytest
from conftest import suite_problem

from balm import suite_scene
from balm.baselines import (
    DEFAULT_ORACLE_GRID,
    OracleFailureError,
    ZeroNetConfig,
    _collect_labeled_windows,
    init_zero_net,
    load_zero_net_checkpoint,
    raw_regression_target,
    save_zero_net_checkpoint,
    u_from_lambda,
    zero_net_input,
    zero_net_oracle,
    zero_net_train,
)
from balm.env import BAEnv, EnvConfig, solve
from balm.nn import mlp_forward_cached, mlp_init, save_arrays
from balm.policy import ClassicPolicy, PolicyObservation, ZeroNetPolicy, make_state
from balm.sac import NonFiniteLossError, lambda_from_action
from balm.scene import generate_synthetic
from balm.solver import ParamVector, SolverState, lm_iterate


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
    env = BAEnv(EnvConfig(max_iterations=8, deterministic_time=True))
    classic = ClassicPolicy()
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


def test_oracle_linearizes_the_state_once(linearize_calls):
    problem = suite_problem(0, 4, 6)
    state = SolverState.initial(problem)
    zero_net_oracle(problem, state)
    assert len(linearize_calls) == 1


def test_collector_linearizes_each_labelled_state_once(linearize_calls):
    # The oracle and the iteration that follows it share the state's linearization.
    config = ZeroNetConfig(deterministic_time=True)
    labels = 0
    for seed in range(10):
        _, targets = _collect_labeled_windows(suite_scene(seed), None, config)
        labels += len(targets)
    assert labels == 272
    assert len(linearize_calls) == labels


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
    params = ParamVector.from_problem(problem)
    params.points[:] = 0.0
    params.cameras[:, 3:6] = 0.0  # all observations hit zero depth
    state = dataclasses.replace(SolverState.initial(problem), params=params)
    with pytest.raises(OracleFailureError):
        zero_net_oracle(problem, state)


def test_oracle_rejects_empty_grid():
    problem = generate_synthetic(6, 8, seed=0)
    with pytest.raises(ValueError):
        zero_net_oracle(problem, SolverState.initial(problem), ())


# ---------------------------------------------------------------------------
# prediction


def observation(errors, iteration=0, durations=(), lambdas=()):
    return PolicyObservation(
        iteration_index=iteration,
        errors=tuple(errors),
        durations=tuple(durations),
        lambdas=tuple(lambdas),
    )


def net_lambda(net, row):
    """The damping the net's squashed output maps to for one input row."""
    return lambda_from_action(np.tanh(mlp_forward_cached(net, np.asarray(row)[None])[0][0, 0]))


def test_zero_weight_net_predicts_from_output_bias():
    net = small_net(window=2, hidden=4)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    net.biases[-1][0] = 0.3
    lam = ZeroNetPolicy(net).next_lambda(observation([1.0, 2.0], 1, (1.0,)))
    assert lam == pytest.approx(10.0 ** (9.0 * np.tanh(0.3) - 7.0), rel=1e-12)


def test_predict_composes_forward_tanh_and_action_map():
    net = small_net(window=3, hidden=16, seed=4)
    obs = observation(list(np.random.default_rng(7).uniform(1.0, 9.0, size=3)), 2, (1.0, 1.0))
    lam = ZeroNetPolicy(net).next_lambda(obs)
    raw = mlp_forward_cached(net, zero_net_input(obs, 3)[None])[0][0, 0]
    assert lam == pytest.approx(lambda_from_action(np.tanh(raw)), rel=1e-12)


def test_predict_is_pure():
    # The policy repeats its dampings, and the observations stay as they were.
    net = small_net(window=2, hidden=4, seed=1)
    policy = ZeroNetPolicy(net)
    observations = [observation([0.5]), observation([0.5, 0.4], 1, (1.0,), (0.3,))]
    runs = [[policy.next_lambda(obs) for obs in observations] for _ in range(2)]
    assert runs[0] == runs[1]
    assert observations[1] == observation([0.5, 0.4], 1, (1.0,), (0.3,))


def test_predict_rejects_wrong_window_width():
    # the input row is three slots of one window each
    net = mlp_init([4, 4, 1], np.random.default_rng(0))
    with pytest.raises(ValueError, match="divisible by 3"):
        ZeroNetPolicy(net)


def test_default_net_shape():
    net = init_zero_net()
    assert net.widths == [15, 1280, 1280, 1280, 1]


def test_policy_feeds_past_actions_and_negated_durations():
    net = small_net(window=5, hidden=16, seed=9)
    policy = ZeroNetPolicy(net)

    lam0 = policy.next_lambda(observation([0.4]))
    assert lam0 == net_lambda(net, np.concatenate([make_state([0.4], 5), np.zeros(10)]))

    # A 0.5 s iteration fills its slot with -1, the negated duration that
    # deterministic timing records: the slots count iterations, not seconds.
    lam1 = policy.next_lambda(observation([0.4, 0.3], 1, (0.5,), (lam0,)))
    actions = [0.0, 0.0, 0.0, 0.0, u_from_lambda(lam0)]
    rewards = [0.0, 0.0, 0.0, 0.0, -1.0]
    assert lam1 == net_lambda(net, np.concatenate([make_state([0.4, 0.3], 5), actions, rewards]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_collector_rows_are_the_rows_the_policy_is_served(monkeypatch, seed):
    # The net is trained on the collector's rows; solve must serve it the same bytes.
    net = small_net(window=5, hidden=16, seed=seed)
    config = ZeroNetConfig(max_iterations=8, deterministic_time=True)
    rows, _ = _collect_labeled_windows(suite_scene(0), net, config)

    served = []
    forward = sys.modules["balm.nn"].mlp_forward_cached

    def spy(net, x):
        served.append(np.array(x[0]))
        return forward(net, x)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "balm" and getattr(module, "mlp_forward_cached", None) is forward:
            monkeypatch.setattr(module, "mlp_forward_cached", spy)
    result = solve(suite_scene(0), ZeroNetPolicy(net), max_iterations=8, deterministic_time=True)
    assert len(served) == len(rows) == result.iterations
    assert np.asarray(served).tobytes() == np.asarray(rows).tobytes()


# ---------------------------------------------------------------------------
# training


def test_collected_windows_label_the_initial_state_too():
    problem = suite_problem(0, 4, 6)
    config = ZeroNetConfig(max_iterations=3, threshold=1e-6, deterministic_time=True)
    inputs, targets = _collect_labeled_windows(problem, None, config)
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


TINY_ZERO_NET = dict(seed=0, window=5, hidden=8, passes_per_epoch=2, max_iterations=5)


def test_training_rejects_zero_epochs():
    # with no epoch the net would be returned as initialized; zero_net_train
    # checks its keywords through ZeroNetConfig, whose cases follow
    with pytest.raises(ValueError, match="epochs must be at least 1, got 0"):
        zero_net_train([suite_problem(0, 4, 6)], **{**TINY_ZERO_NET, "epochs": 0})


def test_training_rejects_zero_passes():
    # with no pass the epoch's loss would be logged as nan and nothing learned
    with pytest.raises(ValueError, match="passes_per_epoch must be at least 1, got 0"):
        ZeroNetConfig(passes_per_epoch=0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
def test_training_rejects_a_non_finite_or_non_positive_lr(lr):
    with pytest.raises(ValueError, match=f"lr must be finite and positive, got {lr}"):
        ZeroNetConfig(lr=lr)


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("hidden", 0, "hidden must be at least 1, got 0"),
        ("window", 0, "window must be at least 1, got 0"),
        ("max_iterations", 0, "max_iterations must be at least 1, got 0"),
        ("threshold", -1.0, "threshold must be finite and positive, got -1.0"),
        ("threshold", float("nan"), "threshold must be finite and positive, got nan"),
    ],
    ids=["hidden", "window", "max-iterations", "threshold", "threshold-nan"],
)
def test_config_rejects_a_bad_value(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ZeroNetConfig(**{field: value})


def test_non_finite_regression_loss_raises():
    # a step of 1e300 per weight overflows the next forward pass
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLossError, match="non-finite regression loss"):
            zero_net_train([suite_problem(0, 4, 6)], **TINY_ZERO_NET, lr=1e300)


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
    save_arrays(path, {"kind": "mlp", "widths": [4, 8, 1]}, {"w0": np.zeros((4, 8))})
    with pytest.raises(ValueError):
        load_zero_net_checkpoint(path)


def test_policy_from_checkpoint_solves_like_the_trained_net(tmp_path, tiny_trained_net):
    path = tmp_path / "zero.net"
    save_zero_net_checkpoint(path, tiny_trained_net)
    policy = ZeroNetPolicy(load_zero_net_checkpoint(path))
    assert policy.window == 5
    problem = suite_problem(2)
    from_file = solve(problem, policy, deterministic_time=True)
    direct = solve(problem, ZeroNetPolicy(tiny_trained_net), deterministic_time=True)
    assert from_file.iterations == direct.iterations
    assert from_file.final_error == direct.final_error
