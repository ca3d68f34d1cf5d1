import numpy as np
import pytest

from balm.baselines import init_zero_net
from balm.bench import suite_scene
from balm.env import BAEnv, EnvConfig
from balm.policy import (
    DEFAULT_SCHEDULE,
    STATE_CLIP,
    ClassicPolicy,
    ConstantSchedulerPolicy,
    FixedPolicy,
    PolicyObservation,
    ZeroNetPolicy,
    make_state,
    observe,
)
from balm.solver import LAMBDA_MAX, LAMBDA_MIN, IterationRecord, SolverState, ParamVector, solve


def obs_at(iteration, raw=(), lambdas=(), state=(1.0,) * 5):
    return PolicyObservation(
        state_vector=np.asarray(state, dtype=float),
        iteration_index=iteration,
        raw_errors=tuple(raw),
        recent_lambdas=tuple(lambdas),
    )


class TestMakeState:
    def test_pads_left_by_repeating_earliest(self):
        np.testing.assert_array_equal(make_state([5.0], 3), [5.0, 5.0, 5.0])
        np.testing.assert_array_equal(make_state([1.0, 2.0], 3), [1.0, 1.0, 2.0])

    def test_keeps_last_window_entries(self):
        np.testing.assert_array_equal(make_state([1.0, 2.0, 3.0, 4.0], 3), [2.0, 3.0, 4.0])

    def test_clips_at_one_thousand(self):
        np.testing.assert_array_equal(make_state([1500.0], 2), [STATE_CLIP, STATE_CLIP])
        np.testing.assert_array_equal(
            make_state([0.5, 2000.0, 3.0], 3), [0.5, STATE_CLIP, 3.0]
        )

    def test_shape_and_dtype(self):
        out = make_state([1.0, 2.0], 5)
        assert out.shape == (5,)
        assert out.dtype == np.float64

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_state([], 3)
        with pytest.raises(ValueError):
            make_state([1.0], 0)


class TestObserve:
    def make_solver_state(self, errors, durations):
        return SolverState(
            params=ParamVector(np.zeros((2, 9)), np.zeros((2, 3))),
            error_history=list(errors),
            durations=list(durations),
            iteration=len(errors) - 1,
        )

    def test_fields(self):
        state = self.make_solver_state([10.0, 8.0, 6.0], [0.1, 0.2])
        obs = observe(state, 5, [])
        np.testing.assert_array_equal(obs.state_vector, [10.0, 10.0, 10.0, 8.0, 6.0])
        assert obs.iteration_index == 2
        assert obs.raw_errors == (10.0, 8.0, 6.0)
        assert obs.recent_durations == (0.1, 0.2)

    def test_raw_errors_keep_at_least_two(self):
        # a window-1 observation still carries the error pair the classic
        # rule needs
        state = self.make_solver_state([10.0, 8.0, 6.0], [0.1, 0.2])
        obs = observe(state, 1, [])
        np.testing.assert_array_equal(obs.state_vector, [6.0])
        assert obs.raw_errors == (8.0, 6.0)

    def test_raw_errors_are_unclipped(self):
        state = self.make_solver_state([4e5, 2e5], [0.1])
        obs = observe(state, 3, [])
        np.testing.assert_array_equal(obs.state_vector, [STATE_CLIP] * 3)
        assert obs.raw_errors == (4e5, 2e5)

    def test_recent_lambdas_are_the_last_window_of_records(self):
        state = self.make_solver_state([10.0, 8.0, 6.0, 5.0], [0.1, 0.2, 0.3])
        records = [IterationRecord(k, lam, 1.0, 0.1) for k, lam in enumerate((0.5, 0.25, 2.0), 1)]
        assert observe(state, 2, records).recent_lambdas == (0.25, 2.0)
        assert observe(state, 5, records).recent_lambdas == (0.5, 0.25, 2.0)
        assert observe(state, 5, []).recent_lambdas == ()


class TestClassicPolicy:
    def test_seeds_at_a_quarter(self):
        policy = ClassicPolicy()
        assert policy.next_lambda(obs_at(0)) == 0.25

    def test_halves_on_improvement_doubles_on_regression(self):
        policy = ClassicPolicy()
        assert policy.next_lambda(obs_at(0, raw=(10.0,))) == 0.25
        assert policy.next_lambda(obs_at(1, raw=(10.0, 8.0), lambdas=(0.25,))) == 0.125
        assert policy.next_lambda(obs_at(2, raw=(8.0, 9.0), lambdas=(0.25, 0.125))) == 0.25
        assert policy.next_lambda(obs_at(3, raw=(9.0, 9.0), lambdas=(0.125, 0.25))) == 0.5

    def test_paper_mode_mirrors(self):
        policy = ClassicPolicy(mode="paper")
        assert policy.next_lambda(obs_at(0, raw=(10.0,))) == 0.25
        assert policy.next_lambda(obs_at(1, raw=(10.0, 8.0), lambdas=(0.25,))) == 0.5
        assert policy.next_lambda(obs_at(2, raw=(8.0, 9.0), lambdas=(0.25, 0.5))) == 0.25

    def test_iteration_zero_reseeds(self):
        policy = ClassicPolicy()
        policy.next_lambda(obs_at(0, raw=(10.0,)))
        policy.next_lambda(obs_at(1, raw=(10.0, 8.0), lambdas=(0.25,)))
        assert policy.next_lambda(obs_at(0, raw=(10.0,))) == 0.25

    def test_needs_error_pair_after_first_iteration(self):
        policy = ClassicPolicy()
        with pytest.raises(ValueError):
            policy.next_lambda(obs_at(1, raw=(10.0,), lambdas=(0.25,)))
        with pytest.raises(ValueError):
            policy.next_lambda(obs_at(1, raw=(10.0, 8.0)))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ClassicPolicy(mode="other")


def interleaved_lambdas(policy, problems) -> list[list[float]]:
    """Step one episode per problem in turn, all with ``policy``; each episode's dampings."""
    config = EnvConfig(window=policy.window, deterministic_time=True)
    envs = [BAEnv(config) for _ in problems]
    observations = [env.reset(problem) for env, problem in zip(envs, problems)]
    done = [False] * len(envs)
    while not all(done):
        for k, env in enumerate(envs):
            if not done[k]:
                out = env.step(policy.next_lambda(observations[k]))
                observations[k], done[k] = out.observation, out.done
    return [[record.lam for record in env.records] for env in envs]


@pytest.mark.parametrize(
    "make_policy",
    [ClassicPolicy, lambda: ZeroNetPolicy(init_zero_net(window=5, hidden=16, seed=3))],
    ids=["classic", "zero-net"],
)
def test_one_policy_drives_interleaved_episodes_as_it_drives_solves(make_policy):
    # A policy is a function of its observation: two episodes stepped in
    # turn with one instance pick the dampings each picks in its own solve.
    problems = [suite_scene(100), suite_scene(101)]
    policy = make_policy()
    interleaved = interleaved_lambdas(policy, problems)
    for problem, lambdas in zip(problems, interleaved):
        alone = solve(problem, policy, deterministic_time=True)
        assert lambdas == [record.lam for record in alone.records]
        assert len(lambdas) > 2


class TestSchedulerPolicy:
    def test_default_schedule_cycles(self):
        policy = ConstantSchedulerPolicy()
        values = [policy.next_lambda(obs_at(k)) for k in range(6)]
        assert values == [1e-15, 1e-15, 0.194, 0.551, 1e-15, 1e-15]
        assert policy.schedule == DEFAULT_SCHEDULE

    def test_custom_schedule(self):
        policy = ConstantSchedulerPolicy(schedule=[0.1, 0.2])
        assert policy.next_lambda(obs_at(3)) == 0.2

    def test_zero_entry_is_clamped_to_floor(self):
        policy = ConstantSchedulerPolicy(schedule=(0.0,))
        assert policy.next_lambda(obs_at(0)) == LAMBDA_MIN

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            ConstantSchedulerPolicy(schedule=())


class TestFixedPolicy:
    def test_constant_output(self):
        policy = FixedPolicy(0.03)
        assert policy.next_lambda(obs_at(0)) == 0.03
        assert policy.next_lambda(obs_at(17)) == 0.03

    def test_clamped_to_range(self):
        assert FixedPolicy(1e20).next_lambda(obs_at(0)) == LAMBDA_MAX
        assert FixedPolicy(0.0).next_lambda(obs_at(0)) == LAMBDA_MIN
