from dataclasses import replace

import numpy as np
import pytest

from balm import solver
from balm.env import (
    BAEnv,
    EnvConfig,
    EpisodeDoneError,
    SolveResult,
    compute_reward,
    solve,
)
from balm.policy import (
    DEFAULT_SCHEDULE,
    ClassicPolicy,
    ConstantSchedulerPolicy,
    FixedPolicy,
    PolicyObservation,
    agent_state,
    make_state,
)
from balm.sac import init_agent
from balm.scene import generate_synthetic
from balm.solver import SingularSystemError, records_to_csv

from conftest import suite_problem


def run_episode(env, problem, policy):
    """The episode's rewards and its ``StepOutcome``s."""
    obs = env.reset(problem)
    rewards = []
    outs = []
    done = False
    while not done:
        out = env.step(policy.next_lambda(obs))
        obs = out.observation
        rewards.append(out.reward)
        outs.append(out)
        done = out.done
    return rewards, outs


class TestComputeReward:
    def test_duration_variant(self):
        assert compute_reward(0.3, False, 5, "duration") == -0.3
        assert compute_reward(0.3, True, 5, "duration") == 10.0

    def test_constant_variant(self):
        assert compute_reward(0.3, False, 5, "constant") == -1.0
        assert compute_reward(0.3, True, 5, "constant") == 10.0

    def test_reduction_variant_decays_bonus(self):
        assert compute_reward(0.3, False, 5, "reduction") == 0.0
        reward = compute_reward(0.3, True, 3, "reduction")
        assert reward == 10.0 * 0.99**3
        assert abs(reward - 9.70299) < 1e-9

    def test_reversed_variant_pays_negated_error(self):
        assert compute_reward(1.0, False, 2, "reversed", error=42.0) == -42.0
        assert compute_reward(1.0, True, 2, "reversed", error=42.0) == 10.0

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            compute_reward(0.1, False, 1, "other")


def reversed_nets(window=5):
    """Agent nets marked as trained with the ``reversed`` reward."""
    nets = init_agent(window=window, hidden=4, seed=0)
    nets.reversed_state = True
    return nets


def reversed_state(durations, window=3):
    """``agent_state`` of a reversed agent for an observation with ``durations``."""
    obs = PolicyObservation(
        iteration_index=len(durations), errors=(7.0,) * (len(durations) + 1),
        durations=tuple(durations),
    )
    return agent_state(reversed_nets(window), obs)


class TestReversedState:
    def test_empty_history_is_zero(self):
        np.testing.assert_array_equal(reversed_state([]), [0.0, 0.0, 0.0])

    def test_negates_and_pads(self):
        np.testing.assert_array_equal(reversed_state([0.5]), [-0.5, -0.5, -0.5])
        np.testing.assert_array_equal(
            reversed_state([0.1, 0.2, 0.3, 0.4]), [-0.2, -0.3, -0.4]
        )


class TestEnvConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EnvConfig(reward_variant="other")
        with pytest.raises(ValueError):
            EnvConfig(max_iterations=0)
        for threshold in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="threshold"):
                EnvConfig(threshold=threshold)


class TestEpisodes:
    def test_reset_observation(self, suite_problem_0):
        env = BAEnv(EnvConfig())
        obs = env.reset(suite_problem_0)
        assert obs.iteration_index == 0
        assert obs.errors == (env.solver_state.error_history[0],)
        assert obs.durations == obs.lambdas == ()

    def test_reset_observation_clips_large_errors(self):
        # the observation keeps the error; the agent's view of it is clipped
        problem = generate_synthetic(4, 6, seed=2)
        env = BAEnv(EnvConfig())
        obs = env.reset(problem)
        assert obs.errors == (env.solver_state.error_history[0],)
        assert obs.errors[0] > 1000.0
        nets = init_agent(window=5, hidden=4, seed=0)
        np.testing.assert_array_equal(agent_state(nets, obs), [1000.0] * 5)

    def test_step_penalizes_duration(self, suite_problem_0):
        env = BAEnv(EnvConfig(deterministic_time=True))
        env.reset(suite_problem_0)
        out = env.step(0.25)
        assert out.reward == -1.0
        assert out.done is False
        assert out.outcome is None
        assert out.observation.durations == (1.0,)
        assert out.observation.iteration_index == 1
        assert out.observation.lambdas == (0.25,)

    def test_convergence_pays_bonus(self, suite_problem_0):
        env = BAEnv(EnvConfig(deterministic_time=True))
        rewards, outs = run_episode(env, suite_problem_0, FixedPolicy(1e-15))
        assert outs[-1].outcome == "converged"
        assert rewards[-1] == 10.0
        assert all(r == -1.0 for r in rewards[:-1])
        assert len(rewards) <= 8

    def test_constant_variant_counts_iterations(self, suite_problem_0):
        env = BAEnv(EnvConfig(reward_variant="constant", deterministic_time=True))
        rewards, _ = run_episode(env, suite_problem_0, ClassicPolicy())
        assert rewards[-1] == 10.0
        assert sum(rewards) == -(len(rewards) - 1) + 10.0

    def test_reduction_variant_pays_only_at_convergence(self, suite_problem_0):
        env = BAEnv(EnvConfig(reward_variant="reduction", deterministic_time=True))
        rewards, outs = run_episode(env, suite_problem_0, FixedPolicy(1e-15))
        iterations = outs[-1].observation.iteration_index
        assert all(r == 0.0 for r in rewards[:-1])
        assert rewards[-1] == 10.0 * 0.99**iterations

    def test_reversed_variant_swaps_state_and_reward(self, suite_problem_0):
        # the env pays the negated error; the agent is shown negated durations
        env = BAEnv(EnvConfig(reward_variant="reversed", deterministic_time=True))
        nets = reversed_nets()
        obs = env.reset(suite_problem_0)
        np.testing.assert_array_equal(agent_state(nets, obs), [0.0] * 5)
        out = env.step(0.25)
        assert out.reward == -out.observation.errors[-1]
        np.testing.assert_array_equal(agent_state(nets, out.observation), [-1.0] * 5)
        # the observation itself is the episode every env gives
        plain = BAEnv(EnvConfig(deterministic_time=True))
        plain.reset(suite_problem_0)
        assert out.observation == plain.step(0.25).observation
        nets.reversed_state = False
        expected = make_state(out.observation.errors, 5)
        np.testing.assert_array_equal(agent_state(nets, out.observation), expected)

    def test_iteration_cap_flags_timeout(self):
        problem = generate_synthetic(10, 10, seed=0)
        env = BAEnv(EnvConfig(max_iterations=3, deterministic_time=True))
        env.reset(problem)
        out = env.step(1e8)
        assert out.done is False
        out = env.step(1e8)
        assert out.done is False
        out = env.step(1e8)
        assert out.done is True
        assert out.outcome == "iteration-cap"
        assert out.reward == -1.0

    def test_rejected_steps_do_not_converge(self):
        problem = generate_synthetic(10, 10, seed=7)
        env = BAEnv(
            EnvConfig(accept_only_improving=True, max_iterations=3, deterministic_time=True)
        )
        env.reset(problem)
        initial = env.solver_state.error_history[0]
        for step in (1, 2, 3):
            out = env.step(1e-12)
            assert env.solver_state.last_step_accepted is False
            assert out.observation.errors[-1] == initial
            assert out.done is (step == 3)
        assert out.outcome == "iteration-cap"

    def test_step_after_done_raises(self, suite_problem_0):
        env = BAEnv(EnvConfig(max_iterations=1))
        env.reset(suite_problem_0)
        env.step(0.25)
        with pytest.raises(EpisodeDoneError):
            env.step(0.25)

    def test_step_before_reset_raises(self):
        env = BAEnv(EnvConfig())
        with pytest.raises(EpisodeDoneError):
            env.step(0.25)
        with pytest.raises(RuntimeError):
            env.solver_state

    def test_reset_clears_done(self, suite_problem_0):
        env = BAEnv(EnvConfig(max_iterations=1))
        env.reset(suite_problem_0)
        env.step(0.25)
        env.reset(suite_problem_0)
        out = env.step(0.25)
        assert out.observation.iteration_index == 1

    def test_numerical_failure_terminates(self, suite_problem_0, monkeypatch):
        monkeypatch.setattr(
            solver,
            "damped_step",
            lambda lin, lam: (_ for _ in ()).throw(
                SingularSystemError("injected")
            ),
        )
        env = BAEnv(EnvConfig())
        env.reset(suite_problem_0)
        initial = env.solver_state.error_history[0]
        out = env.step(0.25)
        assert out.done is True
        assert out.outcome == "numerical-failure"
        # the state keeps its last valid error; the trace records the failure
        assert out.observation.errors == (initial,)
        assert out.observation.durations == ()  # the failed attempt completed nothing
        assert out.observation.lambdas == (0.25,)
        assert env.records[0].lam == 0.25
        assert np.isnan(env.records[0].error)


class TestAgreementWithSolve:
    def test_episode_matches_solve(self, suite_problem_0):
        env = BAEnv(EnvConfig(deterministic_time=True))
        _, outs = run_episode(env, suite_problem_0, ClassicPolicy())
        result = solve(suite_problem_0, ClassicPolicy(), deterministic_time=True)
        assert outs[-1].outcome == result.outcome
        assert outs[-1].observation.iteration_index == result.iterations
        assert outs[-1].observation.errors[-1] == result.final_error
        assert outs[-1].observation.lambdas == tuple(r.lam for r in result.records)

    def test_duration_return_identity(self, suite_problem_0):
        env = BAEnv(EnvConfig())
        rewards, outs = run_episode(env, suite_problem_0, ClassicPolicy())
        assert outs[-1].outcome == "converged"
        durations = env.solver_state.durations
        expected = -sum(durations[:-1]) + 10.0
        assert abs(sum(rewards) - expected) <= 1e-12 * max(1.0, abs(expected))


class TestTrace:
    def test_trace_csv_schema(self, suite_problem_0):
        env = BAEnv(EnvConfig(deterministic_time=True))
        rewards, outs = run_episode(env, suite_problem_0, ClassicPolicy())
        lines = records_to_csv(env.records).splitlines()
        assert lines[0] == "iter,lambda,error,duration_s"
        assert len(lines) == len(rewards) + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == 0.25
        assert float(first[2]) == outs[0].observation.errors[-1]

    def test_trace_resets_with_episode(self, suite_problem_0):
        env = BAEnv(EnvConfig(max_iterations=2, deterministic_time=True))
        env.reset(suite_problem_0)
        env.step(0.25)
        env.step(0.25)
        env.reset(suite_problem_0)
        env.step(0.25)
        assert len(env.records) == 1


def hand_stepped_solve(problem, policy, **settings):
    """``solve`` as a loop written out by hand over ``reset`` and ``step``: the
    reference that ``BAEnv.rollout`` must reproduce result for result."""
    env = BAEnv(EnvConfig(**settings))
    out = env.step(policy.next_lambda(env.reset(problem)))
    while not out.done:
        out = env.step(policy.next_lambda(out.observation))
    state = env.solver_state
    return SolveResult(
        params=state.params,
        outcome=out.outcome,
        iterations=state.iteration,
        total_time_s=float(sum(state.durations)),
        final_error=state.error_history[-1],
        initial_error=state.error_history[0],
        records=env.records,
    )


class TestRollout:
    def test_choose_runs_once_before_each_step_on_the_pre_step_state(self, suite_problem_0):
        env = BAEnv(EnvConfig(deterministic_time=True))
        policy = ClassicPolicy()
        seen = []

        def choose(obs):
            state = env.solver_state
            assert obs.iteration_index == state.iteration
            assert obs.errors == tuple(state.error_history)
            seen.append((obs, state))
            return policy.next_lambda(obs)

        steps = []
        for k, (obs, lam, out) in enumerate(env.rollout(suite_problem_0, choose)):
            assert len(seen) == k + 1  # asked for this step's damping, not the next one's
            assert obs is seen[k][0]
            assert lam == policy.next_lambda(obs)
            assert env.records[-1].lam == lam
            assert env.solver_state is not seen[k][1]  # stepped after the choice
            steps.append(out)
        assert [out.done for out in steps] == [False] * (len(steps) - 1) + [True]
        assert steps[-1].outcome == "converged"
        assert len(steps) == env.solver_state.iteration > 1

    def test_the_first_observation_is_the_reset_one(self, suite_problem_0):
        env = BAEnv(EnvConfig(max_iterations=1))
        (obs, lam, out), = env.rollout(suite_problem_0, lambda obs: 0.25)
        assert obs == BAEnv(EnvConfig()).reset(suite_problem_0)
        assert (lam, out.outcome) == (0.25, "iteration-cap")

    def test_a_policy_without_reset_drives_solve(self, suite_problem_0):
        class Bare:  # not a DampingPolicy: only ``next_lambda``
            def next_lambda(self, obs):
                return 1e-15

        assert not hasattr(Bare(), "reset")
        result = solve(suite_problem_0, Bare(), deterministic_time=True)
        assert result.converged
        assert {record.lam for record in result.records} == {1e-15}

    @pytest.mark.parametrize(
        "policy",
        [ClassicPolicy(), ConstantSchedulerPolicy(DEFAULT_SCHEDULE)],
        ids=["classic", "default-schedule"],
    )
    def test_solve_equals_the_hand_stepped_loop(self, suite_problem_0, policy):
        result = solve(suite_problem_0, policy, deterministic_time=True)
        expected = hand_stepped_solve(suite_problem_0, policy, deterministic_time=True)
        assert np.array_equal(result.params.cameras, expected.params.cameras)
        assert np.array_equal(result.params.points, expected.params.points)
        assert replace(result, params=None) == replace(expected, params=None)
        assert result.iterations > 1
