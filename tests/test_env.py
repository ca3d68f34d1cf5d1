import numpy as np
import pytest

from balm import solver
from balm.env import (
    BAEnv,
    EnvConfig,
    EpisodeDoneError,
    compute_reward,
)
from balm.policy import ClassicPolicy, FixedPolicy, PolicyObservation, agent_state
from balm.sac import init_agent
from balm.scene import generate_synthetic
from balm.solver import SingularSystemError, records_to_csv, solve

from conftest import suite_problem


def run_episode(env, problem, policy):
    obs = env.reset(problem)
    rewards = []
    infos = []
    done = False
    while not done:
        out = env.step(policy.next_lambda(obs))
        obs = out.observation
        rewards.append(out.reward)
        infos.append(out.info)
        done = out.done
    return rewards, infos


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
        state_vector=np.full(window, 7.0), iteration_index=len(durations),
        recent_durations=tuple(durations),
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
            EnvConfig(window=0)
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
        first = env.solver_state.error_history[0]
        np.testing.assert_array_equal(obs.state_vector, [first] * 5)

    def test_reset_observation_clips_large_errors(self):
        problem = generate_synthetic(4, 6, seed=2)
        env = BAEnv(EnvConfig())
        obs = env.reset(problem)
        assert env.solver_state.error_history[0] > 1000.0
        np.testing.assert_array_equal(obs.state_vector, [1000.0] * 5)

    def test_step_penalizes_duration(self, suite_problem_0):
        env = BAEnv(EnvConfig(deterministic_time=True))
        env.reset(suite_problem_0)
        out = env.step(0.25)
        assert out.reward == -1.0
        assert out.done is False
        assert out.info["duration_s"] == 1.0
        assert out.info["iteration"] == 1
        assert out.info["lambda"] == 0.25
        assert out.info["timeout"] is False
        assert out.info["outcome"] is None

    def test_convergence_pays_bonus(self, suite_problem_0):
        env = BAEnv(EnvConfig(deterministic_time=True))
        rewards, infos = run_episode(env, suite_problem_0, FixedPolicy(1e-15))
        assert infos[-1]["outcome"] == "converged"
        assert infos[-1]["timeout"] is False
        assert rewards[-1] == 10.0
        assert all(r == -1.0 for r in rewards[:-1])
        assert len(rewards) <= 8

    def test_constant_variant_counts_iterations(self, suite_problem_0):
        env = BAEnv(EnvConfig(reward_variant="constant", deterministic_time=True))
        rewards, infos = run_episode(env, suite_problem_0, ClassicPolicy())
        assert rewards[-1] == 10.0
        assert sum(rewards) == -(len(rewards) - 1) + 10.0

    def test_reduction_variant_pays_only_at_convergence(self, suite_problem_0):
        env = BAEnv(EnvConfig(reward_variant="reduction", deterministic_time=True))
        rewards, infos = run_episode(env, suite_problem_0, FixedPolicy(1e-15))
        iterations = infos[-1]["iteration"]
        assert all(r == 0.0 for r in rewards[:-1])
        assert rewards[-1] == 10.0 * 0.99**iterations

    def test_reversed_variant_swaps_state_and_reward(self, suite_problem_0):
        # the env pays the negated error; the agent is shown negated durations
        env = BAEnv(EnvConfig(reward_variant="reversed", deterministic_time=True))
        nets = reversed_nets()
        obs = env.reset(suite_problem_0)
        np.testing.assert_array_equal(agent_state(nets, obs), [0.0] * 5)
        out = env.step(0.25)
        assert out.reward == -out.info["error"]
        np.testing.assert_array_equal(agent_state(nets, out.observation), [-1.0] * 5)
        # the observation itself is the error window every env gives
        plain = BAEnv(EnvConfig(deterministic_time=True))
        plain.reset(suite_problem_0)
        expected = plain.step(0.25).observation.state_vector
        np.testing.assert_array_equal(out.observation.state_vector, expected)
        nets.reversed_state = False
        assert agent_state(nets, out.observation) is out.observation.state_vector
        # unclipped errors still ride along for the classic rule
        assert out.observation.raw_errors[-1] == out.info["error"]

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
        assert out.info["timeout"] is True
        assert out.info["outcome"] == "iteration-cap"
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
            assert out.info["error"] == initial
            assert out.done is (step == 3)
        assert out.info["outcome"] == "iteration-cap"
        assert out.info["timeout"] is True

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
        with pytest.raises(RuntimeError):
            env.problem

    def test_reset_clears_done(self, suite_problem_0):
        env = BAEnv(EnvConfig(max_iterations=1))
        env.reset(suite_problem_0)
        env.step(0.25)
        env.reset(suite_problem_0)
        out = env.step(0.25)
        assert out.info["iteration"] == 1

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
        assert out.info["outcome"] == "numerical-failure"
        assert out.info["timeout"] is False
        # the state keeps its last valid error; the trace records the failure
        assert out.info["error"] == initial
        assert env.records[0].lam == 0.25
        assert np.isnan(env.records[0].error)


class TestAgreementWithSolve:
    def test_episode_matches_solve(self, suite_problem_0):
        env = BAEnv(EnvConfig(deterministic_time=True))
        _, infos = run_episode(env, suite_problem_0, ClassicPolicy())
        result = solve(suite_problem_0, ClassicPolicy(), deterministic_time=True)
        assert infos[-1]["iteration"] == result.iterations
        assert infos[-1]["error"] == result.final_error
        assert [i["lambda"] for i in infos] == [r.lam for r in result.records]

    def test_duration_return_identity(self, suite_problem_0):
        env = BAEnv(EnvConfig())
        rewards, infos = run_episode(env, suite_problem_0, ClassicPolicy())
        assert infos[-1]["outcome"] == "converged"
        durations = env.solver_state.durations
        expected = -sum(durations[:-1]) + 10.0
        assert abs(sum(rewards) - expected) <= 1e-12 * max(1.0, abs(expected))


class TestTrace:
    def test_trace_csv_schema(self, suite_problem_0):
        env = BAEnv(EnvConfig(deterministic_time=True))
        rewards, infos = run_episode(env, suite_problem_0, ClassicPolicy())
        lines = records_to_csv(env.records).splitlines()
        assert lines[0] == "iter,lambda,error,duration_s"
        assert len(lines) == len(rewards) + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == 0.25
        assert float(first[2]) == infos[0]["error"]

    def test_trace_resets_with_episode(self, suite_problem_0):
        env = BAEnv(EnvConfig(max_iterations=2, deterministic_time=True))
        env.reset(suite_problem_0)
        env.step(0.25)
        env.step(0.25)
        env.reset(suite_problem_0)
        env.step(0.25)
        assert len(env.records) == 1
