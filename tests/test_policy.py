import numpy as np
import pytest

from balm import solver
from balm.baselines import init_zero_net, zero_net_input
from balm.bench import suite_scene
from balm.env import BAEnv, EnvConfig, solve
from balm.policy import (
    DEFAULT_SCHEDULE,
    STATE_CLIP,
    AgentPolicy,
    ClassicPolicy,
    ConstantSchedulerPolicy,
    FixedPolicy,
    PolicyObservation,
    ZeroNetPolicy,
    agent_state,
    make_state,
    observe,
)
from balm.sac import init_agent
from balm.solver import (
    LAMBDA_MAX,
    LAMBDA_MIN,
    IterationRecord,
    ParamVector,
    SingularSystemError,
    SolverState,
)


def obs_at(iteration, raw=(), lambdas=()):
    return PolicyObservation(iteration_index=iteration, errors=tuple(raw), lambdas=tuple(lambdas))


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
        obs = observe(state, [])
        assert obs.iteration_index == 2
        assert obs.errors == (10.0, 8.0, 6.0)
        assert obs.durations == (0.1, 0.2)
        assert obs.lambdas == ()

    def test_observation_keeps_the_whole_episode(self):
        # no window: a policy cuts its own
        errors = [10.0 - k for k in range(9)]
        state = self.make_solver_state(errors, [0.1] * 8)
        records = [IterationRecord(k, 0.5 / k, 1.0, 0.1) for k in range(1, 9)]
        obs = observe(state, records)
        assert obs.errors == tuple(errors)
        assert obs.durations == (0.1,) * 8
        assert obs.lambdas == tuple(0.5 / k for k in range(1, 9))

    def test_errors_are_unclipped(self):
        state = self.make_solver_state([4e5, 2e5], [0.1])
        assert observe(state, []).errors == (4e5, 2e5)

    def test_lambdas_are_every_records_damping(self):
        state = self.make_solver_state([10.0, 8.0, 6.0, 5.0], [0.1, 0.2, 0.3])
        records = [IterationRecord(k, lam, 1.0, 0.1) for k, lam in enumerate((0.5, 0.25, 2.0), 1)]
        assert observe(state, records).lambdas == (0.5, 0.25, 2.0)
        assert observe(state, []).lambdas == ()


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
    config = EnvConfig(deterministic_time=True)
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
    [
        ClassicPolicy,
        lambda: ZeroNetPolicy(init_zero_net(window=5, hidden=16, seed=3)),
        lambda: AgentPolicy(init_agent(window=3, hidden=8, seed=0)),
        lambda: ZeroNetPolicy(init_zero_net(window=3, hidden=16, seed=3)),
    ],
    ids=["classic", "zero-net", "agent-window-3", "zero-net-window-3"],
)
def test_one_policy_drives_interleaved_episodes_as_it_drives_solves(make_policy):
    # A policy is a function of its observation: two episodes stepped in
    # turn with one instance pick the dampings each picks in its own solve.
    # The env keeps no window, so a window-3 policy runs in the default env.
    problems = [suite_scene(100), suite_scene(101)]
    policy = make_policy()
    interleaved = interleaved_lambdas(policy, problems)
    for problem, lambdas in zip(problems, interleaved):
        alone = solve(problem, policy, deterministic_time=True)
        assert lambdas == [record.lam for record in alone.records]
        assert len(lambdas) > 2


# Window-3 rows of a hand-made episode, as agent_state (plain, then reversed)
# and zero_net_input built them when the env cut the window: for each
# iteration k, the episode's first k + 1 errors and first k durations and
# dampings. Errors, dampings and durations run shorter than, as long as and
# longer than the window.
EPISODE_ERRORS = (9.0, 7.0, 1500.0, 4.0, 2.5, 2.0)
EPISODE_DURATIONS = (0.5, 0.25, 1.0, 2.0, 0.125)
EPISODE_LAMBDAS = (0.25, 0.5, 1e-3, 10.0, 1e-15)
U_QUARTER, U_HALF, U_MILLI = 0.710882223185782, 0.7443300004817799, 0.4444444444444444
WINDOW_ROWS = {
    0: ([9.0, 9.0, 9.0], [0.0, 0.0, 0.0], [9.0, 9.0, 9.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    1: ([9.0, 9.0, 7.0], [-0.5, -0.5, -0.5], [9.0, 9.0, 7.0, 0.0, 0.0, U_QUARTER, 0.0, 0.0, -1.0]),
    2: (
        [9.0, 7.0, 1000.0],
        [-0.5, -0.5, -0.25],
        [9.0, 7.0, 1000.0, 0.0, U_QUARTER, U_HALF, 0.0, -1.0, -1.0],
    ),
    3: (
        [7.0, 1000.0, 4.0],
        [-0.5, -0.25, -1.0],
        [7.0, 1000.0, 4.0, U_QUARTER, U_HALF, U_MILLI, -1.0, -1.0, -1.0],
    ),
    5: (
        [4.0, 2.5, 2.0],
        [-1.0, -2.0, -0.125],
        [4.0, 2.5, 2.0, U_MILLI, 0.8888888888888888, -0.8888888888888888, -1.0, -1.0, -1.0],
    ),
}


def window_rows(obs, window=3):
    plain = init_agent(window=window, hidden=4, seed=0)
    reversed_nets = init_agent(window=window, hidden=4, seed=0)
    reversed_nets.reversed_state = True
    return [
        agent_state(plain, obs).tolist(),
        agent_state(reversed_nets, obs).tolist(),
        zero_net_input(obs, window).tolist(),
    ]


class TestPolicyWindows:
    @pytest.mark.parametrize("k", sorted(WINDOW_ROWS))
    def test_rows_of_a_growing_episode(self, k):
        state = SolverState(
            params=ParamVector(np.zeros((2, 9)), np.zeros((2, 3))),
            error_history=list(EPISODE_ERRORS[: k + 1]),
            durations=list(EPISODE_DURATIONS[:k]),
            iteration=k,
        )
        records = [
            IterationRecord(i + 1, EPISODE_LAMBDAS[i], EPISODE_ERRORS[i + 1], EPISODE_DURATIONS[i])
            for i in range(k)
        ]
        assert window_rows(observe(state, records)) == list(WINDOW_ROWS[k])

    def test_rows_after_a_numerical_failure(self, monkeypatch):
        # The failed third attempt adds a damping but no error and no duration.
        env = BAEnv(EnvConfig(deterministic_time=True))
        obs = env.reset(suite_scene(100))
        for _ in range(2):
            obs = env.step(ClassicPolicy().next_lambda(obs)).observation
        monkeypatch.setattr(
            solver, "damped_step",
            lambda lin, lam: (_ for _ in ()).throw(SingularSystemError("injected")),
        )
        out = env.step(ClassicPolicy().next_lambda(obs))
        assert out.outcome == "numerical-failure"
        errors = [0.32658424742785974, 0.021947388445196857, 0.0033616631479458817]
        assert out.observation.errors == tuple(errors)
        assert out.observation.durations == (1.0, 1.0)
        assert out.observation.lambdas == (0.25, 0.125, 0.0625)
        assert window_rows(out.observation) == [
            errors,
            [-1.0, -1.0, -1.0],
            errors + [U_QUARTER, 0.6774344458897841, 0.6439866685937861, 0.0, -1.0, -1.0],
        ]


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

    def test_nan_entry_rejected_and_infinite_one_clamped(self):
        with pytest.raises(ValueError, match="NaN damping"):
            ConstantSchedulerPolicy(schedule=(float("nan"), 1.0))
        policy = ConstantSchedulerPolicy(schedule=(float("inf"), -float("inf")))
        assert [policy.next_lambda(obs_at(k)) for k in range(2)] == [LAMBDA_MAX, LAMBDA_MIN]


class TestFixedPolicy:
    def test_constant_output(self):
        policy = FixedPolicy(0.03)
        assert policy.next_lambda(obs_at(0)) == 0.03
        assert policy.next_lambda(obs_at(17)) == 0.03

    def test_clamped_to_range(self):
        assert FixedPolicy(1e20).next_lambda(obs_at(0)) == LAMBDA_MAX
        assert FixedPolicy(0.0).next_lambda(obs_at(0)) == LAMBDA_MIN
        assert FixedPolicy(float("inf")).next_lambda(obs_at(0)) == LAMBDA_MAX

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            FixedPolicy(float("nan"))
