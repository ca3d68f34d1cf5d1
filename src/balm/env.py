"""Episode interface over the solver for training damping agents.

One episode is one solve: ``reset`` seeds the state on a problem, each
``step`` runs a single damped iteration with the agent's lambda and returns
the observation of the episode so far, the reward and the outcome (``None``
while the episode runs). Reaching the iteration cap terminates without the
convergence bonus, and its outcome tells learners they may still bootstrap
through it. ``BAEnv.rollout`` is the one episode loop: ``solve`` plays it
with a damping policy, and the zero-net collector and SAC training with
their own choosers.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields

from .policy import PolicyObservation, observe
from .scene import BAProblem
from .solver import IterationRecord, ParamVector, SolverState, convergence_check, lm_iterate

OUTCOME_CONVERGED = "converged"
OUTCOME_ITERATION_CAP = "iteration-cap"
OUTCOME_NUMERICAL_FAILURE = "numerical-failure"
REWARD_VARIANTS = ("duration", "constant", "reduction", "reversed")
CONVERGENCE_BONUS = 10.0
REDUCTION_RATE = 0.01  # per-iteration decay of the ``reduction`` variant's bonus


class EpisodeDoneError(RuntimeError):
    """step() was called on a finished episode; call reset() first."""


@dataclass
class EnvConfig:
    reward_variant: str = "duration"
    max_iterations: int = 100
    threshold: float = 1e-6
    deterministic_time: bool = False
    # A worsening step leaves the state unchanged and cannot converge.
    accept_only_improving: bool = False

    def __post_init__(self) -> None:
        if self.reward_variant not in REWARD_VARIANTS:
            raise ValueError(
                f"reward_variant must be one of {REWARD_VARIANTS}, got {self.reward_variant!r}"
            )
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"threshold must be finite and positive, got {self.threshold}")

    @classmethod
    def of(cls, config) -> EnvConfig:
        """The env settings among ``config``'s keys (a mapping) or attributes (an
        object), checked; those it lacks keep their defaults and its other entries
        are ignored. The configs, ``run_comparison`` and the CLI build theirs so."""
        values = config if isinstance(config, Mapping) else vars(config)
        return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})


@dataclass
class StepOutcome:
    observation: PolicyObservation
    reward: float
    outcome: str | None  # an ``OUTCOME_*`` once the episode ends, else None

    @property
    def done(self) -> bool:
        return self.outcome is not None


@dataclass
class SolveResult:
    """An episode's outcome and its final state, from which every other fact
    is read: ``iterations`` and ``total_time_s`` count completed iterations,
    and after a numerical failure ``records`` also holds the failed attempt
    (error NaN)."""

    outcome: str
    state: SolverState

    @property
    def params(self) -> ParamVector:
        return self.state.params

    @property
    def records(self) -> list[IterationRecord]:
        return self.state.records

    @property
    def iterations(self) -> int:
        return self.state.iteration

    @property
    def total_time_s(self) -> float:
        return float(sum(self.state.durations))

    @property
    def initial_error(self) -> float:
        return self.state.error_history[0]

    @property
    def final_error(self) -> float:
        return self.state.error_history[-1]

    @property
    def converged(self) -> bool:
        return self.outcome == OUTCOME_CONVERGED


def compute_reward(
    duration_s: float,
    converged: bool,
    iteration: int,
    variant: str,
    error: float = float("nan"),
) -> float:
    """Per-step reward for each variant; the bonus replaces the step penalty.

    ``reduction`` pays nothing per step and a decayed bonus on convergence;
    ``reversed`` pays the negated estimation error (roles of state and reward
    swapped), keeping the plain bonus on convergence.
    """
    if variant == "duration":
        return CONVERGENCE_BONUS if converged else -duration_s
    if variant == "constant":
        return CONVERGENCE_BONUS if converged else -1.0
    if variant == "reduction":
        return CONVERGENCE_BONUS * (1.0 - REDUCTION_RATE) ** iteration if converged else 0.0
    if variant == "reversed":
        return CONVERGENCE_BONUS if converged else -error
    raise ValueError(f"unknown reward variant {variant!r}")


class BAEnv:
    """Gym-style environment; the action is the damping for one iteration.

    ``solver_state`` is the episode so far: its ``records`` hold one entry
    per step, a failed step's included.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        self._problem: BAProblem | None = None
        self._state: SolverState | None = None
        self._done = True

    @property
    def solver_state(self) -> SolverState:
        if self._state is None:
            raise RuntimeError("environment has not been reset")
        return self._state

    def reset(self, problem: BAProblem) -> PolicyObservation:
        self._problem = problem
        self._state = SolverState.initial(problem)
        self._done = False
        return observe(self._state)

    def step(self, lam: float) -> StepOutcome:
        if self._done:
            raise EpisodeDoneError("episode is finished; call reset")
        cfg = self.config
        state, record = lm_iterate(
            self._problem,
            self._state,
            float(lam),
            deterministic_time=cfg.deterministic_time,
            accept_only_improving=cfg.accept_only_improving,
        )
        self._state = state

        # A rejected step leaves the error flat, which is not convergence.
        if state.failed:
            outcome = OUTCOME_NUMERICAL_FAILURE
        elif state.last_step_accepted and convergence_check(state.error_history, cfg.threshold):
            outcome = OUTCOME_CONVERGED
        elif state.iteration >= cfg.max_iterations:
            outcome = OUTCOME_ITERATION_CAP
        else:
            outcome = None
        self._done = outcome is not None

        reward = compute_reward(
            record.duration_s,
            outcome == OUTCOME_CONVERGED,
            state.iteration,
            cfg.reward_variant,
            error=state.error_history[-1],
        )
        return StepOutcome(observe(state), reward, outcome)

    def rollout(self, problem: BAProblem, choose):
        """Play one episode on ``problem``: reset, then ``choose(observation)``
        picks each damping, with ``solver_state`` still the state it observes.
        Yields ``(observation, lam, StepOutcome)`` per step, the last one done.
        """
        observation, done = self.reset(problem), False
        while not done:
            lam = choose(observation)
            out = self.step(lam)
            yield observation, lam, out
            observation, done = out.observation, out.done


def solve(problem: BAProblem, policy, **settings) -> SolveResult:
    """Roll out one ``BAEnv`` episode with ``policy`` choosing every damping.

    ``settings`` are ``EnvConfig`` fields (the rest keep its defaults), checked
    by it. The episode ends when the error plateaus, the cap is hit, or
    numerics fail. ``policy`` supplies the damping each iteration through
    ``next_lambda(observation)``, a function of the observation alone, so
    one instance can be reused across solves.
    """
    env = BAEnv(EnvConfig(**settings))
    for _, _, out in env.rollout(problem, policy.next_lambda):
        pass
    return SolveResult(out.outcome, env.solver_state)
