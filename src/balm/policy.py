"""Damping policies: pluggable rules that pick the next lambda each iteration.

A policy is a function of its observation, so one instance can drive any
number of solves, even interleaved ones. The observation is the episode so
far: every error (unclipped), every completed iteration's duration and every
applied damping; a policy returns a damping in [1e-16, 1e16]. The learned
policies cut their own window of it (``agent_state``, ``zero_net_input``);
the classic rule halves or doubles the last damping by the last error pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import mlp_forward_cached
from .solver import LAMBDA_MAX, LAMBDA_MIN, SolverState

STATE_CLIP = 1000.0
DEFAULT_WINDOW = 5
DEFAULT_INITIAL_LAMBDA = 0.25
DEFAULT_SCHEDULE = (1e-15, 1e-15, 0.194, 0.551)


@dataclass
class PolicyObservation:
    """The episode so far, handed to a damping policy.

    ``errors`` holds every error from the initial one on, unclipped;
    ``durations`` the state's completed iterations, so not a failed attempt;
    ``lambdas`` every applied damping, a failed attempt's included.
    """

    iteration_index: int
    errors: tuple[float, ...]
    durations: tuple[float, ...] = ()
    lambdas: tuple[float, ...] = ()


def make_state(error_history, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Fixed-window state: last ``window`` errors, padded left, clipped at 1000."""
    if window < 1:
        raise ValueError("window must be at least 1")
    history = list(error_history)
    if not history:
        raise ValueError("error history must contain at least one entry")
    recent = history[-window:]
    padded = [recent[0]] * (window - len(recent)) + recent
    return np.minimum(np.asarray(padded, dtype=float), STATE_CLIP)


def observe(state: SolverState) -> PolicyObservation:
    """The policy observation of the solver's state: its run so far."""
    return PolicyObservation(
        iteration_index=state.iteration,
        errors=tuple(state.error_history),
        durations=tuple(state.durations),
        lambdas=tuple(record.lam for record in state.records),
    )


def agent_state(nets, obs: PolicyObservation) -> np.ndarray:
    """The state an agent is shown: its window of ``obs.errors``, or, for an
    agent trained with the ``reversed`` reward (``nets.reversed_state``), its
    window of the negated durations (zeros before the first iteration).
    Training and ``AgentPolicy`` both read it here, so an agent always sees
    what it trained on."""
    if nets.reversed_state:
        return make_state([-d for d in obs.durations] or [0.0], nets.window)
    return make_state(obs.errors, nets.window)


def _clamp(lam: float) -> float:
    return float(min(max(lam, LAMBDA_MIN), LAMBDA_MAX))


class DampingPolicy:
    """Base interface: ``next_lambda(obs)``, a function of ``obs`` alone. ``window``
    is a learned policy's input width; a rule-based one keeps the default."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        self.window = window

    def next_lambda(self, obs: PolicyObservation) -> float:
        raise NotImplementedError


class ClassicPolicy(DampingPolicy):
    """Factor-of-two heuristic: 1/4 at iteration 0, then the last damping halved
    on an improvement and doubled otherwise (``paper`` mode: halved if worse)."""

    def __init__(self, mode: str = "standard"):
        super().__init__()
        if mode not in ("standard", "paper"):
            raise ValueError(f"unknown classic mode {mode!r}")
        self.mode = mode

    def next_lambda(self, obs: PolicyObservation) -> float:
        if obs.iteration_index == 0:
            return DEFAULT_INITIAL_LAMBDA
        if len(obs.errors) < 2 or not obs.lambdas:
            raise ValueError("classic policy needs two errors and a damping after iteration 0")
        err_prev, err_t = obs.errors[-2:]
        halve = err_t < err_prev if self.mode == "standard" else err_t > err_prev
        return _clamp(obs.lambdas[-1] * (0.5 if halve else 2.0))


class ConstantSchedulerPolicy(DampingPolicy):
    """Cycles through a fixed schedule by iteration index. A NaN damping is
    rejected; an out-of-range or infinite one is clamped when used."""

    def __init__(self, schedule=DEFAULT_SCHEDULE):
        super().__init__()
        schedule = tuple(float(v) for v in schedule)
        if not schedule:
            raise ValueError("schedule must be non-empty")
        if np.isnan(schedule).any():
            raise ValueError(f"schedule {list(schedule)} has a NaN damping")
        self.schedule = schedule

    def next_lambda(self, obs: PolicyObservation) -> float:
        return _clamp(self.schedule[obs.iteration_index % len(self.schedule)])


class FixedPolicy(DampingPolicy):
    """One damping throughout; NaN is rejected, an out-of-range or infinite
    value is clamped when used."""

    def __init__(self, value: float):
        super().__init__()
        self.value = float(value)
        if np.isnan(self.value):
            raise ValueError("fixed damping is NaN")

    def next_lambda(self, obs: PolicyObservation) -> float:
        return _clamp(self.value)


class AgentPolicy(DampingPolicy):
    """Deterministic wrapper over trained actor-critic networks.

    Evaluation always takes the squashed mean action; exploration noise is a
    training-loop concern, not a solve-time one. The agent is shown
    ``agent_state``, the state it trained on.
    """

    def __init__(self, nets):
        super().__init__(window=nets.policy.widths[0])
        self.nets = nets

    def next_lambda(self, obs: PolicyObservation) -> float:
        from .sac import select_action

        # A net whose output overflows gives a non-finite damping, which
        # ``lm_iterate`` records as a failed iteration: no warning is due.
        with np.errstate(over="ignore", invalid="ignore"):
            lam, _ = select_action(self.nets, agent_state(self.nets, obs), deterministic=True)
        return _clamp(lam)


class ZeroNetPolicy(DampingPolicy):
    """Supervised baseline: predicts from recent states, actions, and rewards.

    Each call feeds the net the ``zero_net_input`` row of the observation,
    the row its training rollouts labeled, so its choices do not depend on
    the clock.
    """

    def __init__(self, net):
        window = net.widths[0] // 3
        if net.widths[0] != 3 * window:
            raise ValueError("zero-net input width must be divisible by 3")
        if net.widths[-1] != 1:
            raise ValueError(f"a zero-net has one output, not {net.widths[-1]}")
        super().__init__(window=window)
        self.net = net

    def next_lambda(self, obs: PolicyObservation) -> float:
        from .baselines import zero_net_input
        from .sac import lambda_from_action

        with np.errstate(over="ignore", invalid="ignore"):  # as in ``AgentPolicy``
            out, _ = mlp_forward_cached(self.net, zero_net_input(obs, self.window)[None])
            return _clamp(lambda_from_action(np.tanh(out[0, 0])))
