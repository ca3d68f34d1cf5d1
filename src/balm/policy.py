"""Damping policies: pluggable rules that pick the next lambda each iteration.

Policies see a fixed-window observation of recent estimation errors (clipped
for the learned policies' benefit) plus bookkeeping fields, and return a
damping value in [1e-16, 1e16]. The classic rule additionally consumes the
unclipped error pair, since its compare-and-double logic must see real
errors even when they exceed the observation clip.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nn import mlp_forward
from .solver import LAMBDA_MAX, LAMBDA_MIN, SolverState, classic_lambda_update

STATE_CLIP = 1000.0
DEFAULT_WINDOW = 5
DEFAULT_INITIAL_LAMBDA = 0.25
DEFAULT_SCHEDULE = (1e-15, 1e-15, 0.194, 0.551)


@dataclass
class PolicyObservation:
    """Per-iteration view handed to a damping policy.

    ``state_vector`` holds the last ``window`` errors, left-padded by
    repeating the earliest entry and clipped at 1000. ``raw_errors`` and
    ``recent_durations`` carry unclipped recent history for policies that
    need exact values.
    """

    state_vector: np.ndarray
    iteration_index: int
    raw_errors: tuple[float, ...] = ()
    recent_durations: tuple[float, ...] = ()


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


def make_reversed_state(durations, window: int) -> np.ndarray:
    """State for the reversed variant: negated durations, padded like make_state."""
    return make_state([-d for d in durations] or [0.0], window)


def observe(state: SolverState, window: int) -> PolicyObservation:
    """Build the policy observation for the solver's current state."""
    keep = max(window, 2)
    return PolicyObservation(
        state_vector=make_state(state.error_history, window),
        iteration_index=state.iteration,
        raw_errors=tuple(state.error_history[-keep:]),
        recent_durations=tuple(state.durations[-window:]),
    )


def _clamp(lam: float) -> float:
    return float(min(max(lam, LAMBDA_MIN), LAMBDA_MAX))


class DampingPolicy:
    """Base interface: ``next_lambda(obs)`` plus per-solve ``reset``."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        self.window = window

    def reset(self) -> None:
        """Clear per-solve state; called at the start of every solve."""

    def next_lambda(self, obs: PolicyObservation) -> float:
        raise NotImplementedError


class ClassicPolicy(DampingPolicy):
    """Factor-of-two heuristic seeded at 1/4; carries its running lambda."""

    def __init__(
        self,
        mode: str = "standard",
        initial_lambda: float = DEFAULT_INITIAL_LAMBDA,
        window: int = DEFAULT_WINDOW,
    ):
        super().__init__(window)
        if mode not in ("standard", "paper"):
            raise ValueError(f"unknown classic mode {mode!r}")
        self.mode = mode
        self.initial_lambda = initial_lambda
        self._lam = initial_lambda

    def reset(self) -> None:
        self._lam = self.initial_lambda

    def next_lambda(self, obs: PolicyObservation) -> float:
        if obs.iteration_index == 0:
            self._lam = self.initial_lambda
            return _clamp(self._lam)
        if len(obs.raw_errors) < 2:
            raise ValueError("classic policy needs the last two errors after iteration 0")
        self._lam = classic_lambda_update(
            self._lam, obs.raw_errors[-1], obs.raw_errors[-2], mode=self.mode
        )
        return _clamp(self._lam)


class ConstantSchedulerPolicy(DampingPolicy):
    """Cycles through a fixed schedule by iteration index."""

    def __init__(self, schedule=DEFAULT_SCHEDULE, window: int = DEFAULT_WINDOW):
        super().__init__(window)
        schedule = tuple(float(v) for v in schedule)
        if not schedule:
            raise ValueError("schedule must be non-empty")
        self.schedule = schedule

    def next_lambda(self, obs: PolicyObservation) -> float:
        return _clamp(self.schedule[obs.iteration_index % len(self.schedule)])


class FixedPolicy(DampingPolicy):
    def __init__(self, value: float, window: int = DEFAULT_WINDOW):
        super().__init__(window)
        self.value = float(value)

    def next_lambda(self, obs: PolicyObservation) -> float:
        return _clamp(self.value)


class AgentPolicy(DampingPolicy):
    """Deterministic wrapper over trained actor-critic networks.

    Evaluation always takes the squashed mean action; exploration noise is a
    training-loop concern, not a solve-time one.
    """

    def __init__(self, nets):
        super().__init__(window=nets.policy.widths[0])
        self.nets = nets

    def next_lambda(self, obs: PolicyObservation) -> float:
        from .sac import select_action

        lam, _ = select_action(self.nets, obs.state_vector, deterministic=True)
        return _clamp(lam)


class ReversedStateAgentPolicy(AgentPolicy):
    """An agent trained with the ``reversed`` reward: shown the negated
    durations it trained on, not ``solve``'s clipped errors."""

    def next_lambda(self, obs: PolicyObservation) -> float:
        state = make_reversed_state(obs.recent_durations, self.window)
        return super().next_lambda(replace(obs, state_vector=state))


class ZeroNetPolicy(DampingPolicy):
    """Supervised baseline: predicts from recent states, actions, and rewards.

    Each call feeds the net the ``zero_net_input`` row of the dampings this
    policy returned so far, the row its training rollouts labeled, so its
    choices do not depend on the clock.
    """

    def __init__(self, net):
        window = net.widths[0] // 3
        if net.widths[0] != 3 * window:
            raise ValueError("zero-net input width must be divisible by 3")
        super().__init__(window=window)
        self.net = net
        self._lambdas: list[float] = []

    def reset(self) -> None:
        self._lambdas = []

    def next_lambda(self, obs: PolicyObservation) -> float:
        from .baselines import zero_net_input
        from .sac import lambda_from_action

        x = zero_net_input(obs, self._lambdas, self.window)
        lam = _clamp(lambda_from_action(np.tanh(mlp_forward(self.net, x[None])[0, 0])))
        self._lambdas.append(lam)
        return lam
