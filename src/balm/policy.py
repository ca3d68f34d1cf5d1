"""Damping policies: pluggable rules that pick the next lambda each iteration.

Policies see a fixed-window observation of recent estimation errors (clipped
for the learned policies' benefit) plus bookkeeping fields, and return a
damping value in [1e-16, 1e16]. The classic rule additionally consumes the
unclipped error pair, since its compare-and-double logic must see real
errors even when they exceed the observation clip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    last_lambda: float
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


def observe(state: SolverState, window: int, last_lambda: float) -> PolicyObservation:
    """Build the policy observation for the solver's current state."""
    keep = max(window, 2)
    return PolicyObservation(
        state_vector=make_state(state.error_history, window),
        iteration_index=state.iteration,
        last_lambda=last_lambda,
        raw_errors=tuple(state.error_history[-keep:]),
        recent_durations=tuple(state.durations[-window:]),
    )


def _clamp(lam: float) -> float:
    return float(min(max(lam, LAMBDA_MIN), LAMBDA_MAX))


class DampingPolicy:
    """Base interface: ``next_lambda(obs)`` plus per-solve ``reset``."""

    kind = "base"

    def __init__(self, window: int = DEFAULT_WINDOW):
        self.window = window

    def reset(self) -> None:
        """Clear per-solve state; called at the start of every solve."""

    def next_lambda(self, obs: PolicyObservation) -> float:
        raise NotImplementedError


class ClassicPolicy(DampingPolicy):
    """Factor-of-two heuristic seeded at 1/4; carries its running lambda."""

    kind = "classic"

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

    kind = "constant_scheduler"

    def __init__(self, schedule=DEFAULT_SCHEDULE, window: int = DEFAULT_WINDOW):
        super().__init__(window)
        schedule = tuple(float(v) for v in schedule)
        if not schedule:
            raise ValueError("schedule must be non-empty")
        self.schedule = schedule

    def next_lambda(self, obs: PolicyObservation) -> float:
        return _clamp(self.schedule[obs.iteration_index % len(self.schedule)])


class FixedPolicy(DampingPolicy):
    kind = "fixed"

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

    kind = "agent"

    def __init__(self, nets):
        super().__init__(window=nets.policy.widths[0])
        self.nets = nets

    def next_lambda(self, obs: PolicyObservation) -> float:
        from .sac import select_action

        lam, _ = select_action(self.nets, obs.state_vector, deterministic=True)
        return _clamp(lam)


class ZeroNetPolicy(DampingPolicy):
    """Supervised baseline: predicts from recent states, actions, and rewards.

    The reward slots hold -1 per completed iteration, as in its training
    rollouts, whatever the timing mode, so its choices do not depend on the
    clock; its own raw outputs fill the action slots.
    """

    kind = "zero_net"

    def __init__(self, net):
        window = net.widths[0] // 3
        if net.widths[0] != 3 * window:
            raise ValueError("zero-net input width must be divisible by 3")
        super().__init__(window=window)
        self.net = net
        self._raw_actions: list[float] = []

    def reset(self) -> None:
        self._raw_actions = []

    def next_lambda(self, obs: PolicyObservation) -> float:
        from .baselines import _pad_left, _reward_slots, zero_net_action

        actions = _pad_left(self._raw_actions, self.window)
        rewards = _reward_slots(obs.recent_durations, self.window)
        lam, action = zero_net_action(self.net, obs.state_vector, actions, rewards)
        self._raw_actions.append(action)
        return _clamp(lam)


def make_policy(spec: dict) -> DampingPolicy:
    """Build a policy from a config mapping with a ``kind`` discriminator."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    window = int(spec.pop("window", DEFAULT_WINDOW))
    if kind == "classic":
        return ClassicPolicy(
            mode=spec.pop("mode", "standard"),
            initial_lambda=float(spec.pop("initial_lambda", DEFAULT_INITIAL_LAMBDA)),
            window=window,
        )
    if kind == "constant_scheduler":
        return ConstantSchedulerPolicy(
            schedule=spec.pop("schedule", DEFAULT_SCHEDULE), window=window
        )
    if kind == "fixed":
        return FixedPolicy(value=spec.pop("value"), window=window)
    if kind == "agent":
        from .sac import load_agent_checkpoint

        nets = spec.pop("nets", None)
        if nets is None:
            nets, _ = load_agent_checkpoint(spec.pop("checkpoint_path"))
        return AgentPolicy(nets)
    if kind == "zero_net":
        from .baselines import load_zero_net_checkpoint

        net = spec.pop("net", None)
        if net is None:
            net = load_zero_net_checkpoint(spec.pop("checkpoint_path"))
        return ZeroNetPolicy(net)
    raise ValueError(f"unknown policy kind {kind!r}")
