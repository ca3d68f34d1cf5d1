"""Greedy supervised baseline: a net regressed toward one-step-optimal damping.

The oracle tries every candidate damping from the solver state and keeps
whichever minimizes the very next estimation error. A wide MLP maps the
recent (states, actions, rewards) window to that greedy choice through the
same tanh action squash the agent uses. By construction the baseline
never sees episode return, only the next step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import BAEnv, EnvConfig
from .nn import (
    Mlp,
    adam_init,
    load_arrays,
    mlp_from_arrays,
    mlp_init,
    mlp_to_arrays,
    mlp_train_step,
    save_arrays,
)
from .policy import ClassicPolicy, PolicyObservation, ZeroNetPolicy, make_state
from .sac import ACTION_OFFSET, ACTION_SCALE, NonFiniteLossError
from .solver import NumericalFailureError, SolverState, evaluate_steps

DEFAULT_ORACLE_GRID = (1e-16, 1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.25, 0.5, 1.0, 10.0, 1e3)
ZERO_NET_HIDDEN = 1280
ZERO_NET_BATCH = 64
ATANH_CLIP = 1.0 - 1e-9


class OracleFailureError(RuntimeError):
    """Every candidate damping produced a failed trial step."""


def u_from_lambda(lam: float) -> float:
    """Inverse of the action map, clipped onto the squashed range."""
    u = (np.log10(lam) - ACTION_OFFSET) / ACTION_SCALE
    return float(np.clip(u, -1.0, 1.0))


def raw_regression_target(lam: float) -> float:
    """Pre-squash regression target; grid ends land on the atanh clip."""
    return float(np.arctanh(np.clip(u_from_lambda(lam), -ATANH_CLIP, ATANH_CLIP)))


def zero_net_oracle(problem, state: SolverState, grid=DEFAULT_ORACLE_GRID) -> float:
    """Greedy damping: the grid value whose trial step gives the lowest error.

    Every candidate's step and error come from one batched evaluation on
    the state's own linearization (``evaluate_steps``), each to the bit what
    ``lm_iterate`` would give from this state; ``lm_iterate`` then reuses
    that linearization. The state's parameters and history are not
    modified. A candidate whose step or error fails is skipped. Ties break
    toward the smaller candidate by scanning in ascending order.
    """
    candidates = sorted(float(g) for g in grid)
    if not candidates:
        raise ValueError("candidate grid must be non-empty")
    try:
        lin = state.linearization(problem)
    except NumericalFailureError as exc:
        raise OracleFailureError(f"the state cannot be linearized: {exc}") from exc
    outcomes = evaluate_steps(problem, state.params, lin, candidates)
    errors = {
        lam: outcome[1]
        for lam, outcome in zip(candidates, outcomes)
        if not isinstance(outcome, Exception)
    }
    if not errors:
        raise OracleFailureError("every candidate damping failed the trial step")
    return min(errors, key=errors.get)  # the first, smallest, of equal errors


def init_zero_net(window: int = 5, hidden: int = ZERO_NET_HIDDEN, seed: int = 0) -> Mlp:
    return mlp_init(
        [3 * window, hidden, hidden, hidden, 1], np.random.default_rng(seed)
    )


def zero_net_input(obs: PolicyObservation, window: int) -> np.ndarray:
    """The zero-net's input row: (states, actions, rewards) slots, ``window`` each.

    The states are the last ``window`` errors (``make_state``). The actions
    are the last applied dampings, mapped back to squashed space. The rewards
    are -1 per completed iteration among the last ``window``, the negated
    duration deterministic timing records, so the row does not depend on the
    clock or the timing mode. Action and reward slots are zero-padded on the
    left. The collector labels these rows and ``ZeroNetPolicy`` feeds them
    to the net.
    """
    row = np.zeros(3 * window)
    row[:window] = make_state(obs.errors, window)
    actions = [u_from_lambda(lam) for lam in obs.lambdas[-window:]]
    row[2 * window - len(actions) : 2 * window] = actions
    row[3 * window - len(obs.durations[-window:]) :] = -1.0
    return row


def _collect_labeled_windows(problem, net: Mlp | None, cfg: ZeroNetConfig):
    """One rollout in the env of the run's config ``cfg``; every visited
    state is labeled with the greedy damping.

    The chooser labels the pre-step state, then asks the policy that
    ``solve`` would: ``ClassicPolicy`` with no net (warm-start epoch),
    ``ZeroNetPolicy(net)`` otherwise. Each state's input is the
    ``zero_net_input`` row of its observation, the very row the policy is
    served there. The oracle is called by its module-global name, which
    ``perfbench`` rebinds to time each label.
    """
    policy = ClassicPolicy() if net is None else ZeroNetPolicy(net)
    env = BAEnv(EnvConfig.of(cfg))
    inputs, targets = [], []

    def label_then_choose(obs: PolicyObservation) -> float:
        inputs.append(zero_net_input(obs, cfg.window))
        targets.append(raw_regression_target(zero_net_oracle(problem, env.solver_state)))
        return policy.next_lambda(obs)

    for _ in env.rollout(problem, label_then_choose):
        pass
    return inputs, targets


@dataclass(frozen=True)
class ZeroNetConfig:
    """``zero_net_train``'s options, checked: values that would leave the net
    untrained (no epoch or pass), without a hidden unit, or non-finite, and
    the env fields (``EnvConfig``), raise ``ValueError`` naming the value."""

    epochs: int = 2
    seed: int = 0
    window: int = 5
    hidden: int = ZERO_NET_HIDDEN
    lr: float = 3e-4
    passes_per_epoch: int = 150
    max_iterations: int = EnvConfig.max_iterations
    threshold: float = EnvConfig.threshold
    deterministic_time: bool = True

    def __post_init__(self) -> None:
        EnvConfig.of(self)  # checks the env fields
        for name in ("epochs", "passes_per_epoch", "window", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")


def zero_net_train(problems, progress=None, **options) -> Mlp:
    """Alternate labeled-rollout collection with regression in raw-u space.

    ``options`` are ``ZeroNetConfig``'s fields; a value it rejects raises
    ``ValueError`` before any work. The reward slots count iterations in
    either timing mode (``zero_net_input``), so the trained net and its
    solves do not depend on ``deterministic_time``; it only sets the
    durations the env records. A non-finite regression loss raises
    ``NonFiniteLossError``.
    """
    if not problems:
        raise ValueError("need at least one training problem")
    cfg = ZeroNetConfig(**options)
    rng = np.random.default_rng(cfg.seed)
    net = init_zero_net(window=cfg.window, hidden=cfg.hidden, seed=cfg.seed)
    adam = adam_init(net)
    for epoch in range(cfg.epochs):
        driver = None if epoch == 0 else net
        xs: list = []
        ys: list = []
        for problem in problems:
            inputs, targets = _collect_labeled_windows(problem, driver, cfg)
            xs.extend(inputs)
            ys.extend(targets)
        features = np.asarray(xs)
        labels = np.asarray(ys)[:, None]
        loss = float("nan")
        for _ in range(cfg.passes_per_epoch):
            order = rng.permutation(len(features))
            for start in range(0, len(features), ZERO_NET_BATCH):
                idx = order[start : start + ZERO_NET_BATCH]
                loss = mlp_train_step(net, adam, features[idx], labels[idx], lr=cfg.lr)
                if not np.isfinite(loss):
                    raise NonFiniteLossError(f"non-finite regression loss {loss} at epoch {epoch}")
        if progress is not None:
            progress({"epoch": epoch, "samples": len(features), "loss": loss})
    return net


def save_zero_net_checkpoint(path, net: Mlp) -> None:
    meta = {
        "kind": "zero-net",
        "widths": list(net.widths),
        "window": net.widths[0] // 3,
    }
    save_arrays(path, meta, mlp_to_arrays(net))


def load_zero_net_checkpoint(path) -> Mlp:
    meta, arrays = load_arrays(path)
    if meta.get("kind") != "zero-net":
        raise ValueError(f"{path}: checkpoint is not a zero-net")
    return mlp_from_arrays(meta.get("widths"), arrays)
