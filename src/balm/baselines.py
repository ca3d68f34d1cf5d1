"""Greedy supervised baseline: a net regressed toward one-step-optimal damping.

The oracle tries every candidate damping from the solver state and keeps
whichever minimizes the very next estimation error. A wide MLP maps the
recent (states, actions, rewards) window to that greedy choice through the
same tanh action squash the agent uses. By construction the baseline
never sees episode return, only the next step.
"""

from __future__ import annotations

import numpy as np

from .env import BAEnv, EnvConfig
from .nn import (
    Mlp,
    adam_init,
    load_arrays,
    mlp_forward,
    mlp_from_arrays,
    mlp_init,
    mlp_to_arrays,
    mlp_train_step,
    save_arrays,
)
from .policy import ClassicPolicy
from .sac import ACTION_OFFSET, ACTION_SCALE, lambda_from_action
from .solver import NumericalFailureError, SolverState, evaluate_steps

DEFAULT_ORACLE_GRID = (1e-16, 1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.25, 0.5, 1.0, 10.0, 1e3)
ZERO_NET_HIDDEN = 1280
ATANH_CLIP = 1.0 - 1e-9


class OracleFailureError(RuntimeError):
    """Every candidate damping produced a failed trial step."""


def u_from_lambda(lam: float) -> float:
    """Inverse of the action map, clipped onto the squashed range."""
    u = (np.log10(lam) - ACTION_OFFSET) / ACTION_SCALE
    return float(np.clip(u, -1.0, 1.0))


def raw_regression_target(lam: float) -> float:
    """Pre-squash regression target; grid ends land on the atanh clip."""
    u = (np.log10(lam) - ACTION_OFFSET) / ACTION_SCALE
    return float(np.arctanh(np.clip(u, -ATANH_CLIP, ATANH_CLIP)))


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


def zero_net_action(net: Mlp, states, actions, rewards) -> tuple[float, float]:
    """Damping and squashed action for one (states, actions, rewards) window."""
    x = np.concatenate(
        [np.asarray(states, float), np.asarray(actions, float), np.asarray(rewards, float)]
    ).reshape(1, -1)
    raw = float(mlp_forward(net, x)[0, 0])
    u = float(np.tanh(raw))
    return lambda_from_action(u), u


def _pad_left(values, window: int) -> np.ndarray:
    """The last ``window`` values, zero-padded on the left (zero-net input slots)."""
    out = np.zeros(window)
    vals = list(values)[-window:]
    if vals:
        out[window - len(vals) :] = vals
    return out


def _reward_slots(recent_durations, window: int) -> np.ndarray:
    """Reward slots of the zero-net input: -1 per completed iteration, zero-padded.

    That is the negated duration deterministic timing records. Wall-clock
    durations are never fed in, so the net's input, and with it its choice
    of damping, does not depend on the clock or the timing mode.
    """
    return _pad_left([-1.0] * len(recent_durations), window)


def _collect_labeled_windows(problem, net: Mlp | None, grid, config: EnvConfig):
    """One rollout; every visited state is labeled with the greedy damping.

    With no net, the classic heuristic drives (warm-start epoch); otherwise
    the net drives its own rollout. Action slots carry the applied dampings
    mapped back to squashed space, reward slots -1 per completed iteration
    (``_reward_slots``), both zero-padded exactly as the solve-time policy
    rebuilds them.
    """
    window = config.window
    env = BAEnv(config)
    classic = ClassicPolicy(window=window)
    classic.reset()
    obs = env.reset(problem)
    applied: list[float] = []
    inputs = []
    targets = []
    done = False
    while not done:
        states = obs.state_vector
        actions = _pad_left(applied, window)
        rewards = _reward_slots(obs.recent_durations, window)
        lam_star = zero_net_oracle(env.problem, env.solver_state, grid)
        inputs.append(np.concatenate([states, actions, rewards]))
        targets.append(raw_regression_target(lam_star))
        if net is None:
            lam = classic.next_lambda(obs)
        else:
            lam, _ = zero_net_action(net, states, actions, rewards)
        out = env.step(lam)
        applied.append(u_from_lambda(lam))
        obs = out.observation
        done = out.done
    return inputs, targets


def zero_net_train(
    problems,
    grid=DEFAULT_ORACLE_GRID,
    epochs: int = 2,
    seed: int = 0,
    window: int = 5,
    hidden: int = ZERO_NET_HIDDEN,
    lr: float = 3e-4,
    batch_size: int = 64,
    passes_per_epoch: int = 150,
    max_iterations: int = 100,
    threshold: float = 1e-6,
    deterministic_time: bool = True,
    progress=None,
) -> Mlp:
    """Alternate labeled-rollout collection with regression in raw-u space.

    The reward slots hold -1 per completed iteration in either timing mode
    (``_reward_slots``), so the trained net and its solves do not depend on
    ``deterministic_time``; it only sets the durations the env records.
    """
    if not problems:
        raise ValueError("need at least one training problem")
    config = EnvConfig(
        window=window,
        max_iterations=max_iterations,
        threshold=threshold,
        deterministic_time=deterministic_time,
    )
    rng = np.random.default_rng(seed)
    net = init_zero_net(window=window, hidden=hidden, seed=seed)
    adam = adam_init(net)
    for epoch in range(epochs):
        driver = None if epoch == 0 else net
        xs: list = []
        ys: list = []
        for problem in problems:
            inputs, targets = _collect_labeled_windows(problem, driver, grid, config)
            xs.extend(inputs)
            ys.extend(targets)
        features = np.asarray(xs)
        labels = np.asarray(ys)[:, None]
        loss = float("nan")
        for _ in range(passes_per_epoch):
            order = rng.permutation(len(features))
            for start in range(0, len(features), batch_size):
                idx = order[start : start + batch_size]
                loss = mlp_train_step(net, adam, features[idx], labels[idx], lr=lr)
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
    return mlp_from_arrays(meta["widths"], arrays)
