"""Soft actor-critic damping agent, built on the numpy MLP kernel.

The actor emits a squashed Gaussian over a scalar action u in (-1, 1) that
maps to damping through lambda = 10^(9u - 7), spanning [1e-16, 1e2]. Twin
Q critics score (state, u) pairs, a separate value net with a periodically
hard-copied target provides the bootstrap, and the policy update follows the
reparameterized objective with gradients taken analytically through the
tanh squash rather than by autodiff.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass

import numpy as np

from .env import OUTCOME_ITERATION_CAP, BAEnv, EnvConfig
from .nn import (
    AdamState,
    Mlp,
    adam_states,
    copy_params,
    load_arrays,
    mlp_backward,
    mlp_backward_adam,
    mlp_copy,
    mlp_forward_cached,
    mlp_from_arrays,
    mlp_init,
    mlp_to_arrays,
    mse_loss,
    save_arrays,
)
from .policy import agent_state

LOG_SIGMA_MIN = -20.0
LOG_SIGMA_MAX = 2.0
ACTION_SCALE = 9.0
ACTION_OFFSET = -7.0
LOG_TWO = float(np.log(2.0))
HALF_LOG_TWO_PI = float(0.5 * np.log(2.0 * np.pi))


class NonFiniteLossError(RuntimeError):
    """A SAC update produced a non-finite critic, value or policy loss."""


def lambda_from_action(u: float) -> float:
    """Map a squashed action in [-1, 1] to damping in [1e-16, 1e2]."""
    return float(10.0 ** (ACTION_SCALE * float(u) + ACTION_OFFSET))


def softplus(x):
    return np.logaddexp(0.0, x)


def gaussian_log_prob(xi, mu, log_sigma):
    z = (xi - mu) * np.exp(-log_sigma)
    return -0.5 * z * z - log_sigma - HALF_LOG_TWO_PI


def tanh_log_det(xi):
    """log(1 - tanh(xi)^2) evaluated without catastrophic cancellation."""
    return 2.0 * (LOG_TWO - xi - softplus(-2.0 * xi))


def squashed_log_prob(xi, mu, log_sigma):
    """Log density of u = tanh(xi) under the pre-squash Gaussian."""
    return gaussian_log_prob(xi, mu, log_sigma) - tanh_log_det(xi)


@dataclass
class AgentNets:
    policy: Mlp
    critic1: Mlp
    critic2: Mlp
    value: Mlp
    target_value: Mlp
    reversed_state: bool = False  # trained with the ``reversed`` reward's state

    @property
    def window(self) -> int:
        return self.policy.widths[0]


def init_agent(window: int = 5, hidden: int = 256, seed: int = 0) -> AgentNets:
    root = np.random.default_rng(seed)
    seeds = root.integers(0, 2**63 - 1, size=4)
    value = mlp_init([window, hidden, hidden, 1], np.random.default_rng(seeds[3]))
    return AgentNets(
        policy=mlp_init(
            [window, hidden, hidden, hidden, 2], np.random.default_rng(seeds[0])
        ),
        critic1=mlp_init([window + 1, hidden, hidden, 1], np.random.default_rng(seeds[1])),
        critic2=mlp_init([window + 1, hidden, hidden, 1], np.random.default_rng(seeds[2])),
        value=value,
        target_value=mlp_copy(value),
    )


def policy_forward(policy: Mlp, states: np.ndarray):
    """Returns (mu, clamped log sigma, raw log sigma, activation cache)."""
    out, cache = mlp_forward_cached(policy, states)
    mu = out[:, 0]
    raw = out[:, 1]
    return mu, np.clip(raw, LOG_SIGMA_MIN, LOG_SIGMA_MAX), raw, cache


def select_action(
    nets: AgentNets, state, deterministic: bool = False, rng=None
) -> tuple[float, float]:
    """Damping and raw squashed action for one state."""
    state = np.asarray(state, dtype=float).reshape(1, -1)
    mu, log_sigma, _, _ = policy_forward(nets.policy, state)
    if deterministic:
        xi = float(mu[0])
    else:
        if rng is None:
            raise ValueError("stochastic action selection needs an rng")
        xi = float(mu[0] + np.exp(log_sigma[0]) * rng.standard_normal())
    u = float(np.tanh(xi))
    return lambda_from_action(u), u


def warmup_action(rng) -> tuple[float, float]:
    """Pre-training exploration: uniform in squashed-action space."""
    u = float(rng.uniform(-1.0, 1.0))
    return lambda_from_action(u), u


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform with-replacement sampling."""

    def __init__(self, capacity: int, window: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.states = np.zeros((capacity, window))
        self.actions = np.zeros(capacity)
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, window))
        self.done = np.zeros(capacity)
        self.size = 0
        self.cursor = 0

    def __len__(self) -> int:
        return self.size

    def add(self, state, action, reward, next_state, done) -> None:
        i = self.cursor
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.done[i] = done
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng):
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=batch_size)
        return (
            self.states[idx],
            self.actions[idx],
            self.rewards[idx],
            self.next_states[idx],
            self.done[idx],
        )


@dataclass
class TrainConfig:
    # The agent checkpoint stores these fields, in this order (save_agent_checkpoint).
    episodes: int = 300
    seed: int = 0
    window: int = 5
    hidden: int = 256
    gamma: float = 0.99
    alpha: float = 0.2
    lr: float = 3e-4
    batch_size: int = 256
    replay_capacity: int = 100_000
    warmup_steps: int = 500
    target_refresh: int = 5
    reward_variant: str = EnvConfig.reward_variant
    max_iterations: int = EnvConfig.max_iterations
    threshold: float = EnvConfig.threshold
    deterministic_time: bool = EnvConfig.deterministic_time

    def __post_init__(self) -> None:
        EnvConfig.of(self)  # checks the env fields
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        for name in (
            "episodes", "window", "hidden", "batch_size", "replay_capacity", "target_refresh"
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be non-negative, got {self.warmup_steps}")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and non-negative, got {self.alpha}")


@dataclass
class AgentOptimizers:
    policy: AdamState
    critic1: AdamState
    critic2: AdamState
    value: AdamState
    updates: int = 0


def init_optimizers(nets: AgentNets) -> AgentOptimizers:
    """Adam states for the four trained nets, which update one after another
    and so share one set of work buffers."""
    policy, critic1, critic2, value = adam_states(
        [nets.policy, nets.critic1, nets.critic2, nets.value]
    )
    return AgentOptimizers(policy=policy, critic1=critic1, critic2=critic2, value=value)


@dataclass
class UpdateStats:
    critic_loss: float
    value_loss: float
    policy_loss: float


def policy_objective(nets: AgentNets, states: np.ndarray, eps: np.ndarray, alpha: float):
    """Reparameterized actor objective for a frozen noise draw.

    Returns (loss, gradient at the policy's output layer, aux dict). The
    output gradient stacks d/d(mu) and d/d(log sigma) per sample; the log
    sigma column is gated where the clamp is active. Critic parameters are
    treated as constants, matching the actor update.
    """
    batch = len(states)
    mu, log_sigma, raw_log_sigma, cache = policy_forward(nets.policy, states)
    sigma = np.exp(log_sigma)
    xi = mu + sigma * eps
    u = np.tanh(xi)
    log_pi = squashed_log_prob(xi, mu, log_sigma)

    fresh = np.concatenate([states, u[:, None]], axis=1)
    q1, cache1 = mlp_forward_cached(nets.critic1, fresh)
    q2, cache2 = mlp_forward_cached(nets.critic2, fresh)
    q1 = q1[:, 0]
    q2 = q2[:, 0]
    q_min = np.minimum(q1, q2)
    ones = np.ones((batch, 1))
    input_grad1 = mlp_backward(nets.critic1, cache1, ones)
    input_grad2 = mlp_backward(nets.critic2, cache2, ones)
    q_action_grad = np.where(q1 <= q2, input_grad1[:, -1], input_grad2[:, -1])

    loss = float(np.mean(alpha * log_pi - q_min))
    one_minus_u2 = 1.0 - u * u
    chain = sigma * eps  # d(xi)/d(log sigma)
    d_mu = alpha * 2.0 * u - q_action_grad * one_minus_u2
    d_log_sigma = alpha * (2.0 * u * chain - 1.0) - q_action_grad * one_minus_u2 * chain
    unclamped = (raw_log_sigma > LOG_SIGMA_MIN) & (raw_log_sigma < LOG_SIGMA_MAX)
    d_log_sigma = np.where(unclamped, d_log_sigma, 0.0)
    grad_out = np.stack([d_mu, d_log_sigma], axis=1) / batch

    aux = {"u": u, "log_pi": log_pi, "q_min": q_min, "cache": cache}
    return loss, grad_out, aux


def sac_update(
    nets: AgentNets, opt: AgentOptimizers, batch, cfg: TrainConfig, rng
) -> UpdateStats:
    """One gradient step on both critics, the value net, and the policy."""
    states, actions, rewards, next_states, done = batch

    # only the output is kept, so the activations are freed before the critics' passes
    target_v = mlp_forward_cached(nets.target_value, next_states)[0][:, 0]
    targets = (rewards + cfg.gamma * (1.0 - done) * target_v)[:, None]
    stored = np.concatenate([states, actions[:, None]], axis=1)
    critic_losses = []
    for critic, adam in ((nets.critic1, opt.critic1), (nets.critic2, opt.critic2)):
        q, cache = mlp_forward_cached(critic, stored)
        loss, grad = mse_loss(q, targets)
        mlp_backward_adam(critic, adam, cache, grad, lr=cfg.lr)
        critic_losses.append(loss)

    eps = rng.standard_normal(len(states))
    policy_loss, grad_out, aux = policy_objective(nets, states, eps, cfg.alpha)

    v, v_cache = mlp_forward_cached(nets.value, states)
    v_target = (aux["q_min"] - cfg.alpha * aux["log_pi"])[:, None]
    value_loss, v_grad = mse_loss(v, v_target)
    mlp_backward_adam(nets.value, opt.value, v_cache, v_grad, lr=cfg.lr)
    mlp_backward_adam(nets.policy, opt.policy, aux["cache"], grad_out, lr=cfg.lr)

    opt.updates += 1
    if opt.updates % cfg.target_refresh == 0:
        copy_params(nets.target_value, nets.value)

    return UpdateStats(
        critic_loss=float(np.mean(critic_losses)),
        value_loss=value_loss,
        policy_loss=policy_loss,
    )


def train_agent(problems, cfg: TrainConfig, progress=None):
    """Train on a cycling list of problems; returns (nets, per-episode logs).

    One environment step yields one transition and, once the uniform warmup
    is spent and the buffer can fill a batch, one gradient update. Episodes
    that hit the iteration cap store a non-terminal flag so the learner
    bootstraps through the truncation.
    """
    if not problems:
        raise ValueError("need at least one training problem")
    rng = np.random.default_rng(cfg.seed)
    nets = init_agent(window=cfg.window, hidden=cfg.hidden, seed=cfg.seed)
    nets.reversed_state = cfg.reward_variant == "reversed"
    opt = init_optimizers(nets)
    buffer = ReplayBuffer(cfg.replay_capacity, cfg.window)
    env = BAEnv(EnvConfig.of(cfg))
    logs = []
    total_steps = 0
    picked = {}  # the state and squashed action behind the damping ``choose`` last picked

    def choose(obs):
        state = np.array(agent_state(nets, obs), dtype=float)
        if total_steps < cfg.warmup_steps:
            lam, u = warmup_action(rng)
        else:
            lam, u = select_action(nets, state, rng=rng)
        picked.update(state=state, u=u)
        return lam

    for episode in range(cfg.episodes):
        episode_return = 0.0
        losses = []
        for _, _, out in env.rollout(problems[episode % len(problems)], choose):
            next_state = np.array(agent_state(nets, out.observation), dtype=float)
            terminal = out.done and out.outcome != OUTCOME_ITERATION_CAP
            buffer.add(picked["state"], picked["u"], out.reward, next_state, float(terminal))
            episode_return += out.reward
            total_steps += 1
            if total_steps >= cfg.warmup_steps and len(buffer) >= cfg.batch_size:
                stats = sac_update(nets, opt, buffer.sample(cfg.batch_size, rng), cfg, rng)
                if not np.isfinite(astuple(stats)).all():
                    raise NonFiniteLossError(
                        f"non-finite loss at episode {episode}, step {total_steps}: critic="
                        f"{stats.critic_loss}, value={stats.value_loss}, policy={stats.policy_loss}"
                    )
                losses.append(stats)
        entry = {
            "episode": episode,
            "steps": len(env.records),
            "return": episode_return,
            "outcome": out.outcome,
            "final_error": out.observation.errors[-1],
            "total_steps": total_steps,
            "updates": opt.updates,
        }
        if losses:
            entry["critic_loss"] = float(np.mean([s.critic_loss for s in losses]))
            entry["value_loss"] = float(np.mean([s.value_loss for s in losses]))
            entry["policy_loss"] = float(np.mean([s.policy_loss for s in losses]))
        logs.append(entry)
        if progress is not None:
            progress(entry)
    return nets, logs


_NET_NAMES = ("policy", "critic1", "critic2", "value", "target_value")


def save_agent_checkpoint(path, nets: AgentNets, config: TrainConfig | None = None) -> None:
    meta = {
        "kind": "sac-agent",
        "window": nets.window,
        "widths": {name: list(getattr(nets, name).widths) for name in _NET_NAMES},
    }
    if config is not None:
        meta["config"] = asdict(config)
    arrays = {}
    for name in _NET_NAMES:
        arrays.update(mlp_to_arrays(getattr(nets, name), prefix=f"{name}."))
    save_arrays(path, meta, arrays)


def load_agent_checkpoint(path) -> tuple[AgentNets, dict]:
    meta, arrays = load_arrays(path)
    if meta.get("kind") != "sac-agent":
        raise ValueError(f"{path}: checkpoint is not an agent")
    widths, config = meta.get("widths"), meta.get("config", {})
    if not isinstance(widths, dict):
        raise ValueError(f"{path}: checkpoint widths {widths!r} are not a mapping of its nets")
    if not isinstance(config, dict):
        raise ValueError(f"{path}: checkpoint config {config!r} is not a mapping")
    nets = AgentNets(
        **{
            name: mlp_from_arrays(widths.get(name), arrays, prefix=f"{name}.")
            for name in _NET_NAMES
        },
        reversed_state=config.get("reward_variant") == "reversed",
    )
    # the policy maps a window of w to (mu, log sigma); the critics also read the action
    w = nets.window
    for name, end in zip(_NET_NAMES, [(w, 2), (w + 1, 1), (w + 1, 1), (w, 1), (w, 1)]):
        net_widths = getattr(nets, name).widths
        if (net_widths[0], net_widths[-1]) != end:
            raise ValueError(
                f"{path}: checkpoint {name} widths {net_widths} do not fit an agent of window {w}"
            )
    return nets, meta
