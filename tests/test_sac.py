from dataclasses import asdict

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from balm.nn import mlp_backward, mlp_backward_adam, mlp_forward_cached
from balm.nn import save_arrays
from balm.policy import AgentPolicy, PolicyObservation
from balm.sac import (
    LOG_SIGMA_MAX,
    LOG_SIGMA_MIN,
    AgentNets,
    ReplayBuffer,
    TrainConfig,
    UpdateStats,
    gaussian_log_prob,
    init_agent,
    init_optimizers,
    lambda_from_action,
    load_agent_checkpoint,
    policy_objective,
    sac_update,
    save_agent_checkpoint,
    select_action,
    squashed_log_prob,
    tanh_log_det,
    train_agent,
    warmup_action,
)
from balm.env import solve

from conftest import TextbookNet, assert_matches_textbook, suite_problem, textbook_backprop


def net_params(net):
    return np.concatenate([w.ravel() for w in net.weights] + [b.ravel() for b in net.biases])


def all_params(nets):
    return np.concatenate(
        [net_params(getattr(nets, n)) for n in ("policy", "critic1", "critic2", "value", "target_value")]
    )


def constant_batch(state, action, reward, next_state, done, batch_size):
    return (
        np.tile(state, (batch_size, 1)),
        np.full(batch_size, action),
        np.full(batch_size, reward),
        np.tile(next_state, (batch_size, 1)),
        np.full(batch_size, done),
    )


class TestActionMap:
    def test_endpoints(self):
        assert abs(lambda_from_action(-1.0) - 1e-16) < 1e-28
        assert abs(lambda_from_action(0.0) - 1e-7) < 1e-19
        assert abs(lambda_from_action(1.0) - 100.0) < 1e-10

    def test_monotone(self):
        grid = np.linspace(-1, 1, 21)
        values = [lambda_from_action(u) for u in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestLogProb:
    def test_tanh_log_det_matches_naive(self):
        for xi in (-3.0, -0.5, 0.0, 0.7, 2.5):
            naive = np.log(1.0 - np.tanh(xi) ** 2)
            assert abs(tanh_log_det(xi) - naive) < 1e-12

    def test_tanh_log_det_stable_for_large_inputs(self):
        val = tanh_log_det(50.0)
        assert np.isfinite(val)
        # asymptotically 2*(log 2 - xi)
        assert abs(val - 2.0 * (np.log(2.0) - 50.0)) < 1e-12

    def test_matches_change_of_variables(self):
        mu, log_sigma = 0.4, np.log(0.7)
        for u in (-0.9, -0.3, 0.0, 0.5, 0.95):
            xi = np.arctanh(u)
            direct = scipy.stats.norm.logpdf(xi, mu, np.exp(log_sigma)) - np.log(1.0 - u * u)
            assert abs(squashed_log_prob(xi, mu, log_sigma) - direct) < 1e-10

    @pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (0.5, 0.8), (-1.2, 0.3), (2.0, 1.5)])
    def test_density_integrates_to_one(self, mu, sigma):
        log_sigma = np.log(sigma)

        def density(u):
            return np.exp(squashed_log_prob(np.arctanh(u), mu, log_sigma))

        total, _ = scipy.integrate.quad(density, -1.0, 1.0, epsabs=1e-10, limit=200)
        assert abs(total - 1.0) < 1e-4

    def test_gaussian_log_prob_matches_scipy(self):
        rng = np.random.default_rng(0)
        xi = rng.normal(0, 2, 20)
        mu = rng.normal(0, 1, 20)
        log_sigma = rng.uniform(-1, 1, 20)
        ref = scipy.stats.norm.logpdf(xi, mu, np.exp(log_sigma))
        np.testing.assert_allclose(gaussian_log_prob(xi, mu, log_sigma), ref, atol=1e-12)


class TestReplayBuffer:
    def test_ring_overwrite(self):
        buf = ReplayBuffer(capacity=3, window=2)
        for i in range(5):
            buf.add([i, i], i, float(i), [i + 1, i + 1], 0.0)
        assert len(buf) == 3
        kept = set(buf.actions.astype(int))
        assert kept == {2, 3, 4}

    def test_uniform_sampling(self):
        buf = ReplayBuffer(capacity=100, window=1)
        for i in range(100):
            buf.add([0.0], float(i), 0.0, [0.0], 0.0)
        rng = np.random.default_rng(0)
        draws = np.concatenate([buf.sample(256, rng)[1] for _ in range(80)])
        counts = np.bincount(draws.astype(int), minlength=100)
        _, p_value = scipy.stats.chisquare(counts)
        assert p_value > 0.001

    def test_sample_before_fill_uses_live_region(self):
        buf = ReplayBuffer(capacity=100, window=1)
        buf.add([1.0], 7.0, 0.0, [1.0], 0.0)
        states, actions, *_ = buf.sample(16, np.random.default_rng(0))
        assert np.all(actions == 7.0)
        assert np.all(states == 1.0)

    def test_empty_sample_raises(self):
        buf = ReplayBuffer(capacity=4, window=1)
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0, window=1)


class TestActions:
    def test_deterministic_matches_manual(self):
        nets = init_agent(window=5, hidden=16, seed=0)
        state = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
        lam, u = select_action(nets, state, deterministic=True)
        mu = mlp_forward_cached(nets.policy, state.reshape(1, -1))[0][0, 0]
        assert u == pytest.approx(np.tanh(mu), rel=1e-15)
        assert lam == pytest.approx(10.0 ** (9.0 * np.tanh(mu) - 7.0), rel=1e-12)

    def test_stochastic_needs_rng(self):
        nets = init_agent(window=5, hidden=16, seed=0)
        with pytest.raises(ValueError):
            select_action(nets, np.zeros(5))

    def test_stochastic_reproducible(self):
        nets = init_agent(window=5, hidden=16, seed=0)
        a = select_action(nets, np.zeros(5), rng=np.random.default_rng(7))
        b = select_action(nets, np.zeros(5), rng=np.random.default_rng(7))
        assert a == b

    def test_range_property(self):
        rng = np.random.default_rng(1)
        nets = init_agent(window=5, hidden=16, seed=2)
        for _ in range(50):
            state = rng.uniform(0, 1000, 5)
            lam, u = select_action(nets, state, rng=rng)
            assert -1.0 <= u <= 1.0
            assert 1e-16 <= lam <= 100.0

    def test_warmup_spans_action_space(self):
        rng = np.random.default_rng(3)
        draws = np.array([warmup_action(rng)[1] for _ in range(2000)])
        assert draws.min() < -0.9
        assert draws.max() > 0.9
        assert abs(draws.mean()) < 0.05
        lams = 10.0 ** (9.0 * draws - 7.0)
        assert lams.min() >= 1e-16
        assert lams.max() <= 100.0


class TestPolicyGradient:
    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    def test_matches_finite_differences(self, alpha):
        nets = init_agent(window=3, hidden=8, seed=4)
        rng = np.random.default_rng(5)
        states = rng.uniform(0, 2, (4, 3))
        eps = rng.standard_normal(4)

        loss, grad_out, aux = policy_objective(nets, states, eps, alpha)
        grad_w, grad_b, _ = textbook_backprop(nets.policy.weights, aux["cache"], grad_out)
        analytic = np.concatenate([g.ravel() for g in grad_w] + [g.ravel() for g in grad_b])

        h = 1e-5
        numeric = np.zeros_like(analytic)
        pos = 0
        for group in (nets.policy.weights, nets.policy.biases):
            for arr in group:
                flat = arr.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up, _, _ = policy_objective(nets, states, eps, alpha)
                    flat[i] = orig - h
                    down, _, _ = policy_objective(nets, states, eps, alpha)
                    flat[i] = orig
                    numeric[pos] = (up - down) / (2 * h)
                    pos += 1

        cos = analytic @ numeric / (np.linalg.norm(analytic) * np.linalg.norm(numeric))
        angle = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
        assert angle < 5.0
        # magnitudes agree too
        ratio = np.linalg.norm(analytic) / np.linalg.norm(numeric)
        assert 0.99 < ratio < 1.01


class TestUpdates:
    def small_cfg(self, **kw):
        base = dict(
            episodes=1,
            seed=0,
            window=5,
            hidden=32,
            batch_size=8,
            warmup_steps=0,
            lr=3e-4,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_target_hard_refresh_period(self):
        cfg = self.small_cfg(target_refresh=5)
        nets = init_agent(window=5, hidden=32, seed=0)
        opt = init_optimizers(nets)
        batch = constant_batch(np.zeros(5), 0.2, -1.0, np.zeros(5), 0.0, 8)
        rng = np.random.default_rng(0)
        for step in range(1, 11):
            sac_update(nets, opt, batch, cfg, rng)
            same = np.array_equal(net_params(nets.target_value), net_params(nets.value))
            assert same == (step % 5 == 0)

    def test_update_builds_parameter_gradients_once_per_trained_net(self, monkeypatch):
        import balm.sac

        swept = []
        backward = []

        def counting_sweep(net, adam, activations, grad_out, lr):
            swept.append(net)
            return mlp_backward_adam(net, adam, activations, grad_out, lr=lr)

        def counting_backward(net, activations, grad_out):
            backward.append(net)
            return mlp_backward(net, activations, grad_out)

        monkeypatch.setattr(balm.sac, "mlp_backward_adam", counting_sweep)
        monkeypatch.setattr(balm.sac, "mlp_backward", counting_backward)
        nets = init_agent(window=5, hidden=32, seed=0)
        batch = constant_batch(np.zeros(5), 0.2, -1.0, np.zeros(5), 0.0, 8)
        sac_update(nets, init_optimizers(nets), batch, self.small_cfg(), np.random.default_rng(0))
        # both critics, the value net and the policy; the policy objective
        # needs only the critics' action gradients
        assert [id(net) for net in swept] == [
            id(nets.critic1), id(nets.critic2), id(nets.value), id(nets.policy)
        ]
        assert [id(net) for net in backward] == [id(nets.critic1), id(nets.critic2)]

    TRAINED = ("critic1", "critic2", "value", "policy")

    def test_trained_nets_match_the_textbook_update(self):
        # One sac_update, replayed with the textbook forward pass, backprop
        # and Adam: the critics on their TD targets first, then the value
        # net and the policy against the updated critics.
        cfg = self.small_cfg(lr=1e-2)
        nets = init_agent(window=5, hidden=32, seed=0)
        opt = init_optimizers(nets)
        rng = np.random.default_rng(3)
        states, actions, rewards, next_states = (
            rng.uniform(0, 2, (8, 5)), rng.uniform(-1, 1, 8), -rng.uniform(size=8),
            rng.uniform(0, 2, (8, 5)),
        )
        done = (rng.uniform(size=8) < 0.3).astype(float)
        ref = {name: TextbookNet(getattr(nets, name)) for name in self.TRAINED}
        next_v = TextbookNet(nets.target_value).forward(next_states)[-1][:, 0]
        sac_update(
            nets, opt, (states, actions, rewards, next_states, done), cfg,
            np.random.default_rng(4),
        )
        eps = np.random.default_rng(4).standard_normal(8)

        q_targets = rewards + cfg.gamma * (1.0 - done) * next_v
        for critic in (ref["critic1"], ref["critic2"]):
            critic.mse_step(np.column_stack([states, actions]), q_targets[:, None], cfg.lr)

        policy_outputs = ref["policy"].forward(states)
        mu, raw_log_sigma = policy_outputs[-1].T
        log_sigma = np.clip(raw_log_sigma, LOG_SIGMA_MIN, LOG_SIGMA_MAX)
        noise = np.exp(log_sigma) * eps  # d xi / d log sigma
        u = np.tanh(mu + noise)
        log_pi = squashed_log_prob(mu + noise, mu, log_sigma)
        q, dq_du = [], []
        for critic in (ref["critic1"], ref["critic2"]):
            outputs = critic.forward(np.column_stack([states, u]))
            q.append(outputs[-1][:, 0])
            dq_du.append(textbook_backprop(critic.weights, outputs, np.ones((8, 1)))[2][:, -1])
        q_min = np.minimum(*q)
        dq_dxi = np.where(q[0] <= q[1], *dq_du) * (1.0 - u * u)

        ref["value"].mse_step(states, (q_min - cfg.alpha * log_pi)[:, None], cfg.lr)
        # the policy loss is the mean of alpha log pi - q_min, where the
        # Gaussian part of log pi is -log sigma plus a constant, and its
        # tanh part has the derivative 2u in xi
        d_mu = cfg.alpha * 2.0 * u - dq_dxi
        d_log_sigma = cfg.alpha * (2.0 * u * noise - 1.0) - dq_dxi * noise
        d_log_sigma[(raw_log_sigma <= LOG_SIGMA_MIN) | (raw_log_sigma >= LOG_SIGMA_MAX)] = 0.0
        ref["policy"].train(policy_outputs, np.column_stack([d_mu, d_log_sigma]) / 8, cfg.lr)

        for name in self.TRAINED:
            assert_matches_textbook(getattr(nets, name), getattr(opt, name), ref[name])

    def test_value_loss_halves_on_single_transition(self):
        # lr must outrun the moving value target within the 200-update
        # window; at the default 3e-4 the transient has not resolved yet
        cfg = self.small_cfg(lr=1e-3)
        nets = init_agent(window=5, hidden=32, seed=1)
        opt = init_optimizers(nets)
        batch = constant_batch(np.full(5, 0.3), 0.1, -1.0, np.full(5, 0.2), 1.0, 8)
        rng = np.random.default_rng(2)
        losses = [sac_update(nets, opt, batch, cfg, rng).value_loss for _ in range(200)]
        assert np.mean(losses[-10:]) < 0.5 * np.mean(losses[:10])

    def test_terminal_flag_cuts_bootstrap(self):
        # with done=1 the critic target is exactly the reward
        cfg = self.small_cfg(lr=1e-2)
        nets = init_agent(window=5, hidden=32, seed=3)
        opt = init_optimizers(nets)
        batch = constant_batch(np.zeros(5), 0.5, -2.0, np.zeros(5), 1.0, 8)
        rng = np.random.default_rng(0)
        for _ in range(500):
            sac_update(nets, opt, batch, cfg, rng)
        inputs = np.concatenate([np.zeros((1, 5)), [[0.5]]], axis=1)
        q1 = mlp_forward_cached(nets.critic1, inputs)[0][0, 0]
        q2 = mlp_forward_cached(nets.critic2, inputs)[0][0, 0]
        assert abs(q1 - (-2.0)) < 0.05
        assert abs(q2 - (-2.0)) < 0.05

    def test_update_determinism(self):
        outs = []
        for _ in range(2):
            cfg = self.small_cfg()
            nets = init_agent(window=5, hidden=32, seed=0)
            opt = init_optimizers(nets)
            rng = np.random.default_rng(9)
            batch_rng = np.random.default_rng(10)
            buf = ReplayBuffer(64, 5)
            fill = np.random.default_rng(11)
            for _ in range(64):
                buf.add(fill.uniform(0, 1, 5), fill.uniform(-1, 1), -1.0, fill.uniform(0, 1, 5), 0.0)
            for _ in range(20):
                sac_update(nets, opt, buf.sample(8, batch_rng), cfg, rng)
            outs.append(all_params(nets))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_bandit_policy_moves_to_rewarded_action(self):
        # one-state bandit: reward peaks at u = 0.3; after training the
        # deterministic action should sit near the peak
        cfg = self.small_cfg(alpha=0.05, batch_size=64, lr=1e-3)
        nets = init_agent(window=5, hidden=32, seed=5)
        opt = init_optimizers(nets)
        buf = ReplayBuffer(1000, 5)
        fill = np.random.default_rng(6)
        for _ in range(500):
            u = fill.uniform(-1, 1)
            buf.add(np.zeros(5), u, -((u - 0.3) ** 2), np.zeros(5), 1.0)
        rng = np.random.default_rng(7)
        for _ in range(600):
            sac_update(nets, opt, buf.sample(64, rng), cfg, rng)
        _, u_star = select_action(nets, np.zeros(5), deterministic=True)
        assert abs(u_star - 0.3) < 0.2


class TestTraining:
    def tiny_cfg(self, **kw):
        base = dict(
            episodes=3,
            seed=0,
            window=5,
            hidden=16,
            batch_size=16,
            warmup_steps=10,
            replay_capacity=500,
            max_iterations=20,
            deterministic_time=True,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_smoke_and_logs(self):
        problems = [suite_problem(0, num_cameras=4, num_points=6)]
        nets, logs = train_agent(problems, self.tiny_cfg())
        assert len(logs) == 3
        for entry in logs:
            assert entry["steps"] >= 1
            assert entry["outcome"] in ("converged", "iteration-cap", "numerical-failure")
        assert logs[-1]["total_steps"] == sum(e["steps"] for e in logs)
        assert np.all(np.isfinite(all_params(nets)))

    def test_training_determinism(self):
        problems = [suite_problem(1, num_cameras=4, num_points=6)]
        nets_a, logs_a = train_agent(problems, self.tiny_cfg())
        nets_b, logs_b = train_agent(problems, self.tiny_cfg())
        np.testing.assert_array_equal(all_params(nets_a), all_params(nets_b))
        for a, b in zip(logs_a, logs_b):
            assert a["steps"] == b["steps"]
            assert a["return"] == b["return"]

    def test_needs_problems(self):
        with pytest.raises(ValueError):
            train_agent([], self.tiny_cfg())

    def test_rejects_a_target_refresh_below_one(self):
        for refresh in (0, -1):
            with pytest.raises(ValueError, match="target_refresh"):
                self.tiny_cfg(target_refresh=refresh)

    def test_aborts_on_non_finite_loss(self, monkeypatch):
        import balm.sac as sac_module

        def poisoned_update(nets, opt, batch, cfg, rng):
            return UpdateStats(critic_loss=float("nan"), value_loss=1.0, policy_loss=1.0)

        monkeypatch.setattr(sac_module, "sac_update", poisoned_update)
        problems = [suite_problem(0, num_cameras=4, num_points=6)]
        with pytest.raises(RuntimeError, match="non-finite loss"):
            train_agent(problems, self.tiny_cfg())

    def test_non_finite_loss_has_its_own_type(self, monkeypatch):
        import balm.sac as sac_module

        def poisoned_update(nets, opt, batch, cfg, rng):
            return UpdateStats(critic_loss=1.0, value_loss=1.0, policy_loss=float("inf"))

        monkeypatch.setattr(sac_module, "sac_update", poisoned_update)
        problems = [suite_problem(0, num_cameras=4, num_points=6)]
        with pytest.raises(sac_module.NonFiniteLossError, match="policy=inf"):
            train_agent(problems, self.tiny_cfg())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(gamma=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_config_rejects_a_non_finite_or_non_positive_lr(self, lr):
        # lr=-1 ascends the losses: three tiny episodes end at a critic
        # loss near 1e8 without an error
        with pytest.raises(ValueError, match=f"lr must be finite and positive, got {lr}"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("alpha", [-0.1, float("nan"), float("inf")])
    def test_config_rejects_a_negative_or_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match=f"alpha must be finite and non-negative, got {alpha}"):
            TrainConfig(alpha=alpha)

    def test_config_accepts_zero_alpha(self):
        assert TrainConfig(alpha=0.0).alpha == 0.0

    @pytest.mark.parametrize("threshold", [-1.0, float("nan")])
    def test_config_rejects_a_non_finite_or_non_positive_threshold(self, threshold):
        # EnvConfig checks the env fields for the config
        with pytest.raises(
            ValueError, match=f"threshold must be finite and positive, got {threshold}"
        ):
            TrainConfig(threshold=threshold)

    def test_config_fields_are_the_checkpoint_config(self):
        # save_agent_checkpoint writes asdict(config): these names, in this order
        assert list(asdict(TrainConfig())) == [
            "episodes", "seed", "window", "hidden", "gamma", "alpha", "lr", "batch_size",
            "replay_capacity", "warmup_steps", "target_refresh", "reward_variant",
            "max_iterations", "threshold", "deterministic_time",
        ]


class TestCheckpointAndPolicy:
    def test_round_trip(self, tmp_path):
        nets = init_agent(window=5, hidden=16, seed=8)
        cfg = TrainConfig(episodes=2, hidden=16)
        path = tmp_path / "agent.ckpt"
        save_agent_checkpoint(path, nets, cfg)
        loaded, meta = load_agent_checkpoint(path)
        assert meta["window"] == 5
        assert meta["config"]["episodes"] == 2
        np.testing.assert_array_equal(all_params(nets), all_params(loaded))

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_arrays(path, {"kind": "mlp", "widths": [2, 2]}, {"w0": np.zeros((2, 2))})
        with pytest.raises(ValueError):
            load_agent_checkpoint(path)

    def test_agent_policy_uses_deterministic_action(self):
        nets = init_agent(window=5, hidden=16, seed=9)
        policy = AgentPolicy(nets)
        assert policy.window == 5
        state = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        lam_ref, _ = select_action(nets, state, deterministic=True)
        obs = PolicyObservation(iteration_index=0, errors=tuple(state))
        assert policy.next_lambda(obs) == lam_ref

    def test_untrained_agent_solves(self, suite_problem_0):
        # fresh nets emit mu near zero, i.e. light damping; the episode
        # should both run and converge
        nets = init_agent(window=5, hidden=16, seed=10)
        result = solve(suite_problem_0, AgentPolicy(nets))
        assert result.outcome == "converged"
