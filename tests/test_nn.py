import hashlib
import tracemalloc

import numpy as np
import pytest

from balm.baselines import ZERO_NET_HIDDEN, init_zero_net
from balm.nn import (
    ADAM_BLOCK,
    ADAM_LR,
    PANEL_ROWS,
    AdamState,
    Mlp,
    adam_init,
    copy_params,
    load_arrays,
    mlp_backward,
    mlp_backward_adam,
    mlp_copy,
    mlp_forward_cached,
    mlp_from_arrays,
    mlp_init,
    mlp_to_arrays,
    mlp_train_step,
    mse_loss,
    save_arrays,
)
from balm.sac import ReplayBuffer, TrainConfig, init_agent, init_optimizers, sac_update

from conftest import TextbookNet, assert_matches_textbook, textbook_backprop, textbook_forward


def loop_forward(net, x):
    """Reference forward pass with explicit python loops."""
    outs = []
    for row in np.atleast_2d(x):
        h = [float(v) for v in row]
        for k in range(net.num_layers):
            w, b = net.weights[k], net.biases[k]
            nxt = []
            for j in range(w.shape[1]):
                s = float(b[j]) + sum(h[i] * w[i, j] for i in range(w.shape[0]))
                if k < net.num_layers - 1:
                    s = max(s, 0.0)
                nxt.append(s)
            h = nxt
        outs.append(h)
    return np.array(outs)


def flatten_params(net):
    return np.concatenate([w.ravel() for w in net.weights] + [b.ravel() for b in net.biases])


class TestInit:
    def test_fan_in_uniform_bounds(self):
        net = mlp_init([64, 32, 4], seed_or_rng=0)
        assert np.max(np.abs(net.weights[0])) <= 1.0 / 8.0
        assert np.max(np.abs(net.weights[1])) <= 1.0 / np.sqrt(32.0)
        # bound should be nearly attained for this many draws
        assert np.max(np.abs(net.weights[0])) > 0.9 / 8.0
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_seeded_reproducibility(self):
        a = mlp_init([4, 8, 2], seed_or_rng=3)
        b = mlp_init([4, 8, 2], seed_or_rng=3)
        c = mlp_init([4, 8, 2], seed_or_rng=4)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert any(np.any(wa != wc) for wa, wc in zip(a.weights, c.weights))

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            mlp_init([4])
        with pytest.raises(ValueError):
            mlp_init([4, 0, 2])


class TestForward:
    def test_matches_loop_reference(self):
        net = mlp_init([3, 5, 4, 2], seed_or_rng=1)
        x = np.random.default_rng(2).normal(0, 2, (6, 3))
        fast, _ = mlp_forward_cached(net, x)
        slow = loop_forward(net, x)
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-14)

    def test_single_sample_shape(self):
        net = mlp_init([3, 4, 2], seed_or_rng=0)
        out, _ = mlp_forward_cached(net, np.zeros(3))
        assert out.shape == (1, 2)

    def test_relu_gates_hidden_layer(self):
        net = Mlp(
            widths=[1, 1, 1],
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.zeros(1), np.zeros(1)],
        )
        assert mlp_forward_cached(net, [[-3.0]])[0][0, 0] == 0.0
        assert mlp_forward_cached(net, [[2.0]])[0][0, 0] == 2.0

    def test_output_layer_is_linear(self):
        net = Mlp(
            widths=[1, 1],
            weights=[np.array([[2.0]])],
            biases=[np.array([1.0])],
        )
        assert mlp_forward_cached(net, [[-3.0]])[0][0, 0] == -5.0

    def test_rejects_width_mismatch(self):
        net = mlp_init([3, 2], seed_or_rng=0)
        with pytest.raises(ValueError):
            mlp_forward_cached(net, np.zeros((1, 4)))

    def test_cached_matches_plain(self):
        # the same products and sums as the textbook forward pass, so the same bits
        net = mlp_init([3, 5, 2], seed_or_rng=5)
        x = np.random.default_rng(0).normal(0, 1, (4, 3))
        cached, acts = mlp_forward_cached(net, x)
        plain = textbook_forward(net.weights, net.biases, x)
        assert len(acts) == len(plain) == 3
        for got, want in zip(acts, plain):
            np.testing.assert_array_equal(got, want)
        assert cached is acts[-1]


class TestBackward:
    def test_gradients_match_finite_differences(self):
        net = mlp_init([3, 5, 2], seed_or_rng=7)
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (4, 3))
        target = rng.normal(0, 1, (4, 2))

        # the textbook reference's parameter gradients, and mlp_backward's input gradient
        pred, cache = mlp_forward_cached(net, x)
        _, grad_out = mse_loss(pred, target)
        outputs = textbook_forward(net.weights, net.biases, x)
        grad_w, grad_b, _ = textbook_backprop(net.weights, outputs, grad_out)
        grad_x = mlp_backward(net, cache, grad_out)

        h = 1e-6

        def loss_at(net_like, x_like):
            p, _ = mlp_forward_cached(net_like, x_like)
            return mse_loss(p, target)[0]

        for layer in range(net.num_layers):
            for arr, garr in ((net.weights[layer], grad_w[layer]),
                              (net.biases[layer], grad_b[layer])):
                flat = arr.reshape(-1)
                gflat = garr.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = loss_at(net, x)
                    flat[idx] = orig - h
                    down = loss_at(net, x)
                    flat[idx] = orig
                    fd = (up - down) / (2 * h)
                    assert abs(gflat[idx] - fd) / max(abs(fd), 1e-3) < 1e-5

        xflat = x.reshape(-1)
        gx = grad_x.reshape(-1)
        for idx in range(xflat.size):
            orig = xflat[idx]
            xflat[idx] = orig + h
            up = loss_at(net, x)
            xflat[idx] = orig - h
            down = loss_at(net, x)
            xflat[idx] = orig
            fd = (up - down) / (2 * h)
            assert abs(gx[idx] - fd) / max(abs(fd), 1e-3) < 1e-5

    def test_mse_frozen(self):
        loss, grad = mse_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
        assert loss == 2.5
        np.testing.assert_array_equal(grad, [[1.0, 2.0]])


class TestAdam:
    def test_hand_computed_updates(self):
        net = Mlp(widths=[1, 1], weights=[np.array([[1.0]])], biases=[np.array([0.5])])
        state = adam_init(net)
        # (input, grad_out) batches whose weight and bias gradients, x^T d and
        # the sum of d, are exactly (0.3, -0.2) and then (-0.1, 0.4)
        batches = [([[1.0], [0.0]], [[0.3], [-0.5]]), ([[-0.25]], [[0.4]])]

        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        w, bias = 1.0, 0.5
        m_w = v_w = m_b = v_b = 0.0
        for t, (gw, gb) in enumerate([(0.3, -0.2), (-0.1, 0.4)], start=1):
            m_w = b1 * m_w + (1 - b1) * gw
            v_w = b2 * v_w + (1 - b2) * gw * gw
            m_b = b1 * m_b + (1 - b1) * gb
            v_b = b2 * v_b + (1 - b2) * gb * gb
            w -= lr * (m_w / (1 - b1**t)) / (np.sqrt(v_w / (1 - b2**t)) + eps)
            bias -= lr * (m_b / (1 - b1**t)) / (np.sqrt(v_b / (1 - b2**t)) + eps)

        for x, grad_out in batches:
            _, cache = mlp_forward_cached(net, x)
            mlp_backward_adam(net, state, cache, np.array(grad_out), lr=lr)
        np.testing.assert_allclose(net.weights[0][0, 0], w, rtol=1e-14)
        np.testing.assert_allclose(net.biases[0][0], bias, rtol=1e-14)
        assert state.step == 2

    def test_zero_loss_is_a_fixed_point(self):
        net = mlp_init([2, 6, 1], seed_or_rng=3)
        adam = adam_init(net)
        x = np.random.default_rng(0).normal(0, 1, (5, 2))
        y, _ = mlp_forward_cached(net, x)
        before = flatten_params(net).copy()
        loss = mlp_train_step(net, adam, x, y)
        assert loss == 0.0
        np.testing.assert_array_equal(flatten_params(net), before)

    def test_regression_learns(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (32, 1))
        y = np.sin(2.0 * x)
        net = mlp_init([1, 32, 1], seed_or_rng=0)
        adam = adam_init(net)
        first = mlp_train_step(net, adam, x, y, lr=1e-2)
        last = first
        for _ in range(300):
            last = mlp_train_step(net, adam, x, y, lr=1e-2)
        assert last < first / 10.0


class TestFlatLayout:
    def test_blocked_adam_matches_per_layer_reference(self):
        # At batch 1 each gradient entry is one product, made the same in
        # any GEMM order, so the sweep and the textbook reference see the
        # same gradients, and Adam in blocks whose edges fall inside layers
        # and panels must give the per-layer Adam's bits.
        net = mlp_init([15, 300, 300, 1], seed_or_rng=0)
        assert net.flat.size > 4 * ADAM_BLOCK
        ref = TextbookNet(net)
        adam = adam_init(net)
        rng = np.random.default_rng(1)
        for _ in range(3):
            x = rng.normal(0, 1, (1, 15))
            y = rng.normal(0, 1, (1, 1))
            mlp_train_step(net, adam, x, y)
            ref.mse_step(x, y, ADAM_LR)
            assert net.flat.tobytes() == np.concatenate([a.ravel() for a in ref.params()]).tobytes()
        assert adam.m.tobytes() == np.concatenate([m.ravel() for m in ref.first]).tobytes()
        assert adam.v.tobytes() == np.concatenate([v.ravel() for v in ref.second]).tobytes()

    def test_layer_arrays_are_views_into_flat(self):
        net = mlp_init([3, 4, 2], seed_or_rng=0)
        net.weights[1][2, 1] = 7.0
        net.biases[0][3] = -5.0
        assert net.flat[3 * 4 + 4 + 2 * 2 + 1] == 7.0
        assert net.flat[3 * 4 + 3] == -5.0
        net.flat[-1] = 9.0
        assert net.biases[1][1] == 9.0

    def test_separate_arrays_are_packed(self):
        weights = [np.arange(6.0).reshape(2, 3), np.ones((3, 1))]
        biases = [np.full(3, 0.5), np.array([2.0])]
        net = Mlp(widths=[2, 3, 1], weights=weights, biases=biases)
        np.testing.assert_array_equal(net.flat, [0, 1, 2, 3, 4, 5, 0.5, 0.5, 0.5, 1, 1, 1, 2])
        weights[0][0, 0] = 100.0  # the net holds copies
        assert net.weights[0][0, 0] == 0.0
        # every hidden unit is active and every weight positive, so each
        # parameter's gradient is positive, and Adam's first step moves each
        # one by lr
        before = net.flat.copy()
        _, cache = mlp_forward_cached(net, [[1.0, 1.0]])
        mlp_backward_adam(net, adam_init(net), cache, np.ones((1, 1)), lr=0.1)
        np.testing.assert_allclose(net.flat, before - 0.1, rtol=1e-6)

    def test_rejects_arrays_that_do_not_match_widths(self):
        with pytest.raises(ValueError):
            Mlp(widths=[2, 3], weights=[np.zeros((3, 2))], biases=[np.zeros(3)])
        with pytest.raises(ValueError):
            Mlp(widths=[2, 3], weights=[np.zeros((2, 3))], biases=[np.zeros(1)])
        with pytest.raises(ValueError):
            Mlp(widths=[2, 3, 1], weights=[np.zeros((2, 3))], biases=[np.zeros(3)])

    def test_input_only_backward_matches_full_input_gradient(self):
        net = mlp_init([6, 32, 32, 1], seed_or_rng=2)
        x = np.random.default_rng(3).normal(0, 1, (8, 6))
        _, cache = mlp_forward_cached(net, x)
        grad_out = np.ones((8, 1))
        outputs = textbook_forward(net.weights, net.biases, x)
        _, _, full = textbook_backprop(net.weights, outputs, grad_out)
        np.testing.assert_allclose(mlp_backward(net, cache, grad_out), full, rtol=1e-12, atol=1e-15)


def traced_peak(fn):
    """``fn()`` and the peak of memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestBackwardSweep:
    @pytest.mark.parametrize(
        "widths",
        [
            [6, 8, 1],
            [5, 7, 7, 2],
            # layer 1 holds 24,120 parameters, so an Adam block edge falls
            # inside it
            [15, 200, 120, 1],
            # layer 1 (300 x 320) is cut into panels of 64, 64, 64 and 108 rows
            [15, 300, 320, 1],
        ],
    )
    def test_matches_reference_backward_and_whole_net_adam(self, widths):
        # the textbook reference takes one GEMM per layer and one Adam
        # update per parameter array
        net = mlp_init(widths, seed_or_rng=0)
        adam, ref = adam_init(net), TextbookNet(net)
        rng = np.random.default_rng(1)
        for batch in (16, 37, 5):
            x = rng.normal(0, 1, (batch, widths[0]))
            y = rng.normal(0, 1, (batch, widths[-1]))
            loss = mlp_train_step(net, adam, x, y, lr=1e-2)
            assert loss == pytest.approx(ref.mse_step(x, y, lr=1e-2), rel=1e-12)
            assert_matches_textbook(net, adam, ref)
        assert adam.step == 3

    def test_buffers_are_sized_for_one_panel(self):
        # the 512 x 512 layer is cut into 8 panels of 64 rows, the last one
        # with the biases; the 15 x 512 layer (7,680 weights) is one panel
        net = mlp_init([15, 512, 512, 1], seed_or_rng=0)
        adam = adam_init(net)
        assert adam.grad.size == (PANEL_ROWS + 1) * 512
        assert adam.scratch.shape == (2, ADAM_BLOCK)
        assert adam_init(mlp_init([2, 3, 1])).scratch.shape == (2, 13)
        # a short tail joins the panel before it: 300 rows are 64, 64, 64, 108
        assert adam_init(mlp_init([15, 300, 320, 1])).grad.size == (108 + 1) * 320
        # 127 rows are too few to cut, however wide the layer
        assert adam_init(mlp_init([2, 127, 1024, 1])).grad.size == 128 * 1024

    def test_zero_net_gradient_buffer_is_one_panel(self):
        # one 64-row panel of a 1280 x 1280 layer and its biases, not the
        # whole 1281 x 1280 layer (13.1 MB)
        adam = adam_init(init_zero_net())
        assert adam.grad.size == (PANEL_ROWS + 1) * ZERO_NET_HIDDEN
        assert adam.grad.nbytes < 2**20

    def test_sac_optimizers_share_buffers_sized_for_the_largest_layer(self):
        # SAC's layers are each one panel: at the training sizes the shared
        # buffer holds one 256-wide hidden layer with its biases
        opt = init_optimizers(init_agent(window=5, hidden=256, seed=0))
        assert opt.policy.grad.size == 257 * 256
        # a wide window makes a critic's first layer (302 x 8) the largest
        nets = init_agent(window=300, hidden=8, seed=0)
        opt = init_optimizers(nets)
        states = [opt.policy, opt.critic1, opt.critic2, opt.value]
        assert all(s.grad is opt.policy.grad and s.scratch is opt.policy.scratch for s in states)
        assert opt.policy.grad.size == 302 * 8
        assert len({id(s.m) for s in states} | {id(s.v) for s in states}) == 8

    @pytest.mark.parametrize("batch", [64, 16])
    def test_panel_gemm_rows_equal_the_whole_layer_gemm(self, batch):
        # The golden digests below were recorded from one GEMM per layer.
        # They hold because, with this BLAS, a 64-row panel of the
        # zero-net's 1280 x 1280 weight gradient sums exactly as those rows
        # of the whole GEMM do. That is not so for every shape (an odd fan_out, a 1-row panel
        # run as a GEMV); if a BLAS change breaks it, this test names why.
        rng = np.random.default_rng(batch)
        activation = np.maximum(rng.normal(size=(batch, ZERO_NET_HIDDEN)), 0.0)
        delta = rng.normal(size=(batch, ZERO_NET_HIDDEN))
        whole = activation.T @ delta
        for lo in range(0, ZERO_NET_HIDDEN, PANEL_ROWS):
            panel = np.matmul(activation.T[lo : lo + PANEL_ROWS], delta)
            assert panel.tobytes() == whole[lo : lo + PANEL_ROWS].tobytes(), f"rows {lo}+"

    def test_warm_train_step_allocates_under_half_the_net(self):
        net = mlp_init([15, 512, 512, 512, 1], seed_or_rng=0)
        adam = adam_init(net)
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (64, 15))
        y = rng.normal(0, 1, (64, 1))
        mlp_train_step(net, adam, x, y)
        _, peak = traced_peak(lambda: mlp_train_step(net, adam, x, y))
        assert peak < net.flat.nbytes / 2

    def test_init_allocates_about_one_net(self):
        # one layer holds 98% of the parameters, so a temporary per layer shows
        net, peak = traced_peak(lambda: mlp_init([15, 1024, 1024, 1], seed_or_rng=0))
        assert peak < 1.5 * net.flat.nbytes


# sha256 of each net's parameter buffer after a few updates at the training
# sizes (see nn_digests), with one BLAS thread. They were recorded from
# whole-net gradients followed by whole-net Adam, so they hold the per-layer
# sweep to those bits.
GOLDEN_NN_DIGESTS = {
    "sac.policy": "5424f19aae172882010ebc5357a32e9f809a291d47df382a762dcfa172834f91",
    "sac.critic1": "cd32b6faa79ac10cd9f529bf4889c64722fc07304f8753964f494fc7eb8c114e",
    "sac.critic2": "71f7e443f284f20fc5f905ebe0138e8ae7371f33f25ae13a9954dd32b9cbaf79",
    "sac.value": "306a6ca9a9d28bef4e08679a07dbdd2d418f29c0b389578b0cf629714de2f1a0",
    "sac.target_value": "b50a712fb4092581a28d9b13412eba9260ab35a3e2243edf3f0e2bbb7b075084",
    "zero_net": "728da89befb765c1fea83f7a3498ed2d7bb3029c2d855265df5aa960ddede3db",
}


@pytest.fixture(scope="module")
def nn_digests():
    """The five SAC nets after 3 ``sac_update``s at the ``TrainConfig``
    defaults (seed 2) from a synthetic replay buffer, and a zero-net after
    2 ``mlp_train_step``s at batch 64."""
    digests = {}
    cfg = TrainConfig(seed=2)
    rng = np.random.default_rng(cfg.seed)
    buffer = ReplayBuffer(4 * cfg.batch_size, cfg.window)
    for _ in range(buffer.capacity):
        buffer.add(
            rng.uniform(0.0, 2.0, cfg.window), rng.uniform(-1.0, 1.0), -rng.uniform(),
            rng.uniform(0.0, 2.0, cfg.window), float(rng.uniform() < 0.1),
        )
    nets = init_agent(window=cfg.window, hidden=cfg.hidden, seed=cfg.seed)
    opt = init_optimizers(nets)
    for _ in range(3):
        sac_update(nets, opt, buffer.sample(cfg.batch_size, rng), cfg, rng)
    for name in ("policy", "critic1", "critic2", "value", "target_value"):
        digests[f"sac.{name}"] = hashlib.sha256(getattr(nets, name).flat.tobytes()).hexdigest()
    net = init_zero_net(seed=cfg.seed)
    adam = adam_init(net)
    for _ in range(2):
        mlp_train_step(net, adam, rng.normal(size=(64, 15)), rng.normal(size=(64, 1)))
    digests["zero_net"] = hashlib.sha256(net.flat.tobytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(GOLDEN_NN_DIGESTS))
def test_trained_nets_are_byte_stable(name, nn_digests):
    assert nn_digests[name] == GOLDEN_NN_DIGESTS[name]


class TestTargetHelpers:
    def test_copy_params_is_exact(self):
        a = mlp_init([3, 4, 2], seed_or_rng=0)
        b = mlp_init([3, 4, 2], seed_or_rng=1)
        copy_params(b, a)
        np.testing.assert_array_equal(flatten_params(a), flatten_params(b))
        # storage stays separate
        b.weights[0][0, 0] += 1.0
        assert a.weights[0][0, 0] != b.weights[0][0, 0]

    def test_mlp_copy_is_deep(self):
        a = mlp_init([2, 3, 1], seed_or_rng=0)
        b = mlp_copy(a)
        b.weights[0][0, 0] += 1.0
        assert a.weights[0][0, 0] != b.weights[0][0, 0]


class TestCheckpoints:
    def test_round_trip_is_bitwise(self, tmp_path):
        net = mlp_init([4, 8, 3], seed_or_rng=9)
        path = tmp_path / "net.ckpt"
        save_arrays(path, {"widths": net.widths, "note": "x"}, mlp_to_arrays(net, prefix="n."))
        meta, arrays = load_arrays(path)
        assert meta == {"widths": [4, 8, 3], "note": "x"}
        loaded = mlp_from_arrays(meta["widths"], arrays, prefix="n.")
        np.testing.assert_array_equal(flatten_params(loaded), flatten_params(net))

    def test_repeated_saves_are_byte_identical(self, tmp_path):
        net = mlp_init([4, 8, 3], seed_or_rng=9)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_arrays(p1, {}, mlp_to_arrays(net))
        save_arrays(p2, {}, mlp_to_arrays(net))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTME123" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_arrays(path)

    def test_truncated_file_rejected(self, tmp_path):
        net = mlp_init([4, 8, 3], seed_or_rng=9)
        path = tmp_path / "net.ckpt"
        save_arrays(path, {}, mlp_to_arrays(net))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(ValueError):
            load_arrays(path)

    def test_generic_arrays_round_trip(self, tmp_path):
        arrays = {
            "a": np.arange(6.0).reshape(2, 3),
            "b": np.array(4.0),
        }
        path = tmp_path / "arrays.ckpt"
        save_arrays(path, {"k": [1, 2]}, arrays)
        meta, back = load_arrays(path)
        assert meta == {"k": [1, 2]}
        np.testing.assert_array_equal(back["a"], arrays["a"])
        assert back["b"].shape == ()
        assert float(back["b"]) == 4.0
