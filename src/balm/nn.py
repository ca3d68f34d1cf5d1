"""Minimal float64 MLP kernel: ReLU hidden layers, Adam, flat binary checkpoints.

Everything is plain numpy so training runs are bit-reproducible for a fixed
seed; checkpoints are byte-identical across saves of the same parameters
(raw little-endian buffers behind a canonical JSON header, no timestamps).

A training step is one backward sweep from the output layer down. The
delta is carried through each layer's weights first; the layer's gradient
is then made one panel of weight rows at a time (a wide layer is cut into
``PANEL_ROWS``-row panels, the last one carrying the biases) into a
one-panel buffer owned by the net's ``AdamState``, and Adam updates the
panel's parameters in place while its gradient is still in cache. No
gradient of the whole net, or of a whole wide layer, is built. The sweep
is checked within a tolerance against a textbook forward pass, backprop and
bias-corrected Adam in ``tests/conftest.py``; ``tests/test_nn.py`` pins its
bits.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"BALMNET1"

ADAM_LR = 3e-4
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 16_384  # elements per in-place Adam block; two scratch blocks fit in L2
PANEL_ROWS = 64  # weight rows per gradient panel of a wide layer


def _layer_slices(widths: list[int]) -> list[slice]:
    """Each layer's span of the flat layout w0, b0, w1, b1, ..., its weights then its biases."""
    slices = []
    offset = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        slices.append(slice(offset, offset + (fan_in + 1) * fan_out))
        offset += (fan_in + 1) * fan_out
    return slices


def _row_panels(fan_in: int, fan_out: int) -> list[tuple[int, int, slice]]:
    """The weight rows [lo, hi) of each gradient panel of a layer, with the
    panel's span of the layer's slice of ``flat``.

    A layer whose weights fit in four Adam blocks, or that has fewer than
    ``2 * PANEL_ROWS`` rows, is one panel. A wider one is cut into panels of
    ``PANEL_ROWS`` rows, and a shorter tail joins the panel before it, so no
    panel has fewer than ``PANEL_ROWS`` rows. The biases follow the weights
    in ``flat``, so the last panel's span covers them too.
    """
    if fan_in * fan_out <= 4 * ADAM_BLOCK or fan_in < 2 * PANEL_ROWS:
        edges = [0, fan_in]
    else:
        edges = list(range(0, fan_in - PANEL_ROWS + 1, PANEL_ROWS)) + [fan_in]
    return [
        (lo, hi, slice(lo * fan_out, (hi + (hi == fan_in)) * fan_out))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


def _layer_views(flat: np.ndarray, widths: list[int]):
    """Per-layer (weights, biases) views into ``flat``, laid out w0, b0, w1, b1, ..."""
    weights = []
    biases = []
    for fan_in, fan_out, layer in zip(widths[:-1], widths[1:], _layer_slices(widths)):
        end = layer.start + fan_in * fan_out
        weights.append(flat[layer.start : end].reshape(fan_in, fan_out))
        biases.append(flat[end : layer.stop])
    return weights, biases


def _pack(widths: list[int], weights, biases) -> np.ndarray:
    """Copy per-layer arrays into one fresh flat buffer, checking their shapes."""
    flat = np.empty(_layer_slices(widths)[-1].stop)
    dst_weights, dst_biases = _layer_views(flat, widths)
    if len(weights) != len(dst_weights) or len(biases) != len(dst_biases):
        raise ValueError(f"expected {len(dst_weights)} weight and bias arrays for widths {widths}")
    for dst, src in zip(dst_weights + dst_biases, list(weights) + list(biases)):
        if np.shape(src) != dst.shape:
            raise ValueError(f"shape {np.shape(src)} where widths {widths} need {dst.shape}")
        dst[...] = src
    return flat


class Mlp:
    """Fully-connected net; ``widths`` runs input to output inclusive.

    Weights and biases are stored in one contiguous float64 buffer ``flat``.
    ``weights[k]`` (fan_in, fan_out) and ``biases[k]`` (fan_out,) are views
    into ``flat``, laid out w0, b0, w1, b1, ..., so a write through either
    side shows in the other and whole-net arithmetic is one vector operation.
    ``layers[k]`` is layer k's slice of ``flat``, its weights then its biases.
    The given arrays are copied into the net's flat buffer.
    """

    widths: list[int]
    flat: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    layers: list[slice]

    def __init__(self, widths, weights, biases):
        self._bind(widths, _pack([int(w) for w in widths], weights, biases))

    def _bind(self, widths, flat: np.ndarray) -> None:
        self.widths = [int(w) for w in widths]
        self.flat = flat
        self.weights, self.biases = _layer_views(flat, self.widths)
        self.layers = _layer_slices(self.widths)

    @classmethod
    def from_flat(cls, widths, flat: np.ndarray) -> "Mlp":
        """Wrap ``flat`` itself (no copy) as the parameters of ``widths``."""
        obj = cls.__new__(cls)
        obj._bind(widths, flat)
        return obj

    @property
    def num_layers(self) -> int:
        return len(self.weights)


def mlp_init(widths, seed_or_rng=0) -> Mlp:
    """Fan-in uniform weights U(+-1/sqrt(fan_in)), zero biases.

    Each layer is drawn straight into the net's buffer; ``r * 2b - b`` for
    ``r`` in [0, 1) is the value ``rng.uniform(-b, b)`` forms, to the bit.
    """
    widths = [int(w) for w in widths]
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"widths must be at least [in, out] of positive ints, got {widths}")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    net = Mlp.from_flat(widths, np.zeros(_layer_slices(widths)[-1].stop))
    for w in net.weights:
        bound = 1.0 / np.sqrt(w.shape[0])
        rng.random(out=w)
        w *= 2.0 * bound
        w -= bound
    return net


def _as_batch(x: np.ndarray, width: int) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != width:
        raise ValueError(f"input width {x.shape[1]} does not match net input {width}")
    return x


def _layer(h: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool) -> np.ndarray:
    """``max(h @ w + b, 0)`` (or without the ReLU), bias and ReLU applied in place."""
    out = h @ w
    out += b
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def mlp_forward_cached(net: Mlp, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """The forward pass: the output (B, out) and every layer's activation, input first."""
    activations = [_as_batch(x, net.widths[0])]
    last = net.num_layers - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        activations.append(_layer(activations[-1], w, b, k < last))
    return activations[-1], activations


def _backprop(net: Mlp, activations: list[np.ndarray], grad_out, layer_done=None):
    """The backward loop, output layer first; returns d/d(input) if no
    ``layer_done`` is given. ``layer_done(k, delta)`` receives the gradient
    at layer k's output once it has been carried through the layer's
    weights, so it may change them; the input gradient is then not formed.
    """
    delta = np.asarray(grad_out, dtype=float)
    for k in reversed(range(net.num_layers)):
        below = None
        if k > 0 or layer_done is None:
            w = net.weights[k]
            # with one output each entry is a single product, so a broadcast
            # gives the K=1 GEMM's bits without the BLAS call
            below = delta * w.T if w.shape[1] == 1 else delta @ w.T
            if k > 0:
                # ReLU gate; activations store max(z, 0) so positivity is the mask
                np.multiply(below, activations[k] > 0.0, out=below)
        if layer_done is not None:
            layer_done(k, delta)
        delta = below
    return delta


def _layer_grads(activation: np.ndarray, delta: np.ndarray, buffer: np.ndarray):
    """A layer's weight and bias gradient, one ``_row_panels`` panel at a time.

    Each panel's rows come from one GEMM and, in the last panel, the biases
    from a last one-row sum, written into the head of ``buffer``. Yields the
    panel's span of the layer's slice and that view of ``buffer``, which the
    next panel overwrites. A panel's rows are those rows of the whole
    layer's GEMM to the bit only for some shapes (not for a ``fan_out`` of
    257 or 1281, nor for a one-row panel, which BLAS runs as a GEMV).
    """
    fan_in, fan_out = activation.shape[1], delta.shape[1]
    for lo, hi, span in _row_panels(fan_in, fan_out):
        grad = buffer[: span.stop - span.start]
        rows = (hi - lo) * fan_out
        np.matmul(activation.T[lo:hi], delta, out=grad[:rows].reshape(hi - lo, fan_out))
        if hi == fan_in:
            np.sum(delta, axis=0, out=grad[rows:])
        yield span, grad


def mlp_backward(net: Mlp, activations: list[np.ndarray], grad_out: np.ndarray) -> np.ndarray:
    """Backprop ``grad_out`` (B, out) to the input; returns d/d(input).

    No parameter gradient is built: this is the gradient the policy
    objective takes from the critics. Training takes its parameter
    gradients in ``mlp_backward_adam``.
    """
    return _backprop(net, activations, grad_out)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over batch and output dims; returns (loss, d loss/d pred)."""
    diff = pred - np.asarray(target, dtype=float)
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


@dataclass
class AdamState:
    """First and second moments over a net's flat parameter buffer.

    ``grad`` holds one gradient panel during a backward sweep and
    ``scratch`` the two blocks Adam works in. Both are reused by every step,
    and the states ``adam_states`` makes together share them.
    """

    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    scratch: np.ndarray
    step: int = 0


def adam_states(nets: list[Mlp]) -> list[AdamState]:
    """Zero moments for each net, and one set of work buffers for them all.

    The nets must take their steps one at a time: they share the gradient
    buffer, sized for the largest gradient panel among them (a narrow
    layer is one panel, its weights and biases), and the scratch blocks.
    """
    grad = np.empty(
        max(
            span.stop - span.start
            for net in nets
            for fan_in, fan_out in zip(net.widths[:-1], net.widths[1:])
            for _lo, _hi, span in _row_panels(fan_in, fan_out)
        )
    )
    scratch = np.empty((2, min(ADAM_BLOCK, max(net.flat.size for net in nets))))
    return [
        AdamState(m=np.zeros_like(net.flat), v=np.zeros_like(net.flat), grad=grad, scratch=scratch)
        for net in nets
    ]


def adam_init(net: Mlp) -> AdamState:
    return adam_states([net])[0]


def _adam_update(state: AdamState, params, grad, first, second, lr: float) -> None:
    """Bias-corrected Adam at ``state.step`` on ``params``, in place.

    ``params``, ``grad``, ``first`` and ``second`` are matching slices of the
    parameters, their gradient and the two moments. The loop runs in
    ``ADAM_BLOCK``-element blocks through the state's two scratch blocks, so
    no full-size temporary is built and each block stays in cache across its
    operations. Every element sees the operations of
    ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g*g``,
    ``p -= lr*(m/c1) / (sqrt(v/c2) + eps)`` in that order, so the result is
    bit-identical to the unblocked expression whatever the slice and
    wherever the block edges fall.
    """
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    correct1 = 1.0 - beta1**state.step
    correct2 = 1.0 - beta2**state.step
    scratch_a, scratch_b = state.scratch
    for start in range(0, params.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        p = params[block]
        g = grad[block]
        m = first[block]
        v = second[block]
        a = scratch_a[: p.size]
        b = scratch_b[: p.size]
        np.multiply(m, beta1, out=m)
        np.multiply(g, 1.0 - beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, beta2, out=v)
        np.multiply(g, 1.0 - beta2, out=a)
        np.multiply(a, g, out=a)
        np.add(v, a, out=v)
        np.divide(v, correct2, out=a)
        np.sqrt(a, out=a)
        np.add(a, eps, out=a)
        np.divide(m, correct1, out=b)
        np.multiply(b, lr, out=b)
        np.divide(b, a, out=b)
        np.subtract(p, b, out=p)


def mlp_backward_adam(
    net: Mlp, adam: AdamState, activations: list[np.ndarray], grad_out, lr: float = ADAM_LR
) -> None:
    """Backprop ``grad_out`` (B, out) and take one Adam step, one panel at a time.

    From the output layer down, the delta is carried through layer k's not
    yet updated weights; then, for each of the layer's gradient panels
    (``_row_panels``), the panel's gradient is written into ``adam.grad``
    and Adam updates the same span of the parameters and moments. No
    gradient the size of the net or of a wide layer is built, and the
    gradient with respect to the input is not formed.
    """
    adam.step += 1

    def update(k, delta):
        layer = net.layers[k]
        params, first, second = net.flat[layer], adam.m[layer], adam.v[layer]
        for span, grad in _layer_grads(activations[k], delta, adam.grad):
            _adam_update(adam, params[span], grad, first[span], second[span], lr)

    _backprop(net, activations, grad_out, update)


def mlp_train_step(net: Mlp, adam: AdamState, x, y, lr: float = ADAM_LR) -> float:
    """One squared-error gradient step; returns the pre-update loss."""
    pred, cache = mlp_forward_cached(net, x)
    loss, grad = mse_loss(pred, np.atleast_2d(np.asarray(y, dtype=float)))
    mlp_backward_adam(net, adam, cache, grad, lr=lr)
    return loss


def mlp_copy(net: Mlp) -> Mlp:
    return Mlp.from_flat(net.widths, net.flat.copy())


def copy_params(target: Mlp, source: Mlp) -> None:
    """Hard parameter copy into an existing net (target network refresh)."""
    target.flat[...] = source.flat


# ---------------------------------------------------------------------------
# Checkpoints: magic + canonical JSON header + raw '<f8' buffers in header
# order. No timestamps or environment data, so identical parameters always
# produce identical bytes.


def save_arrays(path, meta: dict, arrays: dict) -> None:
    entries = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype="<f8", order="C")
        entries.append({"name": str(name), "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps(
        {"meta": meta, "arrays": entries}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_arrays(path) -> tuple[dict, dict]:
    """The ``meta`` and the named arrays of a ``save_arrays`` file. Anything
    else raises ``ValueError``: a header that is not an object with a ``meta``
    object and an ``arrays`` list of ``{name, shape}`` entries with
    non-negative integer shapes, or a file shorter or longer than it says."""
    data = Path(path).read_bytes()
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    offset = len(CHECKPOINT_MAGIC) + 8
    header_len = struct.unpack_from("<Q", data, offset - 8)[0] if len(data) >= offset else None
    if header_len is None or len(data) < offset + header_len:
        raise ValueError(f"{path}: checkpoint truncated in its header")
    try:
        header = json.loads(data[offset : offset + header_len])
    except ValueError as exc:
        raise ValueError(f"{path}: corrupt checkpoint header") from exc
    entries = header.get("arrays") if isinstance(header, dict) else None
    if not (isinstance(entries, list) and isinstance(header.get("meta"), dict) and all(
        isinstance(e, dict) and isinstance(e.get("name"), str) and isinstance(e.get("shape"), list)
        and all(type(n) is int and n >= 0 for n in e["shape"]) for e in entries
    )):
        raise ValueError(
            f"{path}: checkpoint header is not an object with a meta object "
            "and an arrays list of {name, shape} entries"
        )
    offset += header_len
    arrays = {}
    for entry in entries:
        count = math.prod(entry["shape"])
        if offset + 8 * count > len(data):
            raise ValueError(f"{path}: checkpoint truncated at array {entry['name']!r}")
        arrays[entry["name"]] = (
            np.frombuffer(data, "<f8", count, offset).reshape(entry["shape"]).copy()
        )
        offset += 8 * count
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes")
    return header["meta"], arrays


def mlp_to_arrays(net: Mlp, prefix: str = "") -> dict:
    arrays = {}
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"{prefix}w{i}"] = w
        arrays[f"{prefix}b{i}"] = b
    return arrays


def mlp_from_arrays(widths, arrays: dict, prefix: str = "") -> Mlp:
    """Inverse of ``mlp_to_arrays``. ``widths`` that are not a list of two or
    more positive ints, or a missing or non-finite array, raise ``ValueError``
    naming them, and ``Mlp`` rejects arrays that do not fit ``widths``."""
    if not (isinstance(widths, list) and len(widths) >= 2
            and all(type(w) is int and w > 0 for w in widths)):
        raise ValueError(f"checkpoint {prefix}widths {widths!r} are not two or more positive ints")
    weights, biases = ([f"{prefix}{kind}{i}" for i in range(len(widths) - 1)] for kind in "wb")
    for name in weights + biases:
        if name not in arrays:
            raise ValueError(f"checkpoint has no array {name!r}")
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"checkpoint array {name!r} has a non-finite value")
    return Mlp(widths, [arrays[n] for n in weights], [arrays[n] for n in biases])
