"""Minimal float64 MLP kernel: ReLU hidden layers, Adam, flat binary checkpoints.

Everything is plain numpy so training runs are bit-reproducible for a fixed
seed; checkpoints are byte-identical across saves of the same parameters
(raw little-endian buffers behind a canonical JSON header, no timestamps).
"""

from __future__ import annotations

import json
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


def _layer_views(flat: np.ndarray, widths: list[int]):
    """Per-layer (weights, biases) views into ``flat``, laid out w0, b0, w1, b1, ..."""
    weights = []
    biases = []
    offset = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        end = offset + fan_in * fan_out
        weights.append(flat[offset:end].reshape(fan_in, fan_out))
        biases.append(flat[end : end + fan_out])
        offset = end + fan_out
    return weights, biases


def _pack(widths: list[int], weights, biases) -> np.ndarray:
    """Copy per-layer arrays into one fresh flat buffer, checking their shapes."""
    flat = np.empty(sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:])))
    dst_weights, dst_biases = _layer_views(flat, widths)
    if len(weights) != len(dst_weights) or len(biases) != len(dst_biases):
        raise ValueError(f"expected {len(dst_weights)} weight and bias arrays for widths {widths}")
    for dst, src in zip(dst_weights + dst_biases, list(weights) + list(biases)):
        if np.shape(src) != dst.shape:
            raise ValueError(f"shape {np.shape(src)} where widths {widths} need {dst.shape}")
        dst[...] = src
    return flat


class _FlatLayers:
    """Weights and biases stored in one contiguous float64 buffer ``flat``.

    ``weights[k]`` (fan_in, fan_out) and ``biases[k]`` (fan_out,) are views
    into ``flat``, laid out w0, b0, w1, b1, ..., so a write through either
    side shows in the other and whole-net arithmetic is one vector operation.
    """

    widths: list[int]
    flat: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def _bind(self, widths, flat: np.ndarray) -> None:
        self.widths = [int(w) for w in widths]
        self.flat = flat
        self.weights, self.biases = _layer_views(flat, self.widths)

    @classmethod
    def from_flat(cls, widths, flat: np.ndarray):
        """Wrap ``flat`` itself (no copy) as the parameters of ``widths``."""
        obj = cls.__new__(cls)
        obj._bind(widths, flat)
        return obj

    @property
    def num_layers(self) -> int:
        return len(self.weights)


class Mlp(_FlatLayers):
    """Fully-connected net; ``widths`` runs input to output inclusive.

    The given arrays are copied into the net's flat buffer.
    """

    def __init__(self, widths, weights, biases):
        self._bind(widths, _pack([int(w) for w in widths], weights, biases))


class MlpGrads(_FlatLayers):
    """Parameter gradients in the flat layout of the net they belong to."""

    def __init__(self, weights, biases):
        widths = [np.shape(w)[0] for w in weights] + [np.shape(weights[-1])[1]]
        self._bind(widths, _pack(widths, weights, biases))


def mlp_init(widths, seed_or_rng=0) -> Mlp:
    """Fan-in uniform weights U(+-1/sqrt(fan_in)), zero biases."""
    widths = [int(w) for w in widths]
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"widths must be at least [in, out] of positive ints, got {widths}")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    weights = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    return Mlp(widths, weights, [np.zeros(w) for w in widths[1:]])


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


def mlp_forward(net: Mlp, x) -> np.ndarray:
    h = _as_batch(x, net.widths[0])
    last = net.num_layers - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = _layer(h, w, b, k < last)
    return h


def mlp_forward_cached(net: Mlp, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass keeping every layer's activation for the backward pass."""
    activations = [_as_batch(x, net.widths[0])]
    last = net.num_layers - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        activations.append(_layer(activations[-1], w, b, k < last))
    return activations[-1], activations


def mlp_backward(
    net: Mlp, activations: list[np.ndarray], grad_out: np.ndarray, input_only: bool = False
) -> tuple[MlpGrads | None, np.ndarray]:
    """Backprop ``grad_out`` (B, out); returns parameter grads and d/d(input).

    With ``input_only`` no parameter gradient is built and ``None`` stands in
    for it; the input gradient is the same either way.
    """
    delta = np.asarray(grad_out, dtype=float)
    grads = None if input_only else MlpGrads.from_flat(net.widths, np.empty_like(net.flat))
    for k in reversed(range(net.num_layers)):
        if grads is not None:
            np.matmul(activations[k].T, delta, out=grads.weights[k])
            np.sum(delta, axis=0, out=grads.biases[k])
        delta = delta @ net.weights[k].T
        if k > 0:
            # ReLU gate; activations store max(z, 0) so positivity is the mask
            np.multiply(delta, activations[k] > 0.0, out=delta)
    return grads, delta


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over batch and output dims; returns (loss, d loss/d pred)."""
    diff = pred - np.asarray(target, dtype=float)
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


@dataclass
class AdamState:
    """First and second moments over a net's flat parameter buffer."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_init(net: Mlp) -> AdamState:
    return AdamState(m=np.zeros_like(net.flat), v=np.zeros_like(net.flat))


def adam_step(
    net: Mlp,
    grads: MlpGrads,
    state: AdamState,
    lr: float = ADAM_LR,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
) -> None:
    """One bias-corrected Adam update applied in place.

    Runs over the flat buffers in ``ADAM_BLOCK``-element blocks with two
    block-sized scratch arrays, so no full-size temporary is built and each
    block stays in cache across its operations. Every element sees the
    operations of ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g*g``,
    ``p -= lr*(m/c1) / (sqrt(v/c2) + eps)`` in that order, so the result is
    bit-identical to the unblocked expression.
    """
    state.step += 1
    correct1 = 1.0 - beta1**state.step
    correct2 = 1.0 - beta2**state.step
    scratch_a = np.empty(ADAM_BLOCK)
    scratch_b = np.empty(ADAM_BLOCK)
    for start in range(0, net.flat.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        p = net.flat[block]
        g = grads.flat[block]
        m = state.m[block]
        v = state.v[block]
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


def mlp_train_step(net: Mlp, adam: AdamState, x, y, lr: float = ADAM_LR) -> float:
    """One squared-error gradient step; returns the pre-update loss."""
    pred, cache = mlp_forward_cached(net, x)
    loss, grad = mse_loss(pred, np.atleast_2d(np.asarray(y, dtype=float)))
    grads, _ = mlp_backward(net, cache, grad)
    adam_step(net, grads, adam, lr=lr)
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
    data = Path(path).read_bytes()
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    offset = len(CHECKPOINT_MAGIC)
    (header_len,) = struct.unpack_from("<Q", data, offset)
    offset += 8
    try:
        header = json.loads(data[offset : offset + header_len])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: corrupt checkpoint header") from exc
    offset += header_len
    arrays = {}
    for entry in header["arrays"]:
        shape = tuple(int(s) for s in entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(data):
            raise ValueError(f"{path}: checkpoint truncated at array {entry['name']!r}")
        arrays[entry["name"]] = (
            np.frombuffer(data, dtype="<f8", count=count, offset=offset)
            .reshape(shape)
            .copy()
        )
        offset = end
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
    """Inverse of ``mlp_to_arrays``; ``Mlp`` rejects arrays that do not fit ``widths``."""
    layers = range(len(widths) - 1)
    return Mlp(
        widths, [arrays[f"{prefix}w{i}"] for i in layers], [arrays[f"{prefix}b{i}"] for i in layers]
    )
