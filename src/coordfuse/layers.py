"""Network primitives with explicit forward and backward passes.

Forward passes take one sample or a stack of samples along a leading batch
axis: a spectral input is a flat float64 vector or an (n, bands) stack, a
convolution output is (n_filters, length) or (n, n_filters, length), dense
layers map (in_dim,) or (n, in_dim) to (out_dim,) or (n, out_dim). A sample
without the batch axis runs the same code, so its result does not depend on
whether it is stacked. Backward passes work per sample. Each returns parameter
gradients plus the gradient with respect to the layer input, and is validated
against central finite differences in the test suite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

logger = logging.getLogger(__name__)

PROB_FLOOR = 1e-12

ACTIVATIONS = ("relu", "softmax", "identity")


class ShapeError(ValueError):
    """An input does not match a layer's expected dimensions."""


@dataclass
class Conv1d:
    """Bank of valid (no padding, stride 1) 1-d convolution filters with ReLU."""

    weights: np.ndarray  # (n_filters, kernel_len)
    bias: np.ndarray  # (n_filters,)


@dataclass
class Dense:
    """Fully connected layer computing activation(v @ weights + bias)."""

    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str = "identity"


@dataclass
class DropoutSpec:
    """Inverted dropout: keep with probability keep_prob, rescale by 1/keep_prob."""

    keep_prob: float
    mode: str = "train"  # "train" | "inference"


@dataclass
class LayerGrads:
    """Gradients mirroring a layer's parameter shapes, plus the input gradient."""

    weights: np.ndarray
    bias: np.ndarray
    inputs: np.ndarray


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis; invariant to adding a
    constant to `z`."""
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def conv1d_forward(layer: Conv1d, x: np.ndarray) -> np.ndarray:
    """ReLU feature maps of shape (..., n_filters, length - kernel_len + 1)
    for one spectrum (length,) or a stack (n, length)."""
    x = np.asarray(x, dtype=np.float64)
    kernel_len = layer.weights.shape[1]
    if x.ndim not in (1, 2):
        raise ShapeError(f"conv1d expects (length,) or (n, length), got shape {x.shape}")
    if x.shape[-1] < kernel_len:
        raise ShapeError(
            f"input length {x.shape[-1]} is shorter than the kernel ({kernel_len})"
        )
    windows = sliding_window_view(x, kernel_len, axis=-1)  # (..., L, K)
    # The overlapping window view has no BLAS layout, so numpy sums each output
    # over the taps in order: a stacked spectrum gets the bits of a lone one.
    pre = layer.weights @ windows.swapaxes(-1, -2)  # (..., F, L)
    pre += layer.bias[:, None]
    return np.maximum(pre, 0.0, out=pre)


def conv1d_backward(
    layer: Conv1d, x: np.ndarray, out: np.ndarray, grad_out: np.ndarray
) -> LayerGrads:
    """Gradients of a scalar loss through the ReLU convolution.

    `out` is the forward result for `x`; its sign carries the ReLU mask.
    """
    x = np.asarray(x, dtype=np.float64)
    n_filters, kernel_len = layer.weights.shape
    length = x.shape[0] - kernel_len + 1
    if out.shape != (n_filters, length) or grad_out.shape != (n_filters, length):
        raise ShapeError(
            f"expected maps of shape {(n_filters, length)}, "
            f"got out {out.shape} and grad {grad_out.shape}"
        )
    g = np.where(out > 0.0, grad_out, 0.0)  # (F, L)
    windows = sliding_window_view(x, kernel_len)  # (L, K)
    d_weights = g @ windows
    d_bias = g.sum(axis=1)
    spread = g.T @ layer.weights  # (L, K), contribution of each tap
    d_x = np.zeros_like(x)
    for k in range(kernel_len):
        d_x[k : k + length] += spread[:, k]
    return LayerGrads(d_weights, d_bias, d_x)


def maxpool1d_forward(
    x: np.ndarray, width: int = 2, stride: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Window maxima over the last axis of (n_maps, length) feature maps, or
    of an (n, n_maps, length) stack of them.

    Returns (pooled, argmax) where argmax holds absolute column indices into
    `x` for backward routing. Ties take the earliest column; a trailing
    remainder shorter than `width` is dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ShapeError(
            f"maxpool expects (n_maps, length) or (n, n_maps, length), got shape {x.shape}"
        )
    if width < 1 or stride < 1:
        raise ValueError(f"width and stride must be >= 1, got ({width}, {stride})")
    if x.shape[-1] < width:
        raise ShapeError(f"map length {x.shape[-1]} is shorter than the window ({width})")
    n_windows = (x.shape[-1] - width) // stride + 1
    span = stride * (n_windows - 1) + 1
    # One strided tap per window offset. A later tap wins only where it is
    # strictly greater, so ties keep the earliest column.
    pooled = x[..., 0:span:stride].copy()
    idx = np.zeros(pooled.shape, dtype=np.intp)
    for k in range(1, width):
        tap = x[..., k : k + span : stride]
        idx += (tap > pooled) * (k - idx)
        np.maximum(pooled, tap, out=pooled)
    idx += np.arange(n_windows) * stride
    return pooled, idx


def maxpool1d_backward(
    input_shape: tuple[int, int], idx: np.ndarray, grad_out: np.ndarray
) -> np.ndarray:
    """Route pooled gradients back to the argmax positions."""
    if idx.shape != grad_out.shape:
        raise ShapeError(f"index shape {idx.shape} != grad shape {grad_out.shape}")
    d_x = np.zeros(input_shape, dtype=np.float64)
    rows = np.arange(input_shape[0])[:, None]
    np.add.at(d_x, (rows, idx), grad_out)
    return d_x


def dense_forward(layer: Dense, v: np.ndarray) -> np.ndarray:
    """activation(v @ weights + bias) for a flat input vector or an
    (n, in_dim) stack of them."""
    v = np.asarray(v, dtype=np.float64)
    in_dim = layer.weights.shape[0]
    if v.ndim not in (1, 2) or v.shape[-1] != in_dim:
        raise ShapeError(f"expected input of shape ({in_dim},) or (n, {in_dim}), got {v.shape}")
    z = v @ layer.weights + layer.bias
    if layer.activation == "relu":
        return relu(z)
    if layer.activation == "softmax":
        return softmax(z)
    if layer.activation == "identity":
        return z
    raise ValueError(f"unknown activation {layer.activation!r}")


def dense_backward(
    layer: Dense, v: np.ndarray, out: np.ndarray, grad_out: np.ndarray
) -> LayerGrads:
    """Gradients of a scalar loss through a dense layer.

    For relu/identity, `grad_out` is the loss gradient at the layer output.
    A softmax layer is always paired with `cross_entropy`, which already
    differentiates through the softmax, so there `grad_out` must be the
    gradient with respect to the pre-activation logits.
    """
    v = np.asarray(v, dtype=np.float64)
    out_dim = layer.bias.shape[0]
    if out.shape != (out_dim,) or grad_out.shape != (out_dim,):
        raise ShapeError(
            f"expected output vectors of shape ({out_dim},), "
            f"got out {out.shape} and grad {grad_out.shape}"
        )
    if layer.activation == "relu":
        dz = np.where(out > 0.0, grad_out, 0.0)
    elif layer.activation in ("softmax", "identity"):
        dz = np.asarray(grad_out, dtype=np.float64)
    else:
        raise ValueError(f"unknown activation {layer.activation!r}")
    return LayerGrads(np.outer(v, dz), dz.copy(), layer.weights @ dz)


def dropout(
    spec: DropoutSpec, rng: np.random.Generator | None, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply inverted dropout to `v` or to each row of an (n, d) stack,
    returning (output, keep mask).

    Inference mode (and keep_prob == 1) is the identity map; its mask is one
    (d,) vector of ones, which broadcasts against `v`.
    """
    if not 0.0 < spec.keep_prob <= 1.0:
        raise ValueError(f"keep_prob must be in (0, 1], got {spec.keep_prob}")
    if spec.mode not in ("train", "inference"):
        raise ValueError(f"unknown dropout mode {spec.mode!r}")
    v = np.asarray(v, dtype=np.float64)
    if spec.mode == "inference" or spec.keep_prob == 1.0:
        return v, np.ones(v.shape[-1])
    if rng is None:
        raise ValueError("train-mode dropout requires an rng")
    mask = (rng.random(v.shape) < spec.keep_prob).astype(np.float64)
    return v * mask / spec.keep_prob, mask


def cross_entropy(probs: np.ndarray, class_index: int) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of `class_index` under softmax output `probs`.

    Returns (loss, gradient with respect to the softmax logits), the latter
    being probs - onehot(class_index). Probabilities below 1e-12 are clamped
    and logged rather than producing an infinite loss.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ShapeError(f"probs must be a vector, got shape {probs.shape}")
    if not 0 <= class_index < probs.shape[0]:
        raise ValueError(f"class index {class_index} out of range for {probs.shape[0]} classes")
    p = probs[class_index]
    if p < PROB_FLOOR:
        logger.warning("clamping class probability %.3e to %.0e", p, PROB_FLOOR)
        p = PROB_FLOOR
    loss = -float(np.log(p))
    grad = probs.copy()
    grad[class_index] -= 1.0
    return loss, grad
