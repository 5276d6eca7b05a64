"""Network primitives with explicit forward and backward passes.

Forward passes take a stack of samples along a leading batch axis: (n, length)
spectra, (n, n_filters, length) feature maps, (n, in_dim) dense inputs. A lone
sample is a one-row stack.

Backward passes take one row of a stacked forward. Each returns a tuple: the
parameter gradients, then the gradient with respect to the layer input (the
conv, the first layer, returns only its parameter gradients). The conv's
backward takes the same pool window as its forward and routes the pooled
gradient itself. Each is validated against central finite differences in the
test suite. Max pooling keeps no argmax: its forward returns only the window
maxima, and its backward finds the earliest column holding each maximum from
the maps and the maxima.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

logger = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


class ShapeError(ValueError):
    """An input does not match a layer's expected dimensions."""


@dataclass
class Conv1d:
    """Bank of valid (no padding, stride 1) 1-d convolution filters with ReLU."""

    weights: np.ndarray  # (n_filters, kernel_len)
    bias: np.ndarray  # (n_filters,)


@dataclass
class Dense:
    """Fully connected layer computing activation(v @ weights + bias), where
    the activation is "relu" or "identity"."""

    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str = "identity"


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis; invariant to adding a
    constant to `z`."""
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _windows(x: np.ndarray, kernel_len: int) -> np.ndarray:
    """Read-only (..., length - kernel_len + 1, kernel_len) view of the
    overlapping windows along the last axis of `x`."""
    step = x.strides[-1]
    shape = (*x.shape[:-1], x.shape[-1] - kernel_len + 1, kernel_len)
    return as_strided(x, shape, (*x.strides[:-1], step, step), writeable=False)


def conv1d_forward(layer: Conv1d, x: np.ndarray, width: int = 1, stride: int = 1) -> np.ndarray:
    """ReLU feature maps for an (n, length) stack of spectra, max-pooled over
    windows of `width` columns every `stride` columns.

    The default (1, 1) returns the plain maps, (n, n_filters, length -
    kernel_len + 1). The pool runs on the bias-free products, and the bias
    and ReLU on its maxima only: both are monotone, so the result is bitwise
    maxpool1d_forward(conv1d_forward(layer, x), width, stride).
    """
    x = np.asarray(x, dtype=np.float64)
    kernel_len = layer.weights.shape[1]
    if x.ndim != 2:
        raise ShapeError(f"conv1d expects (n, length), got shape {x.shape}")
    if x.shape[1] < kernel_len:
        raise ShapeError(
            f"input length {x.shape[1]} is shorter than the kernel ({kernel_len})"
        )
    # The overlapping window view has no BLAS layout, so numpy sums each output
    # over the taps in order: every row gets the bits of a one-row stack.
    products = layer.weights @ _windows(x, kernel_len).swapaxes(-1, -2)  # (n, F, L)
    out = maxpool1d_forward(products, width, stride)
    out += layer.bias[:, None]
    return np.maximum(out, 0.0, out=out)


def conv1d_backward(
    layer: Conv1d,
    x: np.ndarray,
    pooled: np.ndarray,
    grad_out: np.ndarray,
    width: int = 1,
    stride: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """(d_weights, d_bias) of a scalar loss through the pooled ReLU convolution.

    `x` is one row of a stacked forward's spectra, `pooled` the same row of
    that conv1d_forward(layer, spectra, width, stride) and `grad_out` the
    loss gradient at it. The plain maps are recomputed from `x` as a one-row
    stack, and the pool routes the gradient back to them. The conv is the
    model's first layer and nothing before it learns, so the gradient with
    respect to `x` is not computed.
    """
    x = np.asarray(x, dtype=np.float64)
    maps = conv1d_forward(layer, x[None])[0]  # (F, L)
    g = maxpool1d_backward(maps, pooled, grad_out, width, stride)
    g = np.where(maps > 0.0, g, 0.0)
    return g @ _windows(x, layer.weights.shape[1]), g.sum(axis=1)


def maxpool1d_forward(x: np.ndarray, width: int = 2, stride: int = 2) -> np.ndarray:
    """Window maxima over the last axis of an (n, n_maps, length) stack of
    feature maps.

    Only the maxima are kept: maxpool1d_backward recomputes which column each
    one came from. A trailing remainder shorter than `width` is dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"maxpool expects (n, n_maps, length), got shape {x.shape}")
    if width < 1 or stride < 1:
        raise ValueError(f"width and stride must be >= 1, got ({width}, {stride})")
    if x.shape[-1] < width:
        raise ShapeError(f"map length {x.shape[-1]} is shorter than the window ({width})")
    span = stride * ((x.shape[-1] - width) // stride) + 1
    # One strided tap per window offset; the first maximum allocates the result.
    pooled = np.maximum(x[..., 0:span:stride], x[..., width - 1 : width - 1 + span : stride])
    for k in range(1, width - 1):
        np.maximum(pooled, x[..., k : k + span : stride], out=pooled)
    return pooled


def maxpool1d_backward(
    x: np.ndarray, pooled: np.ndarray, grad_out: np.ndarray, width: int = 2, stride: int = 2
) -> np.ndarray:
    """Route pooled gradients back to the column of `x` that held each maximum.

    `x` is one sample's (n_maps, length) maps and `pooled` their row of
    maxpool1d_forward. Ties take the earliest column of the window.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"maxpool backward expects (n_maps, length) maps, got {x.shape}")
    n_windows = (x.shape[1] - width) // stride + 1
    if pooled.shape != (x.shape[0], n_windows) or grad_out.shape != pooled.shape:
        raise ShapeError(
            f"maps {x.shape} with window ({width}, {stride}) disagree with "
            f"pooled {pooled.shape} and grad {grad_out.shape}"
        )
    span = stride * (n_windows - 1) + 1
    # From the last tap to the first, so the earliest column holding the maximum wins.
    idx = np.full(pooled.shape, width - 1, dtype=np.intp)
    for k in range(width - 2, -1, -1):
        idx = np.where(x[:, k : k + span : stride] == pooled, k, idx)
    idx += np.arange(n_windows) * stride
    d_x = np.zeros(x.shape, dtype=np.float64)
    rows = np.arange(x.shape[0])[:, None]
    np.add.at(d_x, (rows, idx), grad_out)
    return d_x


def dense_forward(layer: Dense, v: np.ndarray) -> np.ndarray:
    """activation(v @ weights + bias) for an (n, in_dim) stack of inputs."""
    v = np.asarray(v, dtype=np.float64)
    in_dim = layer.weights.shape[0]
    if v.ndim != 2 or v.shape[1] != in_dim:
        raise ShapeError(f"expected input of shape (n, {in_dim}), got {v.shape}")
    z = v @ layer.weights + layer.bias
    if layer.activation == "relu":
        return relu(z)
    if layer.activation == "identity":
        return z
    raise ValueError(f"unknown activation {layer.activation!r}")


def dense_backward(
    layer: Dense, v: np.ndarray, out: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_weights, d_bias, d_inputs) of a scalar loss through a dense layer;
    `grad_out` is the loss gradient at the layer output."""
    v = np.asarray(v, dtype=np.float64)
    out_dim = layer.bias.shape[0]
    if out.shape != (out_dim,) or grad_out.shape != (out_dim,):
        raise ShapeError(
            f"expected output vectors of shape ({out_dim},), "
            f"got out {out.shape} and grad {grad_out.shape}"
        )
    if layer.activation == "relu":
        dz = np.where(out > 0.0, grad_out, 0.0)
    elif layer.activation == "identity":
        dz = np.asarray(grad_out, dtype=np.float64)
    else:
        raise ValueError(f"unknown activation {layer.activation!r}")
    return np.outer(v, dz), dz.copy(), layer.weights @ dz


def dropout(
    keep_prob: float, rng: np.random.Generator | None, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout of `v`, or of each row of an (n, d) stack: keep each
    value with probability keep_prob and rescale the kept ones by 1/keep_prob.

    Returns (output, keep mask). Only a given rng with keep_prob < 1 draws a
    mask; otherwise (inference, or nothing to drop) `v` passes through and
    the mask is None.
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
    v = np.asarray(v, dtype=np.float64)
    if rng is None or keep_prob == 1.0:
        return v, None
    mask = (rng.random(v.shape) < keep_prob).astype(np.float64)
    return v * mask / keep_prob, mask


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
