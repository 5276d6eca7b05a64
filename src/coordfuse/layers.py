"""Network primitives with explicit forward and backward passes.

Every pass takes a stack of samples along a leading batch axis: (n, length)
spectra, (n, n_filters, length) feature maps, (n, in_dim) dense inputs, (n, K)
distributions. A lone sample is a one-row stack; one without the axis raises
ShapeError. Each backward returns a tuple: the parameter gradients summed over
the rows, then the per-row gradient with respect to the layer input (the conv,
the first layer, returns only its parameter gradients). The conv's backward
takes its forward's pool window and routes the pooled gradient itself. Each is
checked against central finite differences in the test suite. Max pooling keeps
no argmax: its backward finds the earliest column holding each maximum from the
maps and the maxima. A dense layer is linear unless its `relu` flag is set: the
model's hidden layers set it, its fusion head does not.

The kernels take their float64 stacks as given: inputs are converted where they
enter, in `model.forward` (spectra and coordinates) and `model.backward`
(labels). Only cross_entropy converts, its class indices, which may be a list.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

logger = logging.getLogger(__name__)

PROB_FLOOR = 1e-12

# The conv makes its filter products in blocks of rows of at most this many
# float64 values (256 KiB), through one buffer per call.
_BLOCK_VALUES = 1 << 15


class ShapeError(ValueError):
    """An input does not match a layer's expected dimensions."""


@dataclass
class Conv1d:
    """Bank of valid (no padding, stride 1) 1-d convolution filters with ReLU."""

    weights: np.ndarray  # (n_filters, kernel_len)
    bias: np.ndarray  # (n_filters,)


@dataclass
class Dense:
    """Fully connected layer computing v @ weights + bias, followed by a ReLU
    when `relu` is set."""

    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)
    relu: bool = False


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
    maxpool1d_forward(conv1d_forward(layer, x), width, stride). The products
    are made in blocks of rows of at most _BLOCK_VALUES float64 values (one
    row if a row's maps are larger), each written into one buffer allocated
    per call and pooled into its rows of the result, so no product array
    for all n rows is made.
    """
    n_filters, kernel_len = layer.weights.shape
    if x.ndim != 2:
        raise ShapeError(f"conv1d expects (n, length), got shape {x.shape}")
    if x.shape[1] < kernel_len:
        raise ShapeError(
            f"input length {x.shape[1]} is shorter than the kernel ({kernel_len})"
        )
    # The overlapping window view has no BLAS layout, so numpy sums each output
    # over the taps in order: every row gets the bits of a one-row stack, in
    # any block.
    windows = _windows(x, kernel_len).swapaxes(-1, -2)  # (n, K, L)
    conv_len = windows.shape[-1]
    out = np.empty((len(x), n_filters, _pooled_len(conv_len, width, stride)))
    block = max(1, _BLOCK_VALUES // (n_filters * conv_len))
    buf = np.empty((min(block, len(x)), n_filters, conv_len))
    for start in range(0, len(x), block):
        rows = windows[start : start + block]
        products = np.matmul(layer.weights, rows, out=buf[: len(rows)])
        maxpool1d_forward(products, width, stride, out=out[start : start + block])
    out += layer.bias[:, None]
    return np.maximum(out, 0.0, out=out)


def conv1d_backward(
    layer: Conv1d, x: np.ndarray, pooled: np.ndarray, grad_out: np.ndarray,
    width: int = 1, stride: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """(d_weights, d_bias), summed over the rows, of a scalar loss through
    the pooled ReLU convolution of the (n, length) spectra `x`.

    `pooled` is conv1d_forward(layer, x, width, stride) and `grad_out` the
    loss gradient at it. The plain maps are recomputed from `x`, and the pool
    routes the gradient back to them. Nothing before the conv learns, so no
    gradient with respect to `x` is computed.
    """
    maps = conv1d_forward(layer, x)  # (n, F, L)
    g = maxpool1d_backward(maps, pooled, grad_out, width, stride)
    g = np.where(maps > 0.0, g, 0.0)
    return (g @ _windows(x, layer.weights.shape[1])).sum(axis=0), g.sum(axis=(0, 2))


def _pooled_len(length: int, width: int, stride: int) -> int:
    """Number of pool windows of `width` columns every `stride` columns over
    `length` columns; a trailing remainder shorter than `width` is dropped."""
    if width < 1 or stride < 1:
        raise ValueError(f"width and stride must be >= 1, got ({width}, {stride})")
    if length < width:
        raise ShapeError(f"map length {length} is shorter than the window ({width})")
    return (length - width) // stride + 1


def maxpool1d_forward(
    x: np.ndarray, width: int, stride: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Window maxima over the last axis of an (n, n_maps, length) stack of
    feature maps, written into `out` when given.

    Only the maxima are kept: maxpool1d_backward recomputes which column each
    one came from. A trailing remainder shorter than `width` is dropped.
    """
    if x.ndim != 3:
        raise ShapeError(f"maxpool expects (n, n_maps, length), got shape {x.shape}")
    span = stride * (_pooled_len(x.shape[-1], width, stride) - 1) + 1
    # One strided tap per window offset; the first maximum fills the result.
    pooled = np.maximum(x[..., 0:span:stride], x[..., width - 1 : width - 1 + span : stride],
                        out=out)
    for k in range(1, width - 1):
        np.maximum(pooled, x[..., k : k + span : stride], out=pooled)
    return pooled


def maxpool1d_backward(
    x: np.ndarray, pooled: np.ndarray, grad_out: np.ndarray, width: int, stride: int
) -> np.ndarray:
    """Route pooled gradients back to the column of `x` that held each maximum.

    `x` is an (n, n_maps, length) stack of maps and `pooled` its
    maxpool1d_forward. Ties take the earliest column of the window, and a
    window whose maximum no column equals (a NaN) takes its last column.
    """
    if x.ndim != 3:
        raise ShapeError(f"maxpool backward expects (n, n_maps, length) maps, got {x.shape}")
    n_windows = _pooled_len(x.shape[-1], width, stride)
    if pooled.shape != (*x.shape[:2], n_windows) or grad_out.shape != pooled.shape:
        raise ShapeError(f"maps {x.shape} with window ({width}, {stride}) disagree with "
                         f"pooled {pooled.shape} and grad {grad_out.shape}")
    span = stride * (n_windows - 1) + 1
    # Each tap claims the unclaimed windows whose maximum it holds, from the
    # earliest tap on; the last tap takes the rest.
    free = np.ones(pooled.shape, dtype=bool)
    hits = []
    for k in range(width - 1):
        hits.append(free & (x[..., k : k + span : stride] == pooled))
        free &= ~hits[-1]
    hits.append(free)
    # From the last tap to the first, so a column shared by overlapping
    # windows adds their gradients in window order.
    d_x = np.zeros(x.shape, dtype=np.float64)
    for k in range(width - 1, -1, -1):
        d_x[..., k : k + span : stride] += np.where(hits[k], grad_out, 0.0)
    return d_x


def dense_forward(layer: Dense, v: np.ndarray) -> np.ndarray:
    """v @ weights + bias for an (n, in_dim) stack of inputs, through a ReLU
    when the layer has one."""
    in_dim = layer.weights.shape[0]
    if v.ndim != 2 or v.shape[1] != in_dim:
        raise ShapeError(f"expected input of shape (n, {in_dim}), got {v.shape}")
    z = v @ layer.weights + layer.bias
    return np.maximum(z, 0.0, out=z) if layer.relu else z


def dense_backward(
    layer: Dense, v: np.ndarray, out: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_weights, d_bias, d_inputs) of a scalar loss through a dense layer,
    for an (n, in_dim) stack of inputs `v`, its outputs `out` and the loss
    gradient `grad_out` at them."""
    n = v.shape[:1]
    if v.shape != n + layer.weights.shape[:1] or not (
        out.shape == grad_out.shape == n + layer.bias.shape
    ):
        raise ShapeError(f"inputs {v.shape}, out {out.shape} and grad {grad_out.shape} "
                         f"do not fit a {layer.weights.shape} layer")
    dz = np.where(out > 0.0, grad_out, 0.0) if layer.relu else grad_out
    # np.dot: at one row it is bitwise np.outer, and faster than `@`.
    return np.dot(v.T, dz), dz.sum(axis=0), np.dot(dz, layer.weights.T)


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
    if rng is None or keep_prob == 1.0:
        return v, None
    mask = (rng.random(v.shape) < keep_prob).astype(np.float64)
    return v * mask / keep_prob, mask


def cross_entropy(probs: np.ndarray, class_index: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed negative log-likelihood of each row's `class_index` under the
    (n, K) softmax outputs `probs`, and its (n, K) gradient with respect to the
    logits, probs - onehot(class_index). Probabilities below 1e-12 are clamped
    rather than giving an infinite loss, with one warning per call that counts
    them."""
    class_index = np.asarray(class_index)
    if probs.ndim != 2 or class_index.shape != probs.shape[:1]:
        raise ShapeError(f"(n, K) probs need n indices, got {probs.shape}, {class_index.shape}")
    bad = (class_index < 0) | (class_index >= probs.shape[1])
    if bad.any():
        k = probs.shape[1]
        raise ValueError(f"class index {class_index[bad][0]} out of range for {k} classes")
    rows = np.arange(len(probs))
    p = probs[rows, class_index]
    low = p < PROB_FLOOR
    if low.any():
        logger.warning("clamping %d class probabilities below %.0e", low.sum(), PROB_FLOOR)
        p = np.where(low, PROB_FLOOR, p)
    loss = -float(np.log(p).sum())
    grad = probs.copy()
    grad[rows, class_index] -= 1.0
    return loss, grad
