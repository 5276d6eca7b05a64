"""Accuracy metrics, map rendering, and the dense pairwise energy diagnostic.

The metrics follow the usual remote-sensing trio: overall accuracy, average
(per-class mean) accuracy, and Cohen's kappa. Kappa is computed from integer
marginals so values that are exact rationals (e.g. 0.4) come out exact.

`dense_energy` scores a labeling under a fully connected pairwise model with
a Gaussian appearance kernel plus a Gaussian smoothness kernel and Potts
compatibility. It is a diagnostic for comparing two classification maps, not
an inference routine: the sum over all pixel pairs is exact and O(N^2), meant
for crops up to the size of the Indian Pines frame. It evaluates each
unordered pair once, in blocks of query pixels with one `exp` per pair and a
working memory of a few 256 KiB blocks, whatever the crop's shape.
"""

from __future__ import annotations

import colorsys
import math
import sys
from dataclasses import dataclass

import numpy as np

from coordfuse.layers import PROB_FLOOR, ShapeError
from coordfuse.numerics import atomic_write, type_fields

# Bytes of one (query block x compared pixels) float64 array in `dense_energy`.
_BLOCK_BYTES = 256 * 1024


def confusion(preds, truth, num_classes: int) -> np.ndarray:
    """num_classes x num_classes count matrix, rows indexed by truth, columns
    by prediction. Labels are 1-based."""
    preds = np.asarray(preds, dtype=np.int64).reshape(-1)
    truth = np.asarray(truth, dtype=np.int64).reshape(-1)
    if preds.shape != truth.shape:
        raise ShapeError(f"{len(preds)} predictions vs {len(truth)} truth labels")
    if len(preds) == 0:
        raise ValueError("no samples to tally")
    if num_classes < 1:
        raise ValueError(f"num_classes must be positive, got {num_classes}")
    for name, arr in (("preds", preds), ("truth", truth)):
        if arr.min() < 1 or arr.max() > num_classes:
            raise ValueError(f"{name} outside 1..{num_classes}")
    cells = (truth - 1) * num_classes + (preds - 1)
    return np.bincount(cells, minlength=num_classes**2).reshape(num_classes, num_classes)


@dataclass
class EvalReport:
    per_class: np.ndarray  # fractions in [0, 1], one per class
    oa: float
    aa: float
    kappa: float
    counts: np.ndarray  # evaluated samples per true class


def metrics(cm: np.ndarray) -> EvalReport:
    """OA, AA, and kappa from a confusion matrix.

    kappa = (p_o - p_e) / (1 - p_e) is evaluated as a ratio of integers,
    (total * trace - S) / (total^2 - S) with S = sum of row * column
    marginal products, so no intermediate float rounding leaks in.
    """
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ShapeError(f"confusion matrix must be square, got {cm.shape}")
    if not np.issubdtype(cm.dtype, np.integer):
        raise ValueError(f"confusion matrix must hold integers, got {cm.dtype}")
    if cm.min() < 0:
        raise ValueError("confusion matrix has negative counts")
    total = int(cm.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    rows = cm.sum(axis=1)
    if (rows == 0).any():
        missing = int(np.argwhere(rows == 0)[0, 0]) + 1
        raise ValueError(f"class {missing} has no evaluated samples")
    cols = cm.sum(axis=0)
    trace = int(np.trace(cm))
    s = sum(int(r) * int(c) for r, c in zip(rows, cols))
    denom = total * total - s
    if denom == 0:
        raise ValueError("kappa undefined: marginals force total agreement by chance")
    per_class = np.diag(cm) / rows
    return EvalReport(
        per_class=per_class,
        oa=trace / total,
        aa=float(per_class.mean()),
        kappa=(total * trace - s) / denom,
        counts=rows.astype(np.int64),
    )


def write_report(report: EvalReport, path, train_counts) -> None:
    """Emit report.json with fixed key order and fixed float formatting;
    `train_counts` holds the training samples per class.

    The byte-for-byte stable output is what makes rerun comparisons exact.
    """
    parts = [f'"aa":{report.aa:.6f}']
    parts.append('"counts":[%s]' % ",".join(str(int(c)) for c in report.counts))
    parts.append(f'"kappa":{report.kappa:.6f}')
    parts.append(f'"oa":{report.oa:.6f}')
    parts.append(
        '"per_class":[%s]' % ",".join(f"{v:.6f}" for v in report.per_class)
    )
    parts.append('"train_counts":[%s]' % ",".join(str(int(c)) for c in train_counts))
    with atomic_write(path, "w") as f:
        f.write("{" + ",".join(parts) + "}\n")


def default_palette(num_classes: int) -> np.ndarray:
    """(K+1, 3) uint8 colors; row 0 is black for unlabeled pixels.

    Hues step by the golden-ratio conjugate with alternating saturation
    and value, which keeps neighbors in class-id order visually distinct.
    """
    if num_classes < 1:
        raise ValueError(f"num_classes must be positive, got {num_classes}")
    palette = np.zeros((num_classes + 1, 3), dtype=np.uint8)
    for k in range(num_classes):
        hue = (k * 0.618033988749895) % 1.0
        sat = 0.85 if k % 2 == 0 else 0.55
        val = 0.95 if k % 3 != 2 else 0.65
        rgb = colorsys.hsv_to_rgb(hue, sat, val)
        palette[k + 1] = [int(round(c * 255.0)) for c in rgb]
    return palette


def render_map(preds: np.ndarray, palette: np.ndarray, path) -> None:
    """Write an H x W class map as a binary PPM (P6), one color per class."""
    preds = np.asarray(preds)
    if preds.ndim != 2:
        raise ShapeError(f"expected a 2-d label raster, got shape {preds.shape}")
    palette = np.asarray(palette)
    if palette.ndim != 2 or palette.shape[1] != 3:
        raise ShapeError(f"palette must be (n, 3), got {palette.shape}")
    if preds.min() < 0:
        raise ValueError("negative class ids in map")
    if preds.max() >= len(palette):
        raise ValueError(
            f"palette has {len(palette)} entries, map needs {int(preds.max()) + 1}"
        )
    h, w = preds.shape
    rgb = palette.astype(np.uint8)[preds]
    with atomic_write(path) as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb)


@dataclass(frozen=True)
class CrfParams:
    """Weights and bandwidths of the two pairwise Gaussian kernels."""

    w1: float = 1.0
    w2: float = 1.0
    theta_alpha: float = 8.0
    theta_beta: float = 0.5
    theta_gamma: float = 3.0

    def __post_init__(self):
        type_fields(self)
        for name in ("w1", "w2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("theta_alpha", "theta_beta", "theta_gamma"):
            theta = getattr(self, name)
            if not 0 < theta < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {theta}")
            # The kernels divide by 2 theta^2, which must neither overflow
            # nor underflow: 0/0 would make a kernel NaN.
            if not sys.float_info.min <= 2.0 * theta * theta < math.inf:
                raise ValueError(
                    f"{name} = {theta} is out of range: 2*{name}**2 overflows "
                    "or underflows float64"
                )


def dense_energy(
    labeling: np.ndarray,
    probmap: np.ndarray,
    appearance: np.ndarray,
    params: CrfParams,
) -> float:
    """Total energy of a labeling: unary negative log-probabilities plus a
    pairwise sum over all ordered pixel pairs with differing labels.

    For a pair (i, j) the potential is
      w1 * exp(-|p_i - p_j|^2 / (2 theta_alpha^2)
               - |I_i - I_j|^2 / (2 theta_beta^2))
      + w2 * exp(-|p_i - p_j|^2 / (2 theta_gamma^2))
    with p the raw (row, col) pixel position and I the caller-supplied
    appearance vector. Same-label pairs contribute nothing.

    The sum is exact and O(N^2) in the N pixels. The potential is symmetric
    in i and j, so each unordered pair is evaluated once and counted twice:
    about N^2 / 2 kernel values, plus at most one image row per query pixel
    and each block's pairs with itself. A crop wider than tall is transposed
    first (the energy is symmetric in rows and columns), and each block of
    query pixels is compared with the pixels from the start of its first
    image row on. The positional factors split into row and column parts,
    exp(-|dr|^2 / 2 theta^2) * exp(-|dc|^2 / 2 theta^2), read from tables of
    length H and W, so the appearance factor is the only `exp` per pair.
    Blocks grow as the rows left shrink; each is one array within 256 KiB,
    and the working memory is a few of them, never an N x N, H x H or W x W
    table. One core of a 2-core Xeon takes about 0.13 s at 64 x 64 and 4 s at
    145 x 145.
    """
    labeling = np.asarray(labeling, dtype=np.int64)
    probmap = np.asarray(probmap, dtype=np.float64)
    appearance = np.asarray(appearance, dtype=np.float64)
    if labeling.ndim != 2:
        raise ShapeError(f"labeling must be 2-d, got shape {labeling.shape}")
    h, w = labeling.shape
    if probmap.ndim != 3 or probmap.shape[:2] != (h, w):
        raise ShapeError(f"probmap shape {probmap.shape} does not cover {h}x{w}")
    if appearance.ndim != 3 or appearance.shape[:2] != (h, w):
        raise ShapeError(f"appearance shape {appearance.shape} does not cover {h}x{w}")
    k = probmap.shape[2]
    if labeling.min() < 1 or labeling.max() > k:
        raise ValueError(f"labels outside 1..{k}")

    n = h * w
    labels = labeling.reshape(n) - 1
    chosen = probmap.reshape(n, k)[np.arange(n), labels]
    energy = float(-np.log(np.clip(chosen, PROB_FLOOR, None)).sum())

    if w > h:  # the energy is symmetric in rows and columns
        labeling = labeling.T
        appearance = appearance.transpose(1, 0, 2)
        h, w = w, h
        labels = labeling.reshape(n) - 1
    bands = np.ascontiguousarray(appearance.transpose(2, 0, 1)).reshape(-1, n)
    if not len(bands):  # no appearance: every distance is 0, as for one zero band
        bands = np.zeros((1, n))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    # Positional factors, w1 folded into the row tables of theta_alpha and
    # w2 into those of theta_gamma.
    a_rows = _offset_kernel(h, params.theta_alpha, params.w1)
    a_cols = _offset_kernel(w, params.theta_alpha, 1.0)
    g_rows = _offset_kernel(h, params.theta_gamma, params.w2)
    g_cols = _offset_kernel(w, params.theta_gamma, 1.0)
    two_b2 = 2.0 * params.theta_beta * params.theta_beta

    size = min(n * n, max(_BLOCK_BYTES // 8, n))
    kern_buf = np.empty(size)
    tmp_buf = np.empty(size)
    pairwise = 0.0
    start = 0
    while start < n:
        # Compare the block [start, stop) with the pixels from the start of
        # its first image row on, so the tables broadcast over whole rows.
        r0 = start // w
        off = r0 * w
        cols = n - off
        stop = min(n, start + max(1, _BLOCK_BYTES // (8 * cols)))
        m = stop - start
        q_rows, q_cols = np.divmod(np.arange(start, stop), w)
        kern = kern_buf[: m * cols].reshape(m, cols)
        tmp = tmp_buf[: m * cols].reshape(m, cols)
        np.subtract(bands[0, start:stop, None], bands[0, off:], out=kern)
        np.square(kern, out=kern)
        for band in bands[1:]:
            np.subtract(band[start:stop, None], band[off:], out=tmp)
            np.square(tmp, out=tmp)
            kern += tmp
        with np.errstate(over="ignore"):  # as in _offset_kernel
            np.divide(kern, -two_b2, out=kern)
        np.exp(kern, out=kern)
        grid = kern.reshape(m, h - r0, w)
        grid *= a_rows[h - 1 - q_rows, r0:, None]
        grid *= a_cols[w - 1 - q_cols, None, :]
        np.multiply(
            g_rows[h - 1 - q_rows, r0:, None],
            g_cols[w - 1 - q_cols, None, :],
            out=tmp.reshape(m, h - r0, w),
        )
        kern += tmp
        # Each unordered pair once: pairs with earlier pixels were summed by
        # earlier blocks, and the block's pairs with itself appear in both
        # orders, so they are halved before the block's sum is doubled.
        kern[:, : start - off] = 0.0
        kern[:, start - off : stop - off] *= 0.5
        same = (kern @ onehot[off:])[np.arange(m), labels[start:stop]]
        pairwise += 2.0 * float((kern.sum(axis=1) - same).sum())
        start = stop
    return energy + pairwise


def _offset_kernel(size: int, theta: float, weight: float) -> np.ndarray:
    """(size, size) view whose row size-1-r holds weight * exp(-(r' - r)^2 /
    (2 theta^2)) for r' = 0..size-1: the windows of one array of the
    2*size-1 offsets, so no size x size table is stored."""
    d = np.arange(1 - size, size, dtype=np.float64)
    d *= d
    # A quotient that overflows is -inf, and exp(-inf) = 0 is its limit.
    with np.errstate(over="ignore"):
        factor = weight * np.exp(d / (-2.0 * theta * theta))
    return np.lib.stride_tricks.sliding_window_view(factor, size)
