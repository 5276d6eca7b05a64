"""Accuracy metrics, map rendering, and the dense pairwise energy diagnostic.

The metrics follow the usual remote-sensing trio: overall accuracy, average
(per-class mean) accuracy, and Cohen's kappa. Kappa is computed from integer
marginals so values that are exact rationals (e.g. 0.4) come out exact.

`dense_energy` scores a labeling under a fully connected pairwise model with
a Gaussian appearance kernel plus a Gaussian smoothness kernel and Potts
compatibility. It is a diagnostic for comparing two classification maps, not
an inference routine: the O(N^2) brute force is intended for small crops.
"""

from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass

import numpy as np

from coordfuse.layers import PROB_FLOOR, ShapeError


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
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (truth - 1, preds - 1), 1)
    return cm


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
    with open(path, "w", newline="") as f:
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
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.tobytes())


@dataclass
class CrfParams:
    """Weights and bandwidths of the two pairwise Gaussian kernels."""

    w1: float = 1.0
    w2: float = 1.0
    theta_alpha: float = 8.0
    theta_beta: float = 0.5
    theta_gamma: float = 3.0

    def validate(self) -> None:
        for name in ("w1", "w2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("theta_alpha", "theta_beta", "theta_gamma"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {getattr(self, name)}"
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
    """
    params.validate()
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
    labels = labeling.reshape(n)
    probs = probmap.reshape(n, k)
    feats = appearance.reshape(n, -1)
    r, c = np.divmod(np.arange(n), w)
    pos = np.stack([r, c], axis=1).astype(np.float64)

    chosen = probs[np.arange(n), labels - 1]
    energy = float(-np.log(np.clip(chosen, PROB_FLOOR, None)).sum())

    two_a2 = 2.0 * params.theta_alpha**2
    two_b2 = 2.0 * params.theta_beta**2
    two_g2 = 2.0 * params.theta_gamma**2
    for i in range(n):
        d_pos = ((pos - pos[i]) ** 2).sum(axis=1)
        d_app = ((feats - feats[i]) ** 2).sum(axis=1)
        kernel = params.w1 * np.exp(-d_pos / two_a2 - d_app / two_b2)
        kernel += params.w2 * np.exp(-d_pos / two_g2)
        energy += float(kernel[labels != labels[i]].sum())
    return energy
