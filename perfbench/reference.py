"""An independent numpy forward pass of the dual-branch model.

It reads only the public parameter dict and config of a model and shares no
code with coordfuse.layers or coordfuse.model, so the benchmark can check
coordfuse's predictions against it.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def reference_probs(params: dict, pool_width: int, pool_stride: int,
                    spectra: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """(n, K) class probabilities for n pixels, dropout in inference mode."""
    conv_w = params["conv.weights"]  # (filters, kernel)
    windows = sliding_window_view(spectra, conv_w.shape[1], axis=1)  # (n, L, K)
    maps = _relu(windows @ conv_w.T + params["conv.bias"]).transpose(0, 2, 1)
    n_windows = (maps.shape[2] - pool_width) // pool_stride + 1
    span = pool_stride * (n_windows - 1) + 1
    pooled = np.max(
        [maps[:, :, k : k + span : pool_stride] for k in range(pool_width)], axis=0
    )
    hidden = _relu(pooled.reshape(len(spectra), -1) @ params["fc.weights"] + params["fc.bias"])
    if "coord1.weights" in params:
        c = _relu(coords @ params["coord1.weights"] + params["coord1.bias"])
        hidden = hidden + _relu(c @ params["coord2.weights"] + params["coord2.bias"])
    logits = hidden @ params["head.weights"] + params["head.bias"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def mismatches(probs: np.ndarray, preds: np.ndarray, margin: float = 1e-9) -> int:
    """Pixels whose 1-based prediction differs from the reference argmax.

    Pixels whose two largest reference probabilities lie within `margin` are
    exempt: there a last-digit rounding difference may flip the argmax.
    """
    top2 = np.sort(probs, axis=1)[:, -2:]
    decided = top2[:, 1] - top2[:, 0] >= margin
    return int(np.sum(decided & (probs.argmax(axis=1) + 1 != preds)))
