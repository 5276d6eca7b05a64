"""The dual-branch classifier and its spectral-only baseline.

Branch 1 runs a per-pixel spectrum through conv -> maxpool -> dense(relu)
-> dropout. Branch 2 runs the two coordinate features through a 256-node
then a 100-node relu layer. The branch outputs are fused by elementwise
addition and classified by a linear head followed by a softmax. The
baseline drops branch 2 and the addition, leaving the plain spectral CNN.
An rng is the only switch between training and inference (see `forward`).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from coordfuse.dataset import MAX_ELEMENTS
from coordfuse.layers import (
    Conv1d,
    Dense,
    ShapeError,
    conv1d_backward,
    conv1d_forward,
    cross_entropy,
    dense_backward,
    dense_forward,
    dropout,
    softmax,
)
from coordfuse.numerics import atomic_write, glorot_init, type_fields

CHECKPOINT_MAGIC = b"DBM1"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed or inconsistent with its config."""


@dataclass(frozen=True)
class ModelConfig:
    """Layer sizes of one network, checked when made: a field of the wrong
    type raises TypeError, a network that cannot be built ValueError. An int
    `keep_prob` is stored as a float, so equal configs save equal checkpoints.
    It is frozen; `dataclasses.replace` makes a changed copy, checked the same way."""

    num_bands: int
    num_classes: int
    conv_filters: int = 20
    kernel_len: int = 10
    pool_width: int = 2
    pool_stride: int = 2
    dense_width: int = 100
    coord_hidden: int = 256
    keep_prob: float = 0.75
    baseline: bool = False

    @property
    def conv_len(self) -> int:
        return self.num_bands - self.kernel_len + 1

    @property
    def pooled_len(self) -> int:
        return (self.conv_len - self.pool_width) // self.pool_stride + 1

    @property
    def flat_dim(self) -> int:
        return self.conv_filters * self.pooled_len

    def __post_init__(self):
        type_fields(self)
        widths = [v for v in vars(self).values() if type(v) is int]
        if min(widths) < 1:
            raise ValueError(f"all widths must be positive: {self}")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if self.kernel_len > self.num_bands:
            raise ValueError(
                f"kernel length {self.kernel_len} exceeds {self.num_bands} bands"
            )
        if self.conv_len < self.pool_width:
            raise ValueError(
                f"{self.num_bands} bands leave a {self.conv_len}-wide feature map, "
                f"too short for pooling width {self.pool_width}"
            )
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if param_count(self) > MAX_ELEMENTS:  # the cap a cube file has on its values
            raise ValueError(f"{param_count(self)} parameters exceed the {MAX_ELEMENTS} cap")


class DualBranchModel:
    """Both branches plus the fusion head, over one parameter vector.

    `theta` is a flat float64 vector laid out in param_shapes order, the
    checkpoint order. Every layer's weights and bias, and every entry of
    parameters(), is a view into it: update them in place (`p[...] = x`,
    `p -= x`) and never rebind them, or the layer and `theta` part ways.
    """

    def __init__(self, config: ModelConfig, theta: np.ndarray):
        self.config = config
        self.theta = theta
        p = param_views(config, theta)
        self.conv = Conv1d(p["conv.weights"], p["conv.bias"])
        self.fc = Dense(p["fc.weights"], p["fc.bias"], relu=True)
        self.coord1 = self.coord2 = None
        if not config.baseline:
            self.coord1 = Dense(p["coord1.weights"], p["coord1.bias"], relu=True)
            self.coord2 = Dense(p["coord2.weights"], p["coord2.bias"], relu=True)
        self.head = Dense(p["head.weights"], p["head.bias"])

    def parameters(self) -> dict[str, np.ndarray]:
        """Views of `theta` by name, in the fixed checkpoint order."""
        return param_views(self.config, self.theta)


@dataclass
class ForwardCache:
    """Every intermediate of one forward over a stack of pixels, which
    backward takes whole; `row(j)` is the one-row cache of pixel j.
    `drop_mask` is None when the forward drew no dropout mask.
    The conv's full feature maps are not kept: its backward recomputes them
    from `spectral`."""

    spectral: np.ndarray
    coords: np.ndarray
    flat: np.ndarray
    fc_out: np.ndarray
    drop_mask: np.ndarray | None
    coord_hidden_out: np.ndarray | None
    o2: np.ndarray | None
    fused: np.ndarray
    probs: np.ndarray

    def row(self, j: int) -> "ForwardCache":
        """The one-row cache of row j, as views of this one's arrays; a None
        field stays None."""
        parts = vars(self).items()
        return ForwardCache(**{k: None if v is None else v[j : j + 1] for k, v in parts})


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter, in checkpoint order.

    Dense weights are (fan_in, fan_out); conv weights are (filters, kernel).
    The baseline has no coord1/coord2 entries. In a model's `theta` they lie
    back to back in this order; write their views in place, never rebind.
    """
    shapes = {
        "conv.weights": (cfg.conv_filters, cfg.kernel_len),
        "conv.bias": (cfg.conv_filters,),
        "fc.weights": (cfg.flat_dim, cfg.dense_width),
        "fc.bias": (cfg.dense_width,),
    }
    if not cfg.baseline:
        shapes.update(
            {
                "coord1.weights": (2, cfg.coord_hidden),
                "coord1.bias": (cfg.coord_hidden,),
                "coord2.weights": (cfg.coord_hidden, cfg.dense_width),
                "coord2.bias": (cfg.dense_width,),
            }
        )
    shapes["head.weights"] = (cfg.dense_width, cfg.num_classes)
    shapes["head.bias"] = (cfg.num_classes,)
    return shapes


def param_count(cfg: ModelConfig) -> int:
    return sum(math.prod(shape) for shape in param_shapes(cfg).values())


def param_views(cfg: ModelConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Each parameter as a view into the flat vector `flat`, keyed and laid
    out like param_shapes(cfg). Writes through a view land in `flat`."""
    if flat.shape != (param_count(cfg),):
        raise ShapeError(f"expected {param_count(cfg)} parameters, got shape {flat.shape}")
    views = {}
    offset = 0
    for name, shape in param_shapes(cfg).items():
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


def build(config: ModelConfig, rng: np.random.Generator) -> DualBranchModel:
    """Glorot-initialize all layers; biases start at zero.

    Weights are drawn in param_shapes order (conv, fc, coord1, coord2, head)
    so a seed pins every parameter.
    """
    model = DualBranchModel(config, np.zeros(param_count(config)))
    for name, p in model.parameters().items():
        if name == "conv.weights":
            # Drawn as (kernel, filters) and stored transposed; seeds keep their bytes.
            p[...] = glorot_init(rng, *p.shape[::-1]).T
        elif not name.endswith(".bias"):
            p[...] = glorot_init(rng, *p.shape)
    return model


def forward(
    model: DualBranchModel,
    spectral: np.ndarray,
    coords: np.ndarray,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """(n, K) class distributions for (n, B) spectra and (n, 2) coordinate
    features, plus the cache backward needs.

    With an rng the spectral branch's dropout draws its mask from it (the
    training forward); without one no dropout is applied (inference). The
    baseline ignores `coords` entirely; its output is a function of the
    spectrum alone.
    """
    cfg = model.config
    spectral = np.asarray(spectral, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if spectral.ndim != 2 or spectral.shape[1] != cfg.num_bands:
        raise ShapeError(f"expected (n, {cfg.num_bands}) spectra, got shape {spectral.shape}")
    n = len(spectral)
    if coords.shape != (n, 2):
        raise ShapeError(f"expected coordinate features of shape {(n, 2)}, got {coords.shape}")

    pooled = conv1d_forward(model.conv, spectral, cfg.pool_width, cfg.pool_stride)
    flat = pooled.reshape(n, cfg.flat_dim)  # filter-major, positions within a filter contiguous
    fc_out = dense_forward(model.fc, flat)
    o1, drop_mask = dropout(cfg.keep_prob, rng, fc_out)

    coord_hidden_out = o2 = None
    if cfg.baseline:
        fused = o1
    else:
        coord_hidden_out = dense_forward(model.coord1, coords)
        o2 = dense_forward(model.coord2, coord_hidden_out)
        fused = o1 + o2

    probs = softmax(dense_forward(model.head, fused))
    cache = ForwardCache(
        spectral=spectral,
        coords=coords,
        flat=flat,
        fc_out=fc_out,
        drop_mask=drop_mask,
        coord_hidden_out=coord_hidden_out,
        o2=o2,
        fused=fused,
        probs=probs,
    )
    return probs, cache


def backward(
    model: DualBranchModel, cache: ForwardCache, labels: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Cross-entropy loss of the cached forward's rows and its gradient for
    every parameter, keyed like parameters(), both summed over the rows.

    The fused vector is a plain sum, so each branch receives the full
    upstream gradient. `labels` holds each row's 1-based class id.
    """
    cfg = model.config
    loss, d_logits = cross_entropy(cache.probs, np.asarray(labels) - 1)
    # The head is linear: dense_backward reads only the shape of its output.
    head_w, head_b, d_fused = dense_backward(model.head, cache.fused, cache.probs, d_logits)

    # Branch 1: undo any dropout scaling, then the dense layer and the pooled conv.
    d_fc_out = d_fused
    if cache.drop_mask is not None:
        d_fc_out = d_fused * cache.drop_mask / cfg.keep_prob
    fc_w, fc_b, d_flat = dense_backward(model.fc, cache.flat, cache.fc_out, d_fc_out)
    pooled = cache.flat.reshape(len(cache.flat), cfg.conv_filters, cfg.pooled_len)
    conv_w, conv_b = conv1d_backward(
        model.conv, cache.spectral, pooled, d_flat.reshape(pooled.shape),
        cfg.pool_width, cfg.pool_stride,
    )
    grads = {"conv.weights": conv_w, "conv.bias": conv_b, "fc.weights": fc_w, "fc.bias": fc_b}

    if not cfg.baseline:
        hidden = cache.coord_hidden_out
        c2_w, c2_b, d_hidden = dense_backward(model.coord2, hidden, cache.o2, d_fused)
        c1_w, c1_b, _ = dense_backward(model.coord1, cache.coords, hidden, d_hidden)
        grads.update({"coord1.weights": c1_w, "coord1.bias": c1_b,
                      "coord2.weights": c2_w, "coord2.bias": c2_b})
    grads.update({"head.weights": head_w, "head.bias": head_b})
    return loss, grads


# The smallest working set a forward_many chunk is allowed.
_CHUNK_FLOOR_BYTES = 1 << 20


def _chunk_rows(cfg: ModelConfig, input_bytes: int) -> int:
    """Rows per batched forward in forward_many.

    A chunk's intermediates stay within max(1 MiB, input_bytes // 8): the
    caller already holds the input, so the extra memory is at most an eighth
    of it on large inputs. Per row, forward keeps filters * (L + T) float64
    values for the conv maps (length L) and the pooled maxima (length T),
    next to the coordinate hidden layer and six dense-width vectors; counting
    16 bytes, two float64 values, for each covers the temporaries beside them.
    """
    row_bytes = 16 * (
        cfg.conv_filters * (cfg.conv_len + cfg.pooled_len)
        + cfg.coord_hidden
        + 6 * cfg.dense_width
    )
    return max(1, max(_CHUNK_FLOOR_BYTES, input_bytes // 8) // row_bytes)


def _forward_chunks(model: DualBranchModel, features, coords):
    """(row slice, class distributions) for each chunk of rows of stacked
    (n, B) and (n, 2) arrays or nested lists: one batched forward without
    dropout per chunk (see _chunk_rows), which converts only that chunk."""
    features, coords = np.asarray(features), np.asarray(coords)
    if len(features) != len(coords):
        raise ShapeError("features and coords row counts disagree")
    rows = _chunk_rows(model.config, features.nbytes)
    for start in range(0, len(features), rows):
        chunk = slice(start, start + rows)
        probs, _ = forward(model, features[chunk], coords[chunk])
        yield chunk, probs


def forward_many(
    model: DualBranchModel, features: np.ndarray, coords: np.ndarray
) -> np.ndarray:
    """(n, K) class distributions, without dropout, for stacked (n, B) and
    (n, 2) arrays."""
    out = np.empty((len(features), model.config.num_classes))
    for chunk, probs in _forward_chunks(model, features, coords):
        out[chunk] = probs
    return out


def predict_many(
    model: DualBranchModel, features: np.ndarray, coords: np.ndarray
) -> np.ndarray:
    """Vector of 1-based predictions for stacked (n, B) and (n, 2) arrays;
    ties break toward the lowest id. Each chunk's distributions are reduced
    to its labels, so no (n, K) array is made."""
    out = np.empty(len(features), dtype=np.int64)
    for chunk, probs in _forward_chunks(model, features, coords):
        out[chunk] = np.argmax(probs, axis=1) + 1
    return out


def save_checkpoint(model: DualBranchModel, path) -> None:
    """Versioned header, config echo as JSON, `theta` as little-endian f64."""
    cfg_json = json.dumps(asdict(model.config), sort_keys=True, separators=(",", ":"))
    payload = cfg_json.encode("utf-8")
    with atomic_write(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(payload)))
        f.write(payload)
        f.write(np.ascontiguousarray(model.theta, dtype="<f8"))  # theta itself, no copy


def load_checkpoint(path) -> DualBranchModel:
    """The model saved at `path`; its parameters are views of one new `theta`.
    A mistyped or invalid config, a parameter block of the wrong size or a
    NaN/Inf value raises CheckpointError."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 12:
        raise CheckpointError(f"{path}: header is incomplete")
    version, cfg_len = struct.unpack("<II", data[4:12])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    try:
        cfg = ModelConfig(**json.loads(data[12 : 12 + cfg_len]))
    except (TypeError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: bad config block: {exc}") from exc

    offset = 12 + cfg_len
    count = param_count(cfg)
    extra = len(data) - offset - 8 * count
    if extra < 0:
        raise CheckpointError(f"{path}: truncated parameter block")
    if extra > 0:
        raise CheckpointError(f"{path}: {extra} trailing bytes")
    theta = np.frombuffer(data, dtype="<f8", count=count, offset=offset).astype(np.float64)
    if not np.isfinite(theta).all():
        views = param_views(cfg, theta)
        name = next(n for n, p in views.items() if not np.isfinite(p).all())
        raise CheckpointError(f"{path}: {name} holds NaN or Inf values")
    return DualBranchModel(cfg, theta)
