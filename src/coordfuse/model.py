"""The dual-branch classifier and its spectral-only baseline.

Branch 1 runs a per-pixel spectrum through conv -> maxpool -> dense(relu)
-> dropout. Branch 2 runs the two coordinate features through a 256-node
then a 100-node relu layer. The branch outputs are fused by elementwise
addition and classified by a softmax head. The baseline drops branch 2 and
the addition, leaving the plain spectral CNN.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from coordfuse.layers import (
    Conv1d,
    Dense,
    DropoutSpec,
    ShapeError,
    conv1d_backward,
    conv1d_forward,
    cross_entropy,
    dense_backward,
    dense_forward,
    dropout,
    maxpool1d_backward,
    maxpool1d_forward,
)
from coordfuse.numerics import glorot_init

CHECKPOINT_MAGIC = b"DBM1"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed or inconsistent with its config."""


@dataclass
class ModelConfig:
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

    def validate(self) -> None:
        widths = (
            self.num_bands,
            self.num_classes,
            self.conv_filters,
            self.kernel_len,
            self.pool_width,
            self.pool_stride,
            self.dense_width,
            self.coord_hidden,
        )
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


class DualBranchModel:
    """Holds the layers of both branches plus the fusion head."""

    def __init__(
        self,
        config: ModelConfig,
        conv: Conv1d,
        fc: Dense,
        coord1: Dense | None,
        coord2: Dense | None,
        head: Dense,
    ):
        self.config = config
        self.conv = conv
        self.fc = fc
        self.coord1 = coord1
        self.coord2 = coord2
        self.head = head

    def parameters(self) -> dict[str, np.ndarray]:
        """Live parameter arrays in the fixed checkpoint order."""
        params = {}
        for name in param_shapes(self.config):
            layer, attr = name.split(".")
            params[name] = getattr(getattr(self, layer), attr)
        return params

    def num_parameters(self) -> int:
        return sum(arr.size for arr in self.parameters().values())


@dataclass
class ForwardCache:
    """Every intermediate of one forward; backward needs a single-pixel,
    train-mode one."""

    mode: str
    spectral: np.ndarray
    coords: np.ndarray
    conv_out: np.ndarray
    pool_idx: np.ndarray
    flat: np.ndarray
    fc_out: np.ndarray
    drop_mask: np.ndarray
    o1: np.ndarray
    coord_hidden_out: np.ndarray | None
    o2: np.ndarray | None
    fused: np.ndarray
    probs: np.ndarray


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter, in checkpoint order.

    Dense weights are (fan_in, fan_out); conv weights are (filters, kernel).
    The baseline has no coord1/coord2 entries.
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


def _assemble(config: ModelConfig, arrays: dict[str, np.ndarray]) -> DualBranchModel:
    """The model holding `arrays`, keyed like param_shapes(config)."""

    def dense(name: str, activation: str) -> Dense | None:
        if f"{name}.weights" not in arrays:
            return None
        return Dense(arrays[f"{name}.weights"], arrays[f"{name}.bias"], activation)

    return DualBranchModel(
        config,
        Conv1d(arrays["conv.weights"], arrays["conv.bias"]),
        dense("fc", "relu"),
        dense("coord1", "relu"),
        dense("coord2", "relu"),
        dense("head", "softmax"),
    )


def build(config: ModelConfig, rng: np.random.Generator) -> DualBranchModel:
    """Glorot-initialize all layers; biases start at zero.

    Weights are drawn in param_shapes order (conv, fc, coord1, coord2, head)
    so a seed pins every parameter.
    """
    config.validate()
    arrays = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".bias"):
            arrays[name] = np.zeros(shape)
        elif name == "conv.weights":
            # Drawn as (kernel, filters) and stored transposed; seeds keep their bytes.
            arrays[name] = glorot_init(rng, *shape[::-1]).T.copy()
        else:
            arrays[name] = glorot_init(rng, *shape)
    return _assemble(config, arrays)


def forward(
    model: DualBranchModel,
    spectral: np.ndarray,
    coords: np.ndarray,
    mode: str = "inference",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Class distribution for one pixel, plus the cache backward needs.

    `spectral` and `coords` may also be (n, B) and (n, 2) stacks, giving
    (n, K) distributions. The baseline ignores `coords` entirely; its output
    is a function of the spectrum alone.
    """
    cfg = model.config
    if mode not in ("train", "inference"):
        raise ValueError(f"unknown mode {mode!r}")
    spectral = np.asarray(spectral, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if spectral.ndim not in (1, 2) or spectral.shape[-1] != cfg.num_bands:
        raise ShapeError(f"expected {cfg.num_bands} bands, got shape {spectral.shape}")
    lead = spectral.shape[:-1]
    if coords.shape != (*lead, 2):
        raise ShapeError(
            f"expected coordinate features of shape {(*lead, 2)}, got {coords.shape}"
        )

    conv_out = conv1d_forward(model.conv, spectral)
    pooled, pool_idx = maxpool1d_forward(conv_out, cfg.pool_width, cfg.pool_stride)
    flat = pooled.reshape(*lead, -1)  # filter-major, positions within a filter contiguous
    fc_out = dense_forward(model.fc, flat)
    o1, drop_mask = dropout(DropoutSpec(cfg.keep_prob, mode), rng, fc_out)

    coord_hidden_out = o2 = None
    if cfg.baseline:
        fused = o1
    else:
        coord_hidden_out = dense_forward(model.coord1, coords)
        o2 = dense_forward(model.coord2, coord_hidden_out)
        fused = o1 + o2

    probs = dense_forward(model.head, fused)
    cache = ForwardCache(
        mode=mode,
        spectral=spectral,
        coords=coords,
        conv_out=conv_out,
        pool_idx=pool_idx,
        flat=flat,
        fc_out=fc_out,
        drop_mask=drop_mask,
        o1=o1,
        coord_hidden_out=coord_hidden_out,
        o2=o2,
        fused=fused,
        probs=probs,
    )
    return probs, cache


def backward(model: DualBranchModel, cache: ForwardCache, label: int) -> dict[str, np.ndarray]:
    """Cross-entropy gradients for every parameter, keyed like parameters().

    The fused vector is a plain sum, so each branch receives the full
    upstream gradient. `label` is a 1-based class id.
    """
    cfg = model.config
    if cache.mode != "train":
        raise ValueError("backward requires a train-mode forward cache")
    if not 1 <= label <= cfg.num_classes:
        raise ValueError(f"label {label} out of range 1..{cfg.num_classes}")

    _, d_logits = cross_entropy(cache.probs, label - 1)
    head_g = dense_backward(model.head, cache.fused, cache.probs, d_logits)
    d_fused = head_g.inputs

    grads: dict[str, np.ndarray] = {}
    # Branch 1: undo dropout scaling, then dense, pool, conv.
    d_fc_out = d_fused * cache.drop_mask / cfg.keep_prob
    fc_g = dense_backward(model.fc, cache.flat, cache.fc_out, d_fc_out)
    d_pooled = fc_g.inputs.reshape(cfg.conv_filters, cfg.pooled_len)
    d_conv = maxpool1d_backward(cache.conv_out.shape, cache.pool_idx, d_pooled)
    conv_g = conv1d_backward(model.conv, cache.spectral, cache.conv_out, d_conv)
    grads["conv.weights"] = conv_g.weights
    grads["conv.bias"] = conv_g.bias
    grads["fc.weights"] = fc_g.weights
    grads["fc.bias"] = fc_g.bias

    if not cfg.baseline:
        c2_g = dense_backward(model.coord2, cache.coord_hidden_out, cache.o2, d_fused)
        c1_g = dense_backward(model.coord1, cache.coords, cache.coord_hidden_out, c2_g.inputs)
        grads["coord1.weights"] = c1_g.weights
        grads["coord1.bias"] = c1_g.bias
        grads["coord2.weights"] = c2_g.weights
        grads["coord2.bias"] = c2_g.bias

    grads["head.weights"] = head_g.weights
    grads["head.bias"] = head_g.bias
    return {name: grads[name] for name in model.parameters()}


def predict(model: DualBranchModel, spectral: np.ndarray, coords: np.ndarray) -> int:
    """1-based class id; ties break toward the lowest id."""
    probs, _ = forward(model, spectral, coords, mode="inference")
    return int(np.argmax(probs)) + 1


# The smallest working set a forward_many chunk is allowed.
_CHUNK_FLOOR_BYTES = 1 << 20


def _chunk_rows(cfg: ModelConfig, input_bytes: int) -> int:
    """Rows per batched forward in forward_many.

    A chunk's intermediates stay within max(1 MiB, input_bytes // 8): the
    caller already holds the input, so the extra memory is at most an eighth
    of it on large inputs. Per row, forward's conv maps (length L), pooled
    maps, pool argmax and their temporaries (length T) take at most about
    3 * filters * (L + T) float64 values, next to the coordinate hidden layer
    and six dense-width vectors.
    """
    row_bytes = 8 * (
        3 * cfg.conv_filters * (cfg.conv_len + cfg.pooled_len)
        + cfg.coord_hidden
        + 6 * cfg.dense_width
    )
    return max(1, max(_CHUNK_FLOOR_BYTES, input_bytes // 8) // row_bytes)


def forward_many(
    model: DualBranchModel, features: np.ndarray, coords: np.ndarray
) -> np.ndarray:
    """(n, K) inference-mode class distributions for stacked (n, B) and (n, 2)
    inputs, one batched forward per chunk of rows (see _chunk_rows)."""
    features = np.asarray(features, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if len(features) != len(coords):
        raise ShapeError("features and coords row counts disagree")
    out = np.empty((len(features), model.config.num_classes))
    rows = _chunk_rows(model.config, features.nbytes)
    for start in range(0, len(features), rows):
        chunk = slice(start, start + rows)
        out[chunk], _ = forward(model, features[chunk], coords[chunk])
    return out


def predict_many(
    model: DualBranchModel, features: np.ndarray, coords: np.ndarray
) -> np.ndarray:
    """Vector of 1-based predictions for stacked (n, B) and (n, 2) inputs;
    ties break toward the lowest id."""
    return np.argmax(forward_many(model, features, coords), axis=1) + 1


def save_checkpoint(model: DualBranchModel, path) -> None:
    """Versioned header, config echo as JSON, parameters as little-endian f64."""
    cfg_json = json.dumps(asdict(model.config), sort_keys=True, separators=(",", ":"))
    payload = cfg_json.encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(payload)))
        f.write(payload)
        for arr in model.parameters().values():
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> DualBranchModel:
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
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad config block: {exc}") from exc
    cfg.validate()

    offset = 12 + cfg_len
    arrays = {}
    for name, shape in param_shapes(cfg).items():
        n = int(np.prod(shape))
        end = offset + n * 8
        if end > len(data):
            raise CheckpointError(f"{path}: truncated parameter block")
        arrays[name] = np.frombuffer(data, dtype="<f8", count=n, offset=offset).reshape(shape).copy()
        if not np.all(np.isfinite(arrays[name])):
            raise CheckpointError(f"{path}: {name} holds NaN or Inf values")
        offset = end
    if offset != len(data):
        raise CheckpointError(f"{path}: {len(data) - offset} trailing bytes")
    return _assemble(cfg, arrays)
