"""Adam optimization and the mini-batch training loop.

Batches are drawn by shuffling a permutation each epoch. Each batch runs
one stacked forward, which draws its dropout masks in the order the
per-sample draws would take, then the model's explicit backward pixel by
pixel on that forward's rows. The batch gradient is the mean of the
per-sample gradients accumulated in batch order, so a seed fixes the whole
trajectory bit for bit under the same numpy, BLAS build and BLAS thread
count (see coordfuse.numerics).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from coordfuse.model import DualBranchModel, backward, forward, param_views
from coordfuse.numerics import atomic_write, type_fields

logger = logging.getLogger(__name__)


class NumericalError(ArithmeticError):
    """A loss or update became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 64
    max_epochs: int = 500

    def __post_init__(self):
        type_fields(self)
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ValueError(f"betas must lie in [0, 1): {self.beta1}, {self.beta2}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be positive, got {self.max_epochs}")


@dataclass
class AdamState:
    """First and second moment accumulators, the shared step counter, and two
    scratch buffers as large as the largest parameter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    scratch: tuple[np.ndarray, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        size = max((p.size for p in params.values()), default=0)
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            scratch=(np.empty(size), np.empty(size)),
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> None:
    """One bias-corrected Adam update, applied to the arrays in place.

    Every intermediate goes to the state's two scratch buffers, in the
    operation order of m_hat = m / (1 - beta1^t), v_hat = v / (1 - beta2^t),
    p -= lr * m_hat / (sqrt(v_hat) + eps).
    """
    if set(grads) != set(params):
        raise KeyError(f"gradient keys {sorted(grads)} do not match parameters")
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for {name} at step {t}")
        m = state.m[name]
        v = state.v[name]
        a, b = (buf[: p.size].reshape(p.shape) for buf in state.scratch)
        m *= cfg.beta1
        np.multiply(1 - cfg.beta1, g, out=a)
        m += a
        v *= cfg.beta2
        np.multiply(1 - cfg.beta2, g, out=a)
        a *= g
        v += a
        np.divide(m, 1 - cfg.beta1**t, out=a)
        a *= cfg.learning_rate
        np.divide(v, 1 - cfg.beta2**t, out=b)
        np.sqrt(b, out=b)
        b += cfg.epsilon
        a /= b
        p -= a
        if not np.all(np.isfinite(p)):
            raise NumericalError(f"non-finite parameter {name} after step {t}")


@dataclass
class TrainHistory:
    """Per-epoch mean loss and training accuracy, aligned by index."""

    loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with atomic_write(path, "w") as f:
            f.write("epoch,loss,train_acc\n")
            for i, (l, a) in enumerate(zip(self.loss, self.train_acc), start=1):
                f.write(f"{i},{l:.6f},{a:.6f}\n")


def train(
    model: DualBranchModel,
    features: np.ndarray,
    coords: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> TrainHistory:
    """Run Adam for exactly cfg.max_epochs epochs; no early stopping.

    `rng` drives both the epoch shuffles and the dropout masks. Labels are
    1-based.
    """
    features = np.asarray(features, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if n == 0:
        raise ValueError("no training samples")
    if len(features) != n or len(coords) != n:
        raise ValueError("features, coords and labels row counts disagree")
    if labels.min() < 1 or labels.max() > model.config.num_classes:
        raise ValueError("labels must be 1-based class ids within the model's range")

    params = model.parameters()
    state = AdamState.for_params(params)
    history = TrainHistory()
    # One flat batch gradient laid out like model.theta, named through views.
    grad = np.empty_like(model.theta)
    grads = param_views(model.config, grad)

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grad.fill(0.0)
            probs, cache = forward(model, features[batch], coords[batch], rng)
            correct += int(np.count_nonzero(probs.argmax(axis=1) + 1 == labels[batch]))
            for j, i in enumerate(batch):
                loss, sample_grads = backward(model, cache.row(j), labels[i : i + 1])
                if not np.isfinite(loss):
                    raise NumericalError(
                        f"non-finite loss at epoch {epoch + 1}, sample {i}"
                    )
                epoch_loss += loss
                for name, g in sample_grads.items():
                    grads[name] += g
            grad /= len(batch)
            adam_step(params, grads, state, cfg)
        history.loss.append(epoch_loss / n)
        history.train_acc.append(correct / n)
        if (epoch + 1) % 50 == 0 or epoch == cfg.max_epochs - 1:
            logger.info(
                "epoch %d/%d loss %.4f acc %.4f",
                epoch + 1,
                cfg.max_epochs,
                history.loss[-1],
                history.train_acc[-1],
            )
    return history
