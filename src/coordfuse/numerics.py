"""Array, randomness and input-checking primitives shared by every other module.

Tensors inside the package are plain numpy float64 ndarrays. Each entry point
converts its input once (`DataCube`, `model.forward`, `train`, the evaluation
functions), and the layer kernels take the result as given. Randomness comes
from numpy's PCG64 generator seeded with a single unsigned 64-bit integer, so
an experiment replays bit-for-bit from its seed under the same numpy, the same
BLAS build and the same BLAS thread count. A BLAS matrix product's bits can
depend on the thread count, so another environment may change the last bits of
its results. Training runs one such product per mini-batch, so trained
parameters and checkpoints carry this dependence; values printed or written at
6 decimals rarely show it. `typed` checks a value against a field type,
`type_fields` every field of a config object, and every artifact is written
through `atomic_write`.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator
from dataclasses import fields
from typing import IO, get_args, get_origin, get_type_hints

import numpy as np

__all__ = ["atomic_write", "create_rng", "glorot_init", "require_finite", "type_fields",
           "typed"]

_SEED_LIMIT = 2**64


def create_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 generator for a 64-bit unsigned seed."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(int(seed)))


def glorot_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform weight sheet of shape (fan_in, fan_out).

    Values are drawn uniformly from +-sqrt(6 / (fan_in + fan_out)).
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan_in and fan_out must be >= 1, got ({fan_in}, {fan_out})")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def require_finite(arr: np.ndarray, name: str) -> np.ndarray:
    """Return `arr` unchanged, raising if it contains NaN or Inf."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf values")
    return arr


_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean"}


def typed(key: str, val, kind):
    """`val` if it has the field type `kind`, else TypeError naming `key`.
    Ints widen to float; nothing else is converted, and a bool is never a
    number."""
    if get_origin(kind) is list:
        if not isinstance(val, list) or not val:
            raise TypeError(f"{key} must be a non-empty list")
        (item,) = get_args(kind)
        return [typed(f"{key}[{i}]", v, item) for i, v in enumerate(val)]
    if kind in (int, float) and isinstance(val, bool):
        raise TypeError(f"{key} must be a number, got {val!r}")
    if kind is float and isinstance(val, int):
        try:
            return float(val)
        except OverflowError:
            raise TypeError(f"{key} is an integer beyond the float64 range") from None
    if not isinstance(val, kind):
        raise TypeError(f"{key} must be {_KINDS.get(kind, 'a ' + kind.__name__)}, got {val!r}")
    return val


def type_fields(obj) -> None:
    """Replace each field of frozen dataclass `obj` by `typed` of it against its annotation."""
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        object.__setattr__(obj, f.name, typed(f.name, getattr(obj, f.name), hints[f.name]))


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb") -> Iterator[IO]:
    """A new file beside `path`, open in `mode` ("wb", or "w" for text with
    no newline translation), that replaces `path` only when the block ends
    without an error: one rename, so a reader sees the old file or the whole
    new one. On an error the new file is removed and `path` is untouched."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    f = open(tmp, mode.replace("w", "x"), newline=None if "b" in mode else "")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
