"""Raster ingestion, normalization, sampling, and synthetic data.

File formats (both little-endian):

* cube file:   magic ``HCB1`` | u32 height | u32 width | u32 bands |
  height*width*bands float32 values, pixel-major (row, then column), the
  band values of one pixel stored contiguously.
* label file:  magic ``HLB1`` | u32 height | u32 width | height*width u16
  labels, row-major. Label 0 means unlabeled and is excluded from sampling
  and metrics.
* pixel CSV:   one pixel per line, ``row,col,label,b0,...,b{B-1}``. Pixels
  missing from the CSV come out unlabeled with all-zero features.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from coordfuse.numerics import atomic_write, create_rng, require_finite, type_fields

CUBE_MAGIC = b"HCB1"
LABEL_MAGIC = b"HLB1"

# Guard against bogus headers allocating huge buffers.
MAX_ELEMENTS = 2**32

# Payload reads and writes and synthetic noise draws go through a buffer of
# this size.
_BLOCK_BYTES = 1 << 20


class CubeFormatError(ValueError):
    """A raster file does not conform to its declared format."""


class BadMagicError(CubeFormatError):
    """The file does not start with the expected magic bytes."""


class TruncatedPayloadError(CubeFormatError):
    """The payload size disagrees with the header dimensions."""


class DimensionOverflowError(CubeFormatError):
    """Header dimensions are zero or implausibly large."""


class CsvFormatError(ValueError):
    """A pixel CSV row is malformed; the message carries the line number."""


@dataclass
class DataCube:
    """Dense height x width x bands grid of per-pixel feature vectors."""

    values: np.ndarray  # (H, W, B) float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ValueError(f"cube values must be 3-d, got shape {self.values.shape}")
        if min(self.values.shape) < 1:
            raise ValueError(f"cube dimensions must be >= 1, got {self.values.shape}")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def bands(self) -> int:
        return self.values.shape[2]


@dataclass
class LabelMap:
    """Height x width raster of class ids; 0 marks unlabeled pixels."""

    labels: np.ndarray  # (H, W) int64

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 2:
            raise ValueError(f"labels must be 2-d, got shape {self.labels.shape}")
        if self.labels.min(initial=0) < 0:
            raise ValueError("labels must be non-negative")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def num_classes(self) -> int:
        """Largest class id present (classes are 1..num_classes)."""
        return int(self.labels.max(initial=0))


@dataclass
class SampleSet:
    """Pixel samples as parallel arrays, as `extract_samples` gathers and checks them."""

    rows: np.ndarray  # (n,) int64
    cols: np.ndarray  # (n,) int64
    features: np.ndarray  # (n, B) float64
    coords: np.ndarray  # (n, 2) float64 in [0, 1]
    labels: np.ndarray  # (n,) int64, 1-based class ids

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class SplitSpec:
    """Per-class training fraction plus the seed that drives the shuffle.

    The training count for a class of n pixels is
    ``clamp(ceil(fraction * n), min_per_class, n - 1)``, with `fraction`
    taken as the exact decimal it prints as (0.05 is 1/20); the test set is
    the remaining labeled pixels of the class. A mistyped field raises
    TypeError when made; a fraction outside (0, 1) or a negative `min_per_class` ValueError.
    """

    fraction: float
    seed: int = 0
    min_per_class: int = 2

    def __post_init__(self):
        type_fields(self)
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(f"fraction must lie in (0, 1), got {self.fraction}")
        if self.min_per_class < 0:
            raise ValueError(f"min_per_class must be non-negative, got {self.min_per_class}")

    def train_count(self, class_total: int) -> int:
        # Exact rational ceil of the printed decimal; float rounding must not
        # flip counts like ceil(0.05 * 1000) to 51.
        frac = Fraction(repr(float(self.fraction)))
        raw = -(-frac.numerator * class_total // frac.denominator)
        return min(max(raw, self.min_per_class), class_total - 1)


def _read_raster(path, magic: bytes, n_dims: int, dtype: str, out_dtype) -> np.ndarray:
    """Payload of a cube or label file shaped by its header dimensions.

    Magic, dimensions and the file size are checked before the payload is
    read. The payload is read in blocks of at most `_BLOCK_BYTES`, each
    converted straight into the `out_dtype` result, so reading holds the
    result plus one block.
    """
    header_len = 4 + 4 * n_dims
    with open(path, "rb", buffering=0) as f:  # unbuffered: no read-ahead copy
        header = f.read(header_len)
        if header[:4] != magic:
            raise BadMagicError(f"{path}: expected magic {magic!r}, got {header[:4]!r}")
        if len(header) < header_len:
            raise TruncatedPayloadError(f"{path}: header is incomplete")
        dims = struct.unpack(f"<{n_dims}I", header[4:])
        shape, n = "x".join(map(str, dims)), math.prod(dims)
        if min(dims) < 1 or n > MAX_ELEMENTS:
            raise DimensionOverflowError(f"{path}: implausible dimensions {shape}")
        itemsize = np.dtype(dtype).itemsize
        expected = header_len + n * itemsize
        size = os.fstat(f.fileno()).st_size
        if size != expected:
            raise TruncatedPayloadError(
                f"{path}: expected {expected} bytes for {shape}, got {size}"
            )
        out = np.empty(n, dtype=out_dtype)
        block = np.empty(min(n, _BLOCK_BYTES // itemsize), dtype=dtype)
        for start in range(0, n, block.size):
            part = block[: n - start]
            rest = part.view(np.uint8)
            while rest.size:  # a raw read may return fewer bytes than asked
                got = f.readinto(rest)
                if not got:
                    raise TruncatedPayloadError(
                        f"{path}: payload ended after {f.tell() - header_len} "
                        f"of {n * itemsize} bytes"
                    )
                rest = rest[got:]
            out[start : start + part.size] = part
        return out.reshape(dims)


def load_cube(path) -> DataCube:
    """Read a cube file, checking magic, dimensions, and the file size
    before reading the payload."""
    return DataCube(_read_raster(path, CUBE_MAGIC, 3, "<f4", np.float64))


def _write_raster(path, magic: bytes, values: np.ndarray, dtype: str) -> None:
    """Write magic, one u32 per dimension of `values`, then its values
    row-major as `dtype`, converted and written in blocks of at most
    `_BLOCK_BYTES`: a contiguous `values` gets one block beside it."""
    flat = values.reshape(-1)
    per_block = _BLOCK_BYTES // np.dtype(dtype).itemsize
    with atomic_write(path) as f:
        f.write(magic)
        f.write(struct.pack(f"<{values.ndim}I", *values.shape))
        for start in range(0, flat.size, per_block):
            f.write(flat[start : start + per_block].astype(dtype))


def save_cube(cube: DataCube, path) -> None:
    _write_raster(path, CUBE_MAGIC, cube.values, "<f4")


def load_labels(path) -> LabelMap:
    """Read a label file, checking magic, dimensions, and the file size
    before reading the payload."""
    return LabelMap(_read_raster(path, LABEL_MAGIC, 2, "<u2", np.int64))


def save_labels(labels: LabelMap, path) -> None:
    if labels.labels.max(initial=0) > np.iinfo(np.uint16).max:
        raise ValueError("labels exceed the u16 range of the file format")
    _write_raster(path, LABEL_MAGIC, labels.labels, "<u2")


def from_csv(path) -> tuple[DataCube, LabelMap]:
    """Build a cube and label map from a pixel CSV.

    Grid dimensions are max(row)+1 by max(col)+1; band count comes from the
    first line and must be consistent. Duplicate pixels, band values that
    are not finite as float32, labels above the u16 maximum and grids of
    more than MAX_ELEMENTS values are errors, raised before any grid is made.
    """
    pixels = {}
    n_bands = None
    with open(path, newline="") as f:
        for lineno, fields in enumerate(csv.reader(f), start=1):
            if not fields:
                continue
            try:
                row, col, label = int(fields[0]), int(fields[1]), int(fields[2])
                values = [float(v) for v in fields[3:]]
            except (ValueError, IndexError) as exc:
                raise CsvFormatError(f"{path}:{lineno}: malformed row: {exc}") from exc
            if row < 0 or col < 0 or label < 0:
                raise CsvFormatError(f"{path}:{lineno}: negative row/col/label")
            if label > np.iinfo(np.uint16).max:
                raise CsvFormatError(f"{path}:{lineno}: label {label} exceeds the u16 range")
            if not values:
                raise CsvFormatError(f"{path}:{lineno}: no band values")
            with np.errstate(over="ignore"):
                stored = np.asarray(values, dtype=np.float32)
            if not np.isfinite(stored).all():
                raise CsvFormatError(f"{path}:{lineno}: non-finite band value in float32")
            if n_bands is None:
                n_bands = len(values)
            elif len(values) != n_bands:
                raise CsvFormatError(
                    f"{path}:{lineno}: expected {n_bands} band values, got {len(values)}"
                )
            if (row, col) in pixels:
                raise CsvFormatError(f"{path}:{lineno}: duplicate pixel ({row}, {col})")
            pixels[(row, col)] = (label, values)
    if not pixels:
        raise CsvFormatError(f"{path}: no pixel rows")
    height = max(r for r, _ in pixels) + 1
    width = max(c for _, c in pixels) + 1
    if height * width * n_bands > MAX_ELEMENTS:
        raise CsvFormatError(
            f"{path}: a {height}x{width}x{n_bands} grid exceeds {MAX_ELEMENTS} values"
        )
    cube = np.zeros((height, width, n_bands), dtype=np.float64)
    labels = np.zeros((height, width), dtype=np.int64)
    for (row, col), (label, values) in pixels.items():
        cube[row, col] = values
        labels[row, col] = label
    return DataCube(cube), LabelMap(labels)


def normalize_cube(cube: DataCube) -> DataCube:
    """Min-max scale each band to [0, 1]; constant bands map to all zeros.

    The scaled cube is the one full-size array made; the input is unchanged.
    """
    lo = cube.values.min(axis=(0, 1))
    hi = cube.values.max(axis=(0, 1))
    # NaN and +-Inf anywhere in a band carry through to its min or max.
    require_finite(lo, "cube")
    require_finite(hi, "cube")
    span = hi - lo
    span[span == 0.0] = 1.0  # a constant band is all lo, so it scales to 0 / 1
    scaled = np.subtract(cube.values, lo)
    scaled /= span
    return DataCube(scaled)


def coord_features(height: int, width: int) -> np.ndarray:
    """(height, width, 2) raster of every pixel's (row, col) scaled to [0, 1]
    by the image extent, aligned with the cube as a latitude/longitude
    raster would be. A single-row or single-column image maps that
    component to 0.
    """
    r = np.arange(height) / (height - 1) if height > 1 else np.zeros(height)
    c = np.arange(width) / (width - 1) if width > 1 else np.zeros(width)
    return np.stack(np.broadcast_arrays(r[:, None], c), axis=-1)


def stratified_split(labels: LabelMap, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-class random split of labeled pixels into train and test indices.

    Returns (train, test) as 1-d int64 arrays of flat row-major pixel
    indices, ``row * width + col``. Every class 1..num_classes contributes
    exactly ``spec.train_count`` pixels to train and the rest to test,
    shuffled by a generator seeded with ``spec.seed``. Class ids must be
    contiguous: an id below the largest one with no pixels is an error.
    """
    rng = create_rng(spec.seed)
    n_classes = labels.num_classes
    if n_classes < 1:
        raise ValueError("label map contains no labeled pixels")
    counts = np.bincount(labels.labels.ravel(), minlength=n_classes + 1)
    missing = np.flatnonzero(counts[1:] == 0) + 1
    if len(missing):
        ids = ", ".join(map(str, missing[:10])) + (", ..." if len(missing) > 10 else "")
        raise ValueError(f"class ids must be contiguous 1..{n_classes}; missing ids: {ids}")
    train_parts, test_parts = [], []
    for cls in range(1, n_classes + 1):
        pix = np.flatnonzero(labels.labels == cls)  # row-major scan order
        total = len(pix)
        if total < spec.min_per_class + 1:
            raise ValueError(
                f"class {cls} has only {total} labeled pixels; "
                f"need at least {spec.min_per_class + 1}"
            )
        count = spec.train_count(total)
        order = rng.permutation(total)
        train_parts.append(pix[order[:count]])
        test_parts.append(pix[order[count:]])
    return np.concatenate(train_parts), np.concatenate(test_parts)


def extract_samples(cube: DataCube, labels: LabelMap, pixels: np.ndarray) -> SampleSet:
    """Gather feature vectors, coordinate features, and labels at `pixels`,
    a 1-d array of flat row-major indices as `stratified_split` returns. A
    pixel outside the image, given twice or unlabeled raises ValueError."""
    if (cube.height, cube.width) != (labels.height, labels.width):
        raise ValueError(
            f"cube {cube.height}x{cube.width} and labels "
            f"{labels.height}x{labels.width} dimensions disagree"
        )
    pixels = np.asarray(pixels, dtype=np.int64)
    if pixels.ndim != 1:
        raise ValueError(f"pixel indices must be 1-d, got shape {pixels.shape}")
    if len(pixels) and (pixels.min() < 0 or pixels.max() >= cube.height * cube.width):
        raise ValueError("sample index outside the image")
    ordered = np.sort(pixels)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("duplicate pixel index in sample set")
    rows, cols = np.divmod(pixels, cube.width)
    lab = labels.labels.reshape(-1)[pixels]
    if len(lab) and lab.min() < 1:
        i = np.argmax(lab < 1)
        raise ValueError(f"pixel ({rows[i]}, {cols[i]}) is unlabeled")
    return SampleSet(
        rows=rows,
        cols=cols,
        features=cube.values[rows, cols],
        coords=coord_features(cube.height, cube.width).reshape(-1, 2)[pixels],
        labels=lab,
    )


def _nearest_seed(height: int, width: int, seed_rows, seed_cols) -> np.ndarray:
    """(height, width) index of each pixel's nearest seed in squared distance,
    ties to the lowest index. Seeds go one at a time against a running best,
    so the working set is a few (height, width) arrays for any seed count."""
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    best = np.full((height, width), np.iinfo(np.int64).max)
    nearest = np.zeros((height, width), dtype=np.int64)
    for k, (r, c) in enumerate(zip(seed_rows, seed_cols)):
        d2 = (rows - r) ** 2 + (cols - c) ** 2
        closer = d2 < best  # strict: an equal distance keeps the earlier seed
        nearest[closer] = k
        np.minimum(best, d2, out=best)
    return nearest


def generate_synthetic(
    rng: np.random.Generator,
    height: int,
    width: int,
    bands: int,
    n_classes: int,
    noise: float = 0.05,
    overlap: float = 0.0,
    coordinate_separable: bool = False,
) -> tuple[DataCube, LabelMap]:
    """Hermetic test raster: Voronoi class regions with Gaussian class spectra.

    Each class occupies the Voronoi cell of a random seed pixel, so regions
    are spatially contiguous. Class spectra are a random prototype in [0, 1]
    plus Gaussian noise, clipped to [0, 1]. `overlap` in [0, 1) pulls all
    prototypes toward their common mean (1 collapses them entirely).

    With ``coordinate_separable=True`` the two largest regions share one
    spectral prototype: those twin classes are indistinguishable from their
    spectra alone and can only be separated by position.
    """
    if height < 1 or width < 1 or bands < 1:
        raise ValueError(f"degenerate dimensions {height}x{width}x{bands}")
    if height * width * bands > MAX_ELEMENTS:  # load_cube would reject it
        raise ValueError(f"a {height}x{width}x{bands} cube exceeds {MAX_ELEMENTS} values")
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if height * width < n_classes:
        raise ValueError(f"{height}x{width} image cannot hold {n_classes} regions")
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise must be finite and >= 0, got {noise}")

    # Redraw seed pixels until every region is big enough to split later.
    min_region = min(3, (height * width) // n_classes)
    for _ in range(100):
        chosen = rng.choice(height * width, size=n_classes, replace=False)
        assignment = _nearest_seed(height, width, *np.divmod(chosen, width))
        sizes = np.bincount(assignment.ravel(), minlength=n_classes)
        if sizes.min() >= min_region:
            break
    else:
        raise ValueError(f"no draw of {n_classes} regions on a {height}x{width} image "
                         f"gave each at least {min_region} pixels in 100 tries")

    prototypes = rng.random((n_classes, bands))
    prototypes = prototypes.mean(axis=0) + (1.0 - overlap) * (
        prototypes - prototypes.mean(axis=0)
    )
    if coordinate_separable:
        largest = np.argsort(-sizes, kind="stable")[:2]
        a, b = sorted(int(i) for i in largest)
        prototypes[b] = prototypes[a]

    values = prototypes[assignment]
    # Noise is drawn block by block into one buffer, in the same order as a
    # single (height, width, bands) draw, and added in place.
    flat_values = values.reshape(-1)
    per_block = _BLOCK_BYTES // flat_values.itemsize
    draw = np.empty(min(per_block, flat_values.size))
    for start in range(0, flat_values.size, per_block):
        block = draw[: flat_values.size - start]
        rng.standard_normal(out=block)
        block *= noise
        flat_values[start : start + block.size] += block
    np.clip(values, 0.0, 1.0, out=values)
    return DataCube(values), LabelMap(assignment + 1)
