import contextlib
import hashlib
import io
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from coordfuse import dataset as dataset_module
from coordfuse.cli import main
from coordfuse.dataset import (
    CsvFormatError,
    CubeFormatError,
    DataCube,
    LabelMap,
    SplitSpec,
    coord_features,
    extract_samples,
    from_csv,
    generate_synthetic,
    load_cube,
    load_labels,
    normalize_cube,
    save_cube,
    save_labels,
    stratified_split,
)
from coordfuse.numerics import create_rng

# Class populations of a published 145x145 ground truth with 16 classes,
# alongside the 5% training counts its reference split reports.
REFERENCE_POPULATIONS = [46, 1428, 830, 237, 483, 730, 28, 478, 20, 972, 2455, 593, 205, 1265, 386, 93]
REFERENCE_TRAIN_COUNTS = [3, 72, 42, 12, 25, 37, 2, 24, 2, 49, 123, 30, 11, 64, 20, 5]

MIB = 1 << 20

# (height, width, bands, classes) scenes for the ingestion pins. "odd" spans
# several 1 MiB read blocks and noise-draw blocks with a partial last block;
# "pines" is the Indian Pines shape.
INGESTION_SHAPES = {"odd": (61, 53, 219, 7), "pines": (145, 145, 220, 16)}

# sha256, from the whole-array implementation, of each ingestion step on
# generate_synthetic(create_rng(5), *shape, coordinate_separable=True):
# its values and labels, the save_cube file, load_cube + load_labels,
# normalize_cube, and extract_samples on both halves of a 5% split (seed 5).
INGESTION_SHA256 = {
    "odd": {
        "generate_synthetic": "44a6381d652642a54aad15d4a3677a7071fdbf9d26757c454c6effc2bead001e",
        "save_cube": "14eb76e712eef329824b1cc9ef0097b4d69e8a80209ffa4472c54c7918c0796b",
        "load": "3e5794ef8d17f404e19ecbbd14d1abf0e7a8f5bfb139584955e73f7bedf34662",
        "normalize_cube": "ad5a36a110ac3d4cf109ffd8b60ad12f07a10c74fcffed8e3f8f73533d2e1cf0",
        "extract_samples": "c2a5dbac7b4bf7cda35a2519ef7ad9c4f30cef42037454dd438db2c94919523b",
    },
    "pines": {
        "generate_synthetic": "18a226cb252a6efac8f48982416f54983e4ec221b558263cc12606c074046cb8",
        "save_cube": "a626acb99e5641689d9efc0525c542c0c406c537bd12b4987b725dea17c6c52d",
        "load": "e93ea6d73a68a79e2cc440b2a61823733f78f922cf3ff626145f32f23bee0d25",
        "normalize_cube": "e05b0793a7a221ee858d08bb84bd9fb99b7f16ba1eba194d062e04cf6b4a7e6d",
        "extract_samples": "33765f64a44d9b1e2658fb8448cb16e1f7bb92a5a00d5b9048f1b60313c7db2c",
    },
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str} {a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _traced_peak(fn, *args):
    """`fn(*args)` and the peak of the memory it traced while running."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_datacube_validation():
    DataCube(np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        DataCube(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        DataCube(np.zeros((0, 2, 3)))


def test_labelmap_validation():
    lm = LabelMap(np.array([[0, 3], [1, 2]]))
    assert lm.num_classes == 3
    with pytest.raises(ValueError):
        LabelMap(np.array([1, 2]))
    with pytest.raises(ValueError):
        LabelMap(np.array([[-1, 0]]))


def test_sampleset_validation():
    # extract_samples is the one producer of a SampleSet and checks its
    # pixels; test_extract_samples covers the unlabeled and outside ones.
    cube = DataCube(np.zeros((7, 7, 4)))
    labels = LabelMap(np.ones((7, 7), dtype=np.int64))
    with pytest.raises(ValueError, match="duplicate"):
        extract_samples(cube, labels, np.array([0, 0]))
    with pytest.raises(ValueError, match="duplicate"):  # (2, 5) twice, not adjacent
        extract_samples(cube, labels, np.array([2 * 7 + 5, 5 * 7 + 2, 2 * 7 + 5]))
    samples = extract_samples(cube, labels, np.array([2 * 7 + 5, 5 * 7 + 2, 2 * 7 + 4]))
    assert np.array_equal(samples.rows, [2, 5, 2]) and np.array_equal(samples.cols, [5, 2, 4])
    assert samples.features.shape == (3, 4) and samples.coords.shape == (3, 2)


def test_train_count_reference_table():
    spec = SplitSpec(fraction=0.05)
    got = [spec.train_count(n) for n in REFERENCE_POPULATIONS]
    assert got == REFERENCE_TRAIN_COUNTS
    assert sum(got) == 521


def test_train_count_is_exact_ceiling():
    spec = SplitSpec(fraction=0.05)
    # 0.05 * 1000 is exactly 50; float arithmetic must not bump it to 51.
    assert spec.train_count(1000) == 50
    assert spec.train_count(1001) == 51
    assert SplitSpec(fraction=0.01).train_count(10109) == 102
    assert SplitSpec(fraction=0.1).train_count(30) == 3


@pytest.mark.parametrize(
    "fraction, num, den",
    [(0.05, 5, 100), (0.07, 7, 100), (0.33333, 33333, 10**5),
     (0.0500001, 500001, 10**7), (0.1234567, 1234567, 10**7)],
)
def test_train_count_is_ceiling_of_exact_decimal(fraction, num, den):
    spec = SplitSpec(fraction=fraction, min_per_class=0)
    for n in [*range(2, 2001), *range(2001, 200001, 13)]:
        assert spec.train_count(n) == min(-(-num * n // den), n - 1), n


def test_train_count_tiny_fraction_rounds_up():
    # ceil(1e-7 * n) is 1 up to n = 10**7; a rational approximation with a
    # bounded denominator would round 1e-7 itself to 0.
    spec = SplitSpec(fraction=1e-7, min_per_class=0)
    assert [spec.train_count(n) for n in (2, 1000, 10**7, 10**7 + 1)] == [1, 1, 1, 2]


def test_train_count_clamps():
    spec = SplitSpec(fraction=0.05, min_per_class=2)
    assert spec.train_count(20) == 2  # ceil(1.0) = 1, lifted to the floor
    assert spec.train_count(28) == 2
    assert SplitSpec(fraction=0.9).train_count(3) == 2  # ceil(2.7) = 3, capped at n-1


def test_train_count_fraction_validation():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            SplitSpec(fraction=bad).train_count(100)


def test_cube_round_trip(tmp_path):
    rng = create_rng(0)
    # float32-representable values survive the file format exactly
    vals = rng.random((3, 4, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "c.hcube"
    save_cube(DataCube(vals), path)
    loaded = load_cube(path)
    assert loaded.values.shape == (3, 4, 5)
    assert np.array_equal(loaded.values, vals)
    # and a second save is byte-identical
    path2 = tmp_path / "c2.hcube"
    save_cube(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_cube_header_layout(tmp_path):
    path = tmp_path / "c.hcube"
    save_cube(DataCube(np.zeros((2, 3, 4))), path)
    blob = path.read_bytes()
    assert blob[:4] == b"HCB1"
    assert struct.unpack("<III", blob[4:16]) == (2, 3, 4)
    assert len(blob) == 16 + 2 * 3 * 4 * 4


# Per raster format: its loader, magic, payload type and the dimensions of a
# valid file of zeros, whose bytes the fault table below breaks one way at a time.
RASTERS = {
    "cube": (load_cube, b"HCB1", "<f4", (2, 3, 4)),
    "labels": (load_labels, b"HLB1", "<u2", (2, 3)),
}


def _header(fmt, dims) -> bytes:
    return RASTERS[fmt][1] + struct.pack(f"<{len(dims)}I", *dims)


def _valid_raster(fmt) -> bytes:
    _, _, dtype, dims = RASTERS[fmt]
    return _header(fmt, dims) + bytes(math.prod(dims) * np.dtype(dtype).itemsize)


def _raster_faults():
    """pytest params (format, file bytes, message) of malformed raster files."""
    for fmt, (_, magic, _, dims) in RASTERS.items():
        head, valid = _header(fmt, dims), _valid_raster(fmt)
        for n in range(len(head)):  # every length inside the header
            message = (f"expected magic {magic!r}, got {head[:n]!r}" if n < 4
                       else "header is incomplete")
            yield pytest.param(fmt, head[:n], message, id=f"{fmt}-{n}-bytes")
        other = next(m for _, m, _, _ in RASTERS.values() if m != magic)
        yield pytest.param(fmt, other + valid[4:], f"expected magic {magic!r}, got {other!r}",
                           id=f"{fmt}-other-magic")
        over = (2**16 + 1, 2**16, 1)[: len(dims)]  # 2**32 + 2**16 values
        for bad in [*(dims[:i] + (0,) + dims[i + 1 :] for i in range(len(dims))), over]:
            shape = "x".join(map(str, bad))
            yield pytest.param(fmt, _header(fmt, bad), f"implausible dimensions {shape}",
                               id=f"{fmt}-{shape}")
        shape = "x".join(map(str, dims))
        for blob in (valid[:-1], valid + b"\0"):
            yield pytest.param(fmt, blob, f"expected {len(valid)} bytes for {shape}, got {len(blob)}",
                               id=f"{fmt}-{len(blob) - len(valid):+d}-byte")


@pytest.mark.parametrize("fmt, blob, message", list(_raster_faults()))
def test_a_malformed_raster_file_is_a_cube_format_error(tmp_path, capsys, fmt, blob, message):
    paths = {name: tmp_path / name for name in RASTERS}
    for name, path in paths.items():
        path.write_bytes(blob if name == fmt else _valid_raster(name))
    with pytest.raises(CubeFormatError, match=f"^{re.escape(f'{paths[fmt]}: {message}')}$") as exc:
        RASTERS[fmt][0](paths[fmt])
    # `run` with a config naming the file: exit 2, the same message and nothing written.
    config, out = tmp_path / "c.json", tmp_path / "out"
    config.write_text(json.dumps({"cube": str(paths["cube"]), "labels": str(paths["labels"]),
                                  "out_dir": str(out)}))
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"data error: {exc.value}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "load,header,dims,expected",
    [
        (load_cube, b"HCB1" + struct.pack("<III", 4, 4, 4), "4x4x4", 16 + 64 * 4),
        (load_labels, b"HLB1" + struct.pack("<II", 4, 4), "4x4", 12 + 16 * 2),
    ],
)
def test_load_checks_file_size_before_reading_payload(tmp_path, load, header, dims, expected):
    path = tmp_path / "short"
    path.write_bytes(header + b"\x00" * 8)
    message = f"expected {expected} bytes for {dims}, got {len(header) + 8}$"
    with pytest.raises(CubeFormatError, match=message):
        load(path)
    # A sparse 64 MiB file is rejected from its size alone, without reading it.
    path = tmp_path / "long"
    with open(path, "wb") as f:
        f.write(header)
        f.truncate(64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(CubeFormatError, match=f"got {64 << 20}$"):
            load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_save_cube_failing_part_way_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "c.hcube"
    save_cube(DataCube(np.zeros((2, 2, 3))), path)
    old = path.read_bytes()
    real_atomic_write = dataset_module.atomic_write
    written_before_failure = []

    class SecondBlockFails:
        """The new file, whose second payload block fails to write."""

        def __init__(self, f):
            self.f, self.blocks = f, 0

        def write(self, data):
            if isinstance(data, np.ndarray):  # the header is written as bytes
                self.blocks += 1
                if self.blocks == 2:
                    written_before_failure.append(self.f.tell())
                    raise OSError("no space left on device")
            return self.f.write(data)

    @contextlib.contextmanager
    def failing_write(target):
        with real_atomic_write(target) as f:
            yield SecondBlockFails(f)

    monkeypatch.setattr(dataset_module, "atomic_write", failing_write)
    per_block = dataset_module._BLOCK_BYTES // 4
    with pytest.raises(OSError, match="no space left"):
        save_cube(DataCube(np.ones((1, 1, per_block + 5))), path)
    # The header and one whole payload block were in the new file.
    assert written_before_failure == [16 + 4 * per_block]
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["c.hcube"]


def test_labels_round_trip(tmp_path):
    lm = LabelMap(np.array([[0, 1], [65535, 2]]))
    path = tmp_path / "l.hlbl"
    save_labels(lm, path)
    loaded = load_labels(path)
    assert np.array_equal(loaded.labels, lm.labels)
    blob = path.read_bytes()
    assert blob[:4] == b"HLB1"
    assert struct.unpack("<II", blob[4:12]) == (2, 2)


def test_save_labels_rejects_u16_overflow(tmp_path):
    lm = LabelMap(np.array([[65536]]))
    with pytest.raises(ValueError):
        save_labels(lm, tmp_path / "l.hlbl")


def test_from_csv_single_pixel(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0,0,3,0.5,0.25\n")
    cube, labels = from_csv(path)
    assert cube.values.shape == (1, 1, 2)
    assert np.array_equal(cube.values[0, 0], [0.5, 0.25])
    assert labels.labels[0, 0] == 3


def test_from_csv_grid_with_gaps(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0,0,1,0.1\n2,3,2,0.9\n")
    cube, labels = from_csv(path)
    assert cube.values.shape == (3, 4, 1)
    assert labels.labels[2, 3] == 2
    assert labels.labels[1, 1] == 0  # unmentioned pixel stays unlabeled
    assert cube.values[1, 1, 0] == 0.0


def test_from_csv_round_trips_through_binary(tmp_path):
    csv_path = tmp_path / "p.csv"
    csv_path.write_text("0,0,1,0.5\n0,1,0,0.25\n1,0,2,0.75\n1,1,1,1.0\n")
    cube, labels = from_csv(csv_path)
    c1, l1 = tmp_path / "a.hcube", tmp_path / "a.hlbl"
    c2, l2 = tmp_path / "b.hcube", tmp_path / "b.hlbl"
    save_cube(cube, c1)
    save_labels(labels, l1)
    save_cube(load_cube(c1), c2)
    save_labels(load_labels(l1), l2)
    assert c1.read_bytes() == c2.read_bytes()
    assert l1.read_bytes() == l2.read_bytes()


@pytest.mark.parametrize(
    "row,message",
    [
        ("0,0\n", "malformed"),
        ("0,0,1\n", "no band values"),
        ("a,0,1,0.5\n", "malformed"),
        ("0,0,1,zzz\n", "malformed"),
        ("-1,0,1,0.5\n", "negative"),
        ("0,0,-2,0.5\n", "negative"),
        ("0,0,1,inf\n", "non-finite"),
        ("0,0,1,1e39\n", "non-finite"),  # finite in float64, Inf in float32
        ("0,0,1,0.5\n0,0,2,0.6\n", "duplicate"),
        ("0,0,1,0.5\n0,1,1,0.5,0.6\n", "expected 1 band"),
    ],
)
def test_from_csv_rejects_malformed(tmp_path, row, message):
    path = tmp_path / "p.csv"
    path.write_text(row)
    with pytest.raises(CsvFormatError, match=message):
        from_csv(path)


def test_from_csv_accepts_values_up_to_float32_max(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0,0,1,3.4e38,-3.4e38\n")
    cube, _ = from_csv(path)
    out = tmp_path / "c.hcube"
    save_cube(cube, out)
    assert np.array_equal(load_cube(out).values[0, 0], np.float32([3.4e38, -3.4e38]))


def test_from_csv_keeps_each_pixel_as_float32(tmp_path):
    h, w, b = 40, 30, 50
    values = create_rng(2).random((h, w, b)).astype(np.float32)
    path = tmp_path / "p.csv"
    with open(path, "w") as f:
        for (r, c), label in np.ndenumerate(1 + np.indices((h, w)).sum(axis=0) % 3):
            f.write(f"{r},{c},{label},{','.join(map(str, values[r, c]))}\n")
    (cube, labels), peak = _traced_peak(from_csv, path)
    # Beside the cube and labels it returns, from_csv held 9.1 times the
    # float32 payload while it kept each pixel as a list of Python floats.
    assert peak - cube.values.nbytes - labels.labels.nbytes <= 3 * values.nbytes
    assert np.array_equal(cube.values, values)


def test_from_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0,0,1,0.5\n0,0,2,0.6\n")
    with pytest.raises(CsvFormatError, match=":2:"):
        from_csv(path)


def test_from_csv_empty(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("")
    with pytest.raises(CsvFormatError):
        from_csv(path)


def test_normalize_cube():
    vals = np.zeros((1, 3, 2))
    vals[0, :, 0] = [2.0, 4.0, 6.0]
    vals[0, :, 1] = [7.0, 7.0, 7.0]  # constant band
    out = normalize_cube(DataCube(vals))
    assert np.allclose(out.values[0, :, 0], [0.0, 0.5, 1.0])
    assert np.array_equal(out.values[0, :, 1], [0.0, 0.0, 0.0])
    assert out.values.min() >= 0.0 and out.values.max() <= 1.0


def test_normalize_cube_rejects_nonfinite():
    vals = np.zeros((1, 1, 2))
    vals[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        normalize_cube(DataCube(vals))
    # Any NaN or Inf, in any band, among finite values.
    for bad in (np.nan, np.inf, -np.inf):
        vals = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        vals[1, 2, 3] = bad
        with pytest.raises(ValueError, match="^cube contains NaN or Inf values$"):
            normalize_cube(DataCube(vals))


def test_coord_features():
    grid = coord_features(10, 20)
    assert grid.shape == (10, 20, 2) and grid.dtype == np.float64
    assert np.array_equal(grid[0, 0], [0.0, 0.0])
    assert np.array_equal(grid[0, 19], [0.0, 1.0])
    assert np.array_equal(grid[9, 0], [1.0, 0.0])
    assert np.array_equal(grid[9, 19], [1.0, 1.0])
    assert np.allclose(coord_features(7, 11)[3, 5], [0.5, 0.5])
    # A single-row or single-column image maps that component to 0.
    assert np.array_equal(coord_features(1, 1), [[[0.0, 0.0]]])
    row_image, col_image = coord_features(1, 5), coord_features(4, 1)
    assert row_image.shape == (1, 5, 2) and col_image.shape == (4, 1, 2)
    assert np.array_equal(row_image[0], np.stack([np.zeros(5), np.arange(5) / 4], -1))
    assert np.array_equal(col_image[:, 0], np.stack([np.arange(4) / 3, np.zeros(4)], -1))
    for h, w in ((10, 20), (7, 11), (3, 145)):
        rows, cols = np.indices((h, w))
        want = np.stack([rows / (h - 1), cols / (w - 1)], -1)
        assert np.array_equal(coord_features(h, w), want)


def _label_grid():
    # 6x6 map: class 1 fills the top half, class 2 the bottom, 4 pixels class 3.
    labels = np.ones((6, 6), dtype=np.int64)
    labels[3:, :] = 2
    labels[0, :4] = 3
    return LabelMap(labels)


def test_stratified_split_counts_and_partition():
    labels = _label_grid()
    spec = SplitSpec(fraction=0.25, seed=3)
    train, test = stratified_split(labels, spec)
    for half in (train, test):
        assert half.dtype == np.int64 and half.ndim == 1
    counts = np.bincount(labels.labels.reshape(-1)[train], minlength=4)[1:]
    # class sizes 14, 18, 4 -> ceil(0.25 * n) = 4, 5, 2 (clamped to >= 2)
    assert counts.tolist() == [4, 5, 2]
    # flat row-major indices row * 6 + col; together each of the 36 once
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(36))


def test_stratified_split_determinism():
    labels = _label_grid()
    a_train, a_test = stratified_split(labels, SplitSpec(0.25, seed=5))
    b_train, b_test = stratified_split(labels, SplitSpec(0.25, seed=5))
    assert np.array_equal(a_train, b_train)
    assert np.array_equal(a_test, b_test)
    c_train, _ = stratified_split(labels, SplitSpec(0.25, seed=6))
    assert not np.array_equal(a_train, c_train)


def test_stratified_split_rejects_tiny_class():
    labels = LabelMap(np.array([[1, 1, 1], [1, 2, 2]]))
    with pytest.raises(ValueError, match="class 2"):
        stratified_split(labels, SplitSpec(0.5, min_per_class=2))


def test_stratified_split_rejects_sparse_class_ids():
    labels = LabelMap(np.array([[1, 1, 1], [3, 3, 3], [5, 5, 5]]))
    with pytest.raises(ValueError, match=r"contiguous 1\.\.5; missing ids: 2, 4$"):
        stratified_split(labels, SplitSpec(0.5, min_per_class=1))


def test_stratified_split_rejects_unlabeled_map():
    with pytest.raises(ValueError):
        stratified_split(LabelMap(np.zeros((3, 3), dtype=np.int64)), SplitSpec(0.5))


def test_extract_samples():
    cube = DataCube(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
    labels = LabelMap(np.array([[1, 0, 2], [2, 1, 0]]))
    samples = extract_samples(cube, labels, np.array([0, 4, 2]))  # (0, 0), (1, 1), (0, 2)
    assert len(samples) == 3
    assert np.array_equal(samples.labels, [1, 1, 2])
    assert np.array_equal(samples.features[0], [0.0, 1.0, 2.0, 3.0])
    assert np.allclose(samples.coords[1], [1.0, 0.5])
    assert np.array_equal(samples.rows, [0, 1, 0]) and np.array_equal(samples.cols, [0, 1, 2])
    with pytest.raises(ValueError, match=r"pixel \(0, 1\) is unlabeled"):
        extract_samples(cube, labels, np.array([1]))
    for outside in (-1, 6):
        with pytest.raises(ValueError, match="outside"):
            extract_samples(cube, labels, np.array([outside]))
    with pytest.raises(ValueError, match="1-d"):  # (row, col) pairs are not indices
        extract_samples(cube, labels, np.array([[0, 0], [1, 1]]))


def test_extract_samples_dimension_mismatch():
    cube = DataCube(np.zeros((2, 2, 3)))
    labels = LabelMap(np.ones((3, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        extract_samples(cube, labels, np.array([0]))


def test_generate_synthetic_shapes_and_ranges():
    cube, labels = generate_synthetic(create_rng(1), 20, 24, 8, 5)
    assert cube.values.shape == (20, 24, 8)
    assert labels.labels.shape == (20, 24)
    assert cube.values.min() >= 0.0 and cube.values.max() <= 1.0
    present = np.unique(labels.labels)
    assert np.array_equal(present, np.arange(1, 6))  # every class appears


def test_generate_synthetic_regions_are_contiguous_blobs():
    _, labels = generate_synthetic(create_rng(2), 16, 16, 4, 3)
    # Voronoi cells of a seed pixel contain that seed; each class touches
    # at least one 4-neighbor of its own class when it has > 1 pixel.
    grid = labels.labels
    for cls in range(1, 4):
        mask = grid == cls
        if mask.sum() < 2:
            continue
        padded = np.pad(mask, 1)
        neighbors = padded[:-2, 1:-1] | padded[2:, 1:-1] | padded[1:-1, :-2] | padded[1:-1, 2:]
        assert (mask & neighbors).any()


def test_generate_synthetic_determinism():
    a_cube, a_labels = generate_synthetic(create_rng(7), 12, 12, 6, 4)
    b_cube, b_labels = generate_synthetic(create_rng(7), 12, 12, 6, 4)
    assert np.array_equal(a_cube.values, b_cube.values)
    assert np.array_equal(a_labels.labels, b_labels.labels)


def test_generate_synthetic_coordinate_separable_twins():
    rng = create_rng(11)
    cube, labels = generate_synthetic(rng, 32, 32, 10, 6, noise=0.0, coordinate_separable=True)
    sizes = np.bincount(labels.labels.ravel(), minlength=7)[1:]
    a, b = np.argsort(-sizes, kind="stable")[:2] + 1
    spec_a = cube.values[labels.labels == a]
    spec_b = cube.values[labels.labels == b]
    # identical prototypes, zero noise: every pixel of both classes matches
    assert np.allclose(spec_a[0], spec_b[0])
    assert np.allclose(spec_a, spec_a[0][None, :])
    # the other classes use distinct prototypes
    other = next(c for c in range(1, 7) if c not in (a, b))
    assert not np.allclose(cube.values[labels.labels == other][0], spec_a[0])


def test_generate_synthetic_overlap_pulls_prototypes_together():
    def spread(overlap):
        cube, labels = generate_synthetic(
            create_rng(3), 16, 16, 8, 4, noise=0.0, overlap=overlap
        )
        protos = [cube.values[labels.labels == c][0] for c in range(1, 5)]
        protos = np.stack(protos)
        return np.linalg.norm(protos - protos.mean(axis=0))

    assert spread(0.8) < spread(0.0) * 0.5


def test_generate_synthetic_validation():
    rng = create_rng(0)
    with pytest.raises(ValueError):
        generate_synthetic(rng, 0, 4, 2, 2)
    with pytest.raises(ValueError):
        generate_synthetic(rng, 4, 4, 2, 1)
    with pytest.raises(ValueError):
        generate_synthetic(rng, 2, 2, 2, 5)
    with pytest.raises(ValueError):
        generate_synthetic(rng, 4, 4, 2, 2, overlap=1.0)
    with pytest.raises(ValueError):
        generate_synthetic(rng, 4, 4, 2, 2, noise=-0.1)
    for h, w, k in ((5, 5, 8), (3, 7, 7)):  # no draw gives every region 3 pixels
        with pytest.raises(ValueError, match="at least 3 pixels"):
            generate_synthetic(create_rng(0), h, w, 2, k)


@pytest.mark.parametrize("name", list(INGESTION_SHAPES))
def test_ingestion_is_pinned(tmp_path, name):
    h, w, b, k = INGESTION_SHAPES[name]
    cube, labels = generate_synthetic(create_rng(5), h, w, b, k, coordinate_separable=True)
    got = {"generate_synthetic": _digest(cube.values, labels.labels)}
    save_cube(cube, tmp_path / "c.hcube")
    save_labels(labels, tmp_path / "l.hlbl")
    del cube
    got["save_cube"] = hashlib.sha256((tmp_path / "c.hcube").read_bytes()).hexdigest()
    cube, labels = load_cube(tmp_path / "c.hcube"), load_labels(tmp_path / "l.hlbl")
    got["load"] = _digest(cube.values, labels.labels)
    norm = normalize_cube(cube)
    got["normalize_cube"] = _digest(norm.values)
    del cube
    samples = [
        extract_samples(norm, labels, idx)
        for idx in stratified_split(labels, SplitSpec(0.05, seed=5))
    ]
    got["extract_samples"] = _digest(
        *(getattr(s, f) for s in samples for f in ("rows", "cols", "features", "coords", "labels"))
    )
    assert got == INGESTION_SHA256[name]


def test_ingestion_memory_is_bounded(tmp_path):
    h, w, b, k = INGESTION_SHAPES["odd"]
    # numpy sets some paths up on first use (sorting, fancy indexing); a small
    # scene warms them so that the peaks below hold only the step's own arrays.
    warm_cube, warm_labels = generate_synthetic(create_rng(0), 6, 5, 4, 3)
    extract_samples(normalize_cube(warm_cube), warm_labels, np.flatnonzero(warm_labels.labels))

    (cube, labels), peak = _traced_peak(generate_synthetic, create_rng(5), h, w, b, k)
    # The cube, one noise-draw buffer and a few (h, w) int64 arrays: the
    # running nearest-seed distances and ids, one seed's distances, the labels.
    assert peak <= cube.values.nbytes + MIB + 4 * h * w * 8
    # Many classes on a few bands: an int64 distance from every pixel to every
    # seed took this shape to 25.0 MiB, 12.5 times its cube.
    (wide, _), peak = _traced_peak(generate_synthetic, create_rng(5), 256, 256, 4, 16)
    assert peak <= wide.values.nbytes + MIB + 4 * 256 * 256 * 8
    del wide

    path = tmp_path / "c.hcube"
    _, peak = _traced_peak(save_cube, cube, path)
    assert cube.values.nbytes // 2 > 2 * MIB  # several write blocks
    assert peak <= MIB + 64 * 1024  # one float32 block

    loaded, peak = _traced_peak(load_cube, path)
    payload = loaded.values.nbytes // 2
    assert payload > 2 * MIB and payload % MIB  # several read blocks, the last partial
    assert peak <= loaded.values.nbytes + MIB + 64 * 1024

    before = loaded.values.copy()
    norm, peak = _traced_peak(normalize_cube, loaded)
    assert peak <= 1.1 * norm.values.nbytes
    assert np.array_equal(loaded.values, before)  # the input is not scaled in place

    samples, peak = _traced_peak(extract_samples, norm, labels, np.flatnonzero(labels.labels))
    assert peak <= 1.1 * samples.features.nbytes


@pytest.mark.parametrize("limit", [1000, MIB])
def test_load_short_payload_read_is_truncation(tmp_path, monkeypatch, limit):
    h, w, b, _ = INGESTION_SHAPES["odd"]
    values = create_rng(1).random((h, w, b)).astype(np.float32).astype(np.float64)
    path = tmp_path / "c.hcube"
    save_cube(DataCube(values), path)
    payload = 4 * values.size
    stop = [None]

    class ShortReads(io.FileIO):
        """Each read returns at most `limit` bytes, and none past `stop`."""

        def readinto(self, buffer):
            end = self.tell() + min(len(buffer), limit)
            if stop[0] is not None:
                end = min(end, stop[0])
            return super().readinto(memoryview(buffer)[: max(0, end - self.tell())])

    monkeypatch.setattr(
        dataset_module, "open", lambda p, mode, buffering: ShortReads(p, mode), raising=False
    )
    # Short reads that go on are joined: the cube loads whole.
    assert np.array_equal(load_cube(path).values, values)
    # A payload that ends early (the file shrank after its size was checked)
    # is an error, not a partly zero cube.
    stop[0] = 16 + payload - 4004
    message = f"ended after {payload - 4004} of {payload} bytes$"
    with pytest.raises(CubeFormatError, match=message):
        load_cube(path)
