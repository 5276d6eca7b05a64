import os

import numpy as np
import pytest

from coordfuse.numerics import atomic_write, create_rng, glorot_init, require_finite


def test_same_seed_same_stream():
    a = create_rng(123).random(50)
    b = create_rng(123).random(50)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = create_rng(1).random(50)
    b = create_rng(2).random(50)
    assert not np.array_equal(a, b)


def test_seed_range_validated():
    create_rng(0)
    create_rng(2**64 - 1)
    for bad in (-1, 2**64):
        with pytest.raises(ValueError):
            create_rng(bad)


def test_seed_must_be_integer():
    with pytest.raises((TypeError, ValueError)):
        create_rng(1.5)


def test_glorot_shape_and_bound():
    w = glorot_init(create_rng(0), 30, 50)
    assert w.shape == (30, 50)
    bound = np.sqrt(6.0 / 80.0)
    assert np.abs(w).max() <= bound
    # Uniform over (-bound, bound): mean near zero, spread fills the range.
    assert abs(w.mean()) < bound / 10
    assert np.abs(w).max() > 0.9 * bound


def test_glorot_seed_determinism():
    a = glorot_init(create_rng(9), 7, 11)
    b = glorot_init(create_rng(9), 7, 11)
    assert np.array_equal(a, b)


def test_glorot_rejects_bad_fans():
    rng = create_rng(0)
    for fan_in, fan_out in ((0, 5), (5, 0), (-1, 5)):
        with pytest.raises(ValueError):
            glorot_init(rng, fan_in, fan_out)


def test_require_finite():
    require_finite(np.ones(3), "ok")
    for bad in (np.nan, np.inf, -np.inf):
        arr = np.array([1.0, bad])
        with pytest.raises(ValueError, match="spectra"):
            require_finite(arr, "spectra")


def test_atomic_write_replaces_the_whole_file_or_nothing(tmp_path):
    target = tmp_path / "artifact.bin"
    target.write_bytes(b"old bytes")
    with pytest.raises(RuntimeError):
        with atomic_write(target) as f:
            f.write(b"half of the new")
            raise RuntimeError("interrupted part-way")
    assert target.read_bytes() == b"old bytes"
    assert os.listdir(tmp_path) == ["artifact.bin"]
    with atomic_write(target, "w") as f:  # text mode translates no newlines
        f.write("a\nb\n")
    assert target.read_bytes() == b"a\nb\n"
    assert os.listdir(tmp_path) == ["artifact.bin"]


def test_atomic_write_into_a_missing_directory_leaves_nothing(tmp_path):
    with pytest.raises(FileNotFoundError):
        with atomic_write(tmp_path / "missing" / "artifact.bin") as f:
            f.write(b"x")
    assert os.listdir(tmp_path) == []
