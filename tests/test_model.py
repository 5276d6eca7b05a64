import hashlib
import struct

import numpy as np
import pytest

from checks import dual_margins, fd_wrt, norm_rel_err
from coordfuse.layers import ShapeError, cross_entropy
from coordfuse.model import (
    CheckpointError,
    ModelConfig,
    backward,
    build,
    forward,
    load_checkpoint,
    param_shapes,
    predict,
    predict_many,
    save_checkpoint,
)
from coordfuse.numerics import create_rng

E2E_TOL = 1e-5

SMALL = dict(
    num_bands=16, num_classes=3, conv_filters=4, kernel_len=5,
    dense_width=10, coord_hidden=8,
)

# sha256 of the save_checkpoint bytes of build(ModelConfig(**SMALL,
# baseline=b), create_rng(0)): pins the parameter names, shapes, Glorot draw
# order and the DBM1 v1 file format.
LAYOUT_SHA256 = {
    False: "3dbd71a01be93d9faf2ef3c5e458e3fbfa22371cb44e96d33be21e8f43d5e08a",
    True: "57e0073746f6040ec9b5f8ebca92f488e220a3d889e3e8ce152ba74db7d6c54f",
}


def small_model(seed=0, keep_prob=1.0, baseline=False):
    cfg = ModelConfig(keep_prob=keep_prob, baseline=baseline, **SMALL)
    return build(cfg, create_rng(seed))


def test_config_derived_sizes():
    cfg = ModelConfig(num_bands=220, num_classes=16)
    assert cfg.conv_len == 211
    assert cfg.pooled_len == 105
    assert cfg.flat_dim == 2100


def test_published_architecture_parameter_count():
    # conv (20x10+20) + fc (2100x100+100) + coord (2x256+256, 256x100+100)
    # + head (100x16+16)
    model = build(ModelConfig(num_bands=220, num_classes=16), create_rng(0))
    assert model.num_parameters() == 238404


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(num_bands=8, num_classes=3, kernel_len=10).validate()
    with pytest.raises(ValueError):
        ModelConfig(num_bands=10, num_classes=3, kernel_len=10, pool_width=2).validate()
    with pytest.raises(ValueError):
        ModelConfig(num_bands=16, num_classes=1).validate()
    with pytest.raises(ValueError):
        ModelConfig(num_bands=16, num_classes=3, keep_prob=0.0).validate()
    with pytest.raises(ValueError):
        ModelConfig(num_bands=16, num_classes=3, conv_filters=0).validate()
    ModelConfig(num_bands=16, num_classes=3).validate()


def test_build_shapes_and_zero_biases():
    model = small_model()
    assert model.conv.weights.shape == (4, 5)
    assert model.fc.weights.shape == (model.config.flat_dim, 10)
    assert model.coord1.weights.shape == (2, 8)
    assert model.coord2.weights.shape == (8, 10)
    assert model.head.weights.shape == (10, 3)
    for name, arr in model.parameters().items():
        if name.endswith(".bias"):
            assert not arr.any(), name


def test_build_determinism():
    a = small_model(seed=9)
    b = small_model(seed=9)
    for x, y in zip(a.parameters().values(), b.parameters().values()):
        assert np.array_equal(x, y)
    c = small_model(seed=10)
    assert not np.array_equal(a.conv.weights, c.conv.weights)


def test_baseline_has_no_coordinate_branch():
    model = small_model(baseline=True)
    assert model.coord1 is None and model.coord2 is None
    names = list(model.parameters())
    assert not any(n.startswith("coord") for n in names)
    assert names[-2:] == ["head.weights", "head.bias"]


def test_forward_returns_distribution():
    model = small_model()
    rng = create_rng(4)
    probs, _ = forward(model, rng.random(16), rng.random(2))
    assert probs.shape == (3,)
    assert probs.min() >= 0.0
    assert abs(probs.sum() - 1.0) < 1e-12


def test_forward_validation():
    model = small_model()
    with pytest.raises(ShapeError):
        forward(model, np.ones(15), np.zeros(2))
    with pytest.raises(ShapeError):
        forward(model, np.ones(16), np.zeros(3))
    with pytest.raises(ValueError):
        forward(model, np.ones(16), np.zeros(2), mode="eval")


def test_train_mode_dropout_needs_rng():
    model = small_model(keep_prob=0.5)
    with pytest.raises(ValueError):
        forward(model, np.ones(16), np.zeros(2), mode="train")


def test_baseline_ignores_coordinates():
    model = small_model(baseline=True)
    x = create_rng(1).random(16)
    p1, _ = forward(model, x, np.array([0.0, 0.0]))
    p2, _ = forward(model, x, np.array([1.0, 1.0]))
    assert np.array_equal(p1, p2)


def test_dual_branch_uses_coordinates():
    model = small_model()
    x = create_rng(1).random(16)
    p1, _ = forward(model, x, np.array([0.1, 0.1]))
    p2, _ = forward(model, x, np.array([0.9, 0.9]))
    assert not np.array_equal(p1, p2)


def test_backward_requires_train_cache():
    model = small_model()
    _, cache = forward(model, np.ones(16), np.zeros(2))
    with pytest.raises(ValueError, match="train"):
        backward(model, cache, 1)


def test_backward_label_range():
    model = small_model()
    _, cache = forward(model, np.ones(16), np.zeros(2), mode="train")
    for bad in (0, 4):
        with pytest.raises(ValueError):
            backward(model, cache, bad)


def test_backward_keys_match_parameters():
    for baseline in (False, True):
        model = small_model(baseline=baseline)
        _, cache = forward(model, np.ones(16), np.full(2, 0.5), mode="train")
        grads = backward(model, cache, 2)
        assert list(grads) == list(model.parameters())
        for name, g in grads.items():
            assert g.shape == model.parameters()[name].shape, name


def _kink_free_case(seed, baseline):
    for attempt in range(200):
        rng = create_rng(seed + 10_000 * attempt)
        cfg = ModelConfig(keep_prob=1.0, baseline=baseline, **SMALL)
        model = build(cfg, rng)
        x = rng.random(cfg.num_bands)
        coords = rng.random(2)
        if dual_margins(model, x, coords) > 1e-3:
            label = int(rng.integers(1, cfg.num_classes + 1))
            return model, x, coords, label
    raise AssertionError("no kink-free model draw found")


@pytest.mark.parametrize("baseline", [False, True])
def test_end_to_end_gradients_match_finite_differences(baseline):
    for seed in range(10):
        model, x, coords, label = _kink_free_case(seed, baseline)
        _, cache = forward(model, x, coords, mode="train")
        grads = backward(model, cache, label)

        def loss():
            probs, _ = forward(model, x, coords)
            return cross_entropy(probs, label - 1)[0]

        for name, param in model.parameters().items():
            fd = fd_wrt(loss, param)
            assert norm_rel_err(fd, grads[name]) < E2E_TOL, f"{name} seed {seed}"


def test_dropout_mask_gates_spectral_gradient():
    model = small_model(keep_prob=0.5)
    rng = create_rng(12)
    x, coords = rng.random(16), rng.random(2)
    _, cache = forward(model, x, coords, mode="train", rng=rng)
    grads = backward(model, cache, 1)
    dead = cache.drop_mask == 0.0
    assert dead.any()
    # dropped fc units pass no gradient to their bias
    assert not grads["fc.bias"][dead].any()
    # the coordinate branch bypasses the dropout mask entirely
    assert grads["coord2.bias"].any()


def test_predict_and_predict_many_agree():
    model = small_model()
    rng = create_rng(6)
    feats = rng.random((8, 16))
    coords = rng.random((8, 2))
    many = predict_many(model, feats, coords)
    assert many.shape == (8,)
    for i in range(8):
        assert many[i] == predict(model, feats[i], coords[i])
    assert set(many) <= {1, 2, 3}
    with pytest.raises(ShapeError):
        predict_many(model, feats, coords[:4])


@pytest.mark.parametrize("baseline", [False, True])
def test_checkpoint_round_trip(tmp_path, baseline):
    model = small_model(seed=5, keep_prob=0.75, baseline=baseline)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for (an, a), (bn, b) in zip(
        model.parameters().items(), loaded.parameters().items()
    ):
        assert an == bn
        assert np.array_equal(a, b)
    x = create_rng(0).random(16)
    c = np.array([0.25, 0.5])
    assert predict(model, x, c) == predict(loaded, x, c)


def test_checkpoint_file_layout(tmp_path):
    model = small_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    assert blob[:4] == b"DBM1"
    version, cfg_len = struct.unpack("<II", blob[4:12])
    assert version == 1
    cfg = blob[12 : 12 + cfg_len]
    assert cfg.startswith(b'{"baseline":false')
    n_param_bytes = len(blob) - 12 - cfg_len
    assert n_param_bytes == model.num_parameters() * 8


def test_checkpoint_rejects_corruption(tmp_path):
    model = small_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)

    bad.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(bad)

    bad.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(bad)

    bad.write_bytes(blob[:4] + struct.pack("<I", 99) + blob[8:])
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)

    version, cfg_len = struct.unpack("<II", blob[4:12])
    junk = b'{"nope":1}'
    bad.write_bytes(
        blob[:4] + struct.pack("<II", 1, len(junk)) + junk + blob[12 + cfg_len :]
    )
    with pytest.raises(CheckpointError, match="config"):
        load_checkpoint(bad)


@pytest.mark.parametrize("baseline", [False, True])
def test_parameter_layout_is_pinned(tmp_path, baseline):
    cfg = ModelConfig(**SMALL, baseline=baseline)
    model = build(cfg, create_rng(0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LAYOUT_SHA256[baseline]
    assert list(model.parameters()) == list(param_shapes(cfg))
    assert [a.shape for a in model.parameters().values()] == list(param_shapes(cfg).values())
