import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from checks import dual_margins, fd_wrt, norm_rel_err
from coordfuse.layers import (
    ShapeError,
    conv1d_forward,
    cross_entropy,
    dense_forward,
    maxpool1d_forward,
    softmax,
)
from coordfuse import layers as layers_module
from coordfuse import model as model_module
from coordfuse.model import (
    CheckpointError,
    ModelConfig,
    backward,
    build,
    forward,
    forward_many,
    load_checkpoint,
    param_count,
    param_shapes,
    predict_many,
    save_checkpoint,
)
from coordfuse.numerics import create_rng
from coordfuse.optimizer import AdamState, TrainConfig, adam_step

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
    assert model.theta.size == 238404


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(num_bands=8, num_classes=3, kernel_len=10)
    with pytest.raises(ValueError):
        ModelConfig(num_bands=10, num_classes=3, kernel_len=10, pool_width=2)
    with pytest.raises(ValueError):
        ModelConfig(num_bands=16, num_classes=1)
    with pytest.raises(ValueError):
        ModelConfig(num_bands=16, num_classes=3, keep_prob=0.0)
    with pytest.raises(ValueError):
        ModelConfig(num_bands=16, num_classes=3, conv_filters=0)
    for bad in ({"num_bands": "16"}, {"conv_filters": 4.0}, {"num_classes": True},
                {"keep_prob": "x"}, {"baseline": 1}):
        with pytest.raises(TypeError, match=next(iter(bad))):
            ModelConfig(**{"num_bands": 16, "num_classes": 3, **bad})
    ModelConfig(num_bands=16, num_classes=3)


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
    probs, _ = forward(model, rng.random((1, 16)), rng.random((1, 2)))
    assert probs.shape == (1, 3)
    assert probs.min() >= 0.0
    assert abs(probs.sum() - 1.0) < 1e-12


def test_forward_validation():
    model = small_model()
    with pytest.raises(ShapeError):
        forward(model, np.ones((1, 15)), np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        forward(model, np.ones((1, 16)), np.zeros((1, 3)))
    with pytest.raises(ShapeError):  # a lone pixel is not a stack
        forward(model, np.ones(16), np.zeros(2))


def test_baseline_ignores_coordinates():
    model = small_model(baseline=True)
    x = create_rng(1).random((1, 16))
    p1, _ = forward(model, x, np.array([[0.0, 0.0]]))
    p2, _ = forward(model, x, np.array([[1.0, 1.0]]))
    assert np.array_equal(p1, p2)


def test_dual_branch_uses_coordinates():
    model = small_model()
    x = create_rng(1).random((1, 16))
    p1, _ = forward(model, x, np.array([[0.1, 0.1]]))
    p2, _ = forward(model, x, np.array([[0.9, 0.9]]))
    assert not np.array_equal(p1, p2)


def test_backward_label_range():
    model = small_model()
    _, cache = forward(model, np.ones((1, 16)), np.zeros((1, 2)))
    for bad in (0, 4):
        with pytest.raises(ValueError):
            backward(model, cache, np.array([bad]))


def test_backward_keys_match_parameters():
    for baseline in (False, True):
        model = small_model(baseline=baseline)
        _, cache = forward(model, np.ones((1, 16)), np.full((1, 2), 0.5))
        _, grads = backward(model, cache, np.array([2]))
        assert list(grads) == list(model.parameters())
        for name, g in grads.items():
            assert g.shape == model.parameters()[name].shape, name


def test_backward_reaches_the_conv_helpers_through_the_layers_module(monkeypatch):
    # A per-layer profiler counts the conv backward's nested calls by patching
    # these names in coordfuse.layers; a local binding would hide them.
    model = small_model()
    _, cache = forward(model, create_rng(1).random((1, 16)), np.full((1, 2), 0.5))
    calls = {}
    for name in ("conv1d_forward", "maxpool1d_backward"):
        def counted(*args, _fn=getattr(layers_module, name), _name=name, **kwargs):
            calls.setdefault(_name, []).append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(layers_module, name, counted)
    backward(model, cache, np.array([2]))
    assert {k: len(v) for k, v in calls.items()} == {"conv1d_forward": 1, "maxpool1d_backward": 1}
    # The recompute runs on the cache's own stack, so the profiler counts its rows.
    [(_, spectra)] = calls["conv1d_forward"]
    assert spectra.shape == (1, 16)


def _kink_free_case(seed, baseline, keep_prob=1.0):
    for attempt in range(200):
        rng = create_rng(seed + 10_000 * attempt)
        cfg = ModelConfig(keep_prob=keep_prob, baseline=baseline, **SMALL)
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
        _, cache = forward(model, x[None], coords[None])
        _, grads = backward(model, cache, np.array([label]))

        def loss():
            probs, _ = forward(model, x[None], coords[None])
            return cross_entropy(probs, np.array([label - 1]))[0]

        for name, param in model.parameters().items():
            fd = fd_wrt(loss, param)
            assert norm_rel_err(fd, grads[name]) < E2E_TOL, f"{name} seed {seed}"


def test_backward_without_rng_matches_finite_differences():
    # keep_prob < 1 but no rng: the forward applies no dropout, so backward
    # must not undo any dropout scaling.
    for baseline in (False, True):
        for seed in range(3):
            model, x, coords, label = _kink_free_case(seed, baseline, keep_prob=0.5)
            probs, cache = forward(model, x[None], coords[None])
            loss, grads = backward(model, cache, np.array([label]))
            assert cache.drop_mask is None
            assert loss == cross_entropy(probs, np.array([label - 1]))[0]

            def loss_fn():
                return cross_entropy(forward(model, x[None], coords[None])[0], [label - 1])[0]

            for name, param in model.parameters().items():
                fd = fd_wrt(loss_fn, param)
                assert norm_rel_err(fd, grads[name]) < E2E_TOL, f"{name} seed {seed}"


def test_dropout_mask_gates_spectral_gradient():
    model = small_model(keep_prob=0.5)
    rng = create_rng(12)
    x, coords = rng.random((1, 16)), rng.random((1, 2))
    _, cache = forward(model, x, coords, rng)
    _, grads = backward(model, cache, np.array([1]))
    dead = cache.drop_mask[0] == 0.0
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
        probs, _ = forward(model, feats[i][None], coords[i][None])
        assert many[i] == np.argmax(probs[0]) + 1
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
    x = create_rng(0).random((1, 16))
    c = np.array([[0.25, 0.5]])
    assert np.array_equal(forward(model, x, c)[0], forward(loaded, x, c)[0])


def test_equal_configs_save_identical_checkpoints(tmp_path):
    paths = []
    for keep_prob in (1, 1.0):
        cfg = ModelConfig(num_bands=12, num_classes=3, keep_prob=keep_prob)
        assert isinstance(cfg.keep_prob, float)
        paths.append(tmp_path / f"{keep_prob!r}.ckpt")
        save_checkpoint(build(cfg, create_rng(0)), paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


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
    assert n_param_bytes == model.theta.size * 8


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

    # A mistyped config value is a CheckpointError naming the field, and is
    # caught before the parameter block is sized from it.
    good_cfg = json.loads(blob[12 : 12 + cfg_len])
    for key, value in [
        ("num_bands", "16"),
        ("num_bands", 16.0),
        ("num_classes", True),
        ("conv_filters", 4.0),
        ("kernel_len", None),
        ("keep_prob", "x"),
        ("keep_prob", None),
        ("baseline", 0),
        ("baseline", "false"),
    ]:
        mistyped = json.dumps({**good_cfg, key: value}).encode()
        bad.write_bytes(
            blob[:4] + struct.pack("<II", 1, len(mistyped)) + mistyped + blob[12 + cfg_len :]
        )
        with pytest.raises(CheckpointError, match=f"bad config block: {key} must be"):
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


@pytest.mark.parametrize("source", ["build", "load_checkpoint"])
@pytest.mark.parametrize("baseline", [False, True])
def test_parameters_are_views_of_theta(tmp_path, baseline, source):
    model = small_model(seed=3, baseline=baseline)
    if source == "load_checkpoint":
        save_checkpoint(model, tmp_path / "m.ckpt")
        model = load_checkpoint(tmp_path / "m.ckpt")
    theta = model.theta
    assert theta.dtype == np.float64 and theta.ndim == 1 and theta.flags.writeable
    assert theta.size == param_count(model.config)
    params = model.parameters()
    layers = [model.conv, model.fc, model.head]
    if not baseline:
        layers += [model.coord1, model.coord2]
    for arr in [*params.values(), *(a for layer in layers for a in (layer.weights, layer.bias))]:
        assert np.shares_memory(arr, theta)
    # The views tile theta in param_shapes order, with no gap and no overlap.
    assert np.array_equal(np.concatenate([p.ravel() for p in params.values()]), theta)

    before = theta.copy()
    grads = {k: np.ones_like(p) for k, p in params.items()}
    adam_step(params, grads, AdamState.for_params(params), TrainConfig())
    assert np.all(theta < before)
    assert np.array_equal(np.concatenate([p.ravel() for p in params.values()]), theta)
    assert np.array_equal(model.head.bias, params["head.bias"])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, value):
    model = small_model()
    model.head.bias[1] = value
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match="head.bias holds NaN or Inf"):
        load_checkpoint(path)


STACK_RTOL = 1e-12
STACK_ATOL = 1e-14


@pytest.mark.parametrize("baseline", [False, True])
def test_forward_stack_matches_single_pixel_forwards(baseline):
    model = small_model(keep_prob=0.75, baseline=baseline)
    rng = create_rng(7)
    feats = rng.random((9, 16))
    coords = rng.random((9, 2))
    probs, cache = forward(model, feats, coords)
    assert probs.shape == (9, 3)
    assert cache.drop_mask is None  # no rng, no dropout mask
    for i in range(9):
        single, _ = forward(model, feats[i][None], coords[i][None])
        assert np.allclose(probs[i], single[0], rtol=STACK_RTOL, atol=STACK_ATOL)


@pytest.mark.parametrize("bands", [30, 220])
@pytest.mark.parametrize("baseline", [False, True], ids=["dual", "baseline"])
def test_backward_of_a_stacked_row_matches_the_single_pixel_backward(baseline, bands):
    # Training runs one stacked forward per batch and backward on each one-row
    # cache of it; the finite-difference checks run on one-row stacks.
    cfg = ModelConfig(num_bands=bands, num_classes=16, keep_prob=0.75, baseline=baseline)
    model = build(cfg, create_rng(3))
    rng = create_rng(4)
    feats = rng.random((12, bands))
    coords = rng.random((12, 2))
    labels = rng.integers(1, 17, size=12)
    _, cache = forward(model, feats, coords, create_rng(5))
    single_rng = create_rng(5)  # the same mask draws, one pixel at a time
    for j in range(12):
        row = cache.row(j)
        for name, value in vars(row).items():
            stacked = getattr(cache, name)
            assert value is None if stacked is None else np.shares_memory(value, stacked)
        _, single = forward(model, feats[j][None], coords[j][None], single_rng)
        assert np.array_equal(row.drop_mask, single.drop_mask)
        loss, grads = backward(model, row, labels[j : j + 1])
        ref_loss, ref_grads = backward(model, single, labels[j : j + 1])
        assert abs(loss - ref_loss) <= 1e-13 * abs(ref_loss)
        for name, g in grads.items():
            assert norm_rel_err(g, ref_grads[name]) <= 1e-13, name


@pytest.mark.parametrize("bands", [30, 220])
@pytest.mark.parametrize("baseline", [False, True], ids=["dual", "baseline"])
def test_stacked_backward_is_the_sum_of_its_rows(baseline, bands):
    # One backward over a whole mini-batch cache gives the summed loss and
    # gradients of one backward per row of it.
    cfg = ModelConfig(num_bands=bands, num_classes=16, keep_prob=0.75, baseline=baseline)
    model = build(cfg, create_rng(3))
    rng = create_rng(4)
    feats = rng.random((64, bands))
    coords = rng.random((64, 2))
    labels = rng.integers(1, 17, size=64)
    _, cache = forward(model, feats, coords, create_rng(5))
    assert cache.drop_mask is not None and cache.drop_mask.shape == (64, cfg.dense_width)
    loss, grads = backward(model, cache, labels)
    rows = [backward(model, cache.row(j), labels[j : j + 1]) for j in range(64)]
    ref_loss = sum(row_loss for row_loss, _ in rows)
    assert abs(loss - ref_loss) <= 1e-13 * abs(ref_loss)
    assert list(grads) == list(model.parameters())
    for name, g in grads.items():
        assert g.shape == model.parameters()[name].shape, name
        assert norm_rel_err(g, sum(row_grads[name] for _, row_grads in rows)) <= 1e-13, name


def unfused_forward(model, feats, coords):
    """Reference inference forward: full ReLU maps, then the pool, then the
    dense layers and the softmax."""
    cfg = model.config
    maps = conv1d_forward(model.conv, feats)
    pooled = maxpool1d_forward(maps, cfg.pool_width, cfg.pool_stride)
    fused = dense_forward(model.fc, pooled.reshape(len(feats), -1))
    if not cfg.baseline:
        fused = fused + dense_forward(model.coord2, dense_forward(model.coord1, coords))
    return softmax(dense_forward(model.head, fused))


@pytest.mark.parametrize("baseline", [False, True])
def test_forward_many_is_bitwise_the_unfused_forward(baseline):
    model = build(ModelConfig(num_bands=220, num_classes=16, baseline=baseline), create_rng(0))
    # Biases of both signs, so the ReLU clips some pooled maxima and passes others.
    model.conv.bias[...] = create_rng(1).normal(0.0, 0.5, model.conv.bias.shape)
    rng = create_rng(2)
    feats = rng.normal(size=(150, 220))
    coords = rng.random((150, 2))
    rows = model_module._chunk_rows(model.config, feats.nbytes)
    assert rows < len(feats)
    ref = np.concatenate(
        [unfused_forward(model, feats[i : i + rows], coords[i : i + rows])
         for i in range(0, len(feats), rows)]
    )
    assert np.array_equal(forward_many(model, feats, coords), ref)


@pytest.mark.parametrize("spectral_shape", [(1, 16), (5, 16)])
def test_forward_cache_holds_no_full_feature_map(spectral_shape):
    model = small_model(keep_prob=0.75)
    rng = create_rng(10)
    feats = rng.random(spectral_shape)
    _, cache = forward(model, feats, rng.random((*spectral_shape[:-1], 2)), rng)
    cfg = model.config
    full_map = (cfg.conv_filters, cfg.conv_len)
    for value in vars(cache).values():
        assert np.shape(value)[-2:] != full_map


def test_forward_rejects_mismatched_rows():
    model = small_model()
    with pytest.raises(ShapeError):
        forward(model, np.ones((4, 16)), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        forward(model, np.ones((4, 16)), np.zeros(2))
    with pytest.raises(ShapeError):
        forward(model, np.ones(16), np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        forward(model, np.ones((2, 4, 16)), np.zeros((2, 4, 2)))


@pytest.mark.parametrize("baseline", [False, True])
def test_forward_of_an_empty_stack(baseline):
    model = small_model(baseline=baseline)
    probs, cache = forward(model, np.empty((0, 16)), np.empty((0, 2)))
    assert probs.shape == (0, 3)
    assert cache.flat.shape == (0, model.config.flat_dim)


def test_forward_many_at_chunk_boundaries(monkeypatch):
    model = small_model(keep_prob=0.75)
    rows = model_module._chunk_rows(model.config, 16 * 8)
    assert rows > 1
    rng = create_rng(8)
    feats = rng.random((2 * rows + 1, 16))
    coords = rng.random((2 * rows + 1, 2))
    single = np.array([forward(model, f[None], c[None])[0][0] for f, c in zip(feats, coords)])

    chunks = []

    def spy(net, spectral, coord_rows, *args, **kwargs):
        chunks.append(len(spectral))
        return forward(net, spectral, coord_rows, *args, **kwargs)

    monkeypatch.setattr(model_module, "forward", spy)
    for n in (0, 1, rows - 1, rows, rows + 1, 2 * rows + 1):
        # Inputs this small stay under the 1 MiB floor, so every call uses `rows`.
        assert model_module._chunk_rows(model.config, feats[:n].nbytes) == rows
        expected_chunks = [rows] * (n // rows) + ([n % rows] if n % rows else [])
        chunks.clear()
        probs = forward_many(model, feats[:n], coords[:n])
        assert probs.shape == (n, 3)
        assert chunks == expected_chunks
        assert np.allclose(probs, single[:n], rtol=STACK_RTOL, atol=STACK_ATOL)
        assert np.array_equal(np.argmax(probs, axis=1), np.argmax(single[:n], axis=1))
        # predict_many runs the same chunks and keeps only their labels.
        chunks.clear()
        preds = predict_many(model, feats[:n], coords[:n])
        assert chunks == expected_chunks
        assert preds.dtype == np.int64
        assert np.array_equal(preds, np.argmax(probs, axis=1) + 1)


@pytest.mark.parametrize(
    "n,bands,classes,dtype",
    [
        pytest.param(4096, 30, 6, np.float64, id="4096-30-6"),
        pytest.param(8192, 220, 16, np.float64, id="8192-220-16"),
        pytest.param(8192, 220, 16, np.float32, id="8192-220-16-float32"),
    ],
)
def test_forward_many_memory_is_bounded(n, bands, classes, dtype):
    model = build(ModelConfig(num_bands=bands, num_classes=classes), create_rng(0))
    rng = create_rng(9)
    feats = rng.random((n, bands)).astype(dtype)
    coords = rng.random((n, 2)).astype(dtype)
    budget = max(1 << 20, feats.nbytes // 8)
    for many in (forward_many, predict_many):
        tracemalloc.start()
        try:
            out = many(model, feats, coords)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1.5 * budget, many.__name__
    # Another dtype is converted one chunk at a time, to its float64 copy's labels.
    wide = predict_many(model, feats.astype(np.float64), coords.astype(np.float64))
    assert np.array_equal(out, wide)


def test_forward_many_takes_nested_lists():
    # forward takes nested lists, so the batched entry points do too.
    model = small_model()
    rng = create_rng(12)
    feats, coords = rng.random((5, 16)), rng.random((5, 2))
    for many in (forward_many, predict_many):
        got = many(model, feats.tolist(), coords.tolist())
        assert np.array_equal(got, many(model, feats, coords)), many.__name__


def test_predict_many_keeps_labels_only():
    n, classes = 8192, 16
    model = build(ModelConfig(num_bands=220, num_classes=classes), create_rng(0))
    rng = create_rng(9)
    feats = rng.random((n, 220))
    coords = rng.random((n, 2))
    tracemalloc.start()
    try:
        preds = predict_many(model, feats, coords)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One chunk's intermediates beside the labels. Distributions for every
    # row, n * classes float64 values (1 MiB here), do not fit beside them.
    budget = max(1 << 20, feats.nbytes // 8)
    assert peak - preds.nbytes <= budget
