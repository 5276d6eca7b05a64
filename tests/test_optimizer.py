import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import coordfuse
from coordfuse import optimizer as optimizer_module
from coordfuse.model import ModelConfig, backward, build, forward
from coordfuse.numerics import create_rng
from coordfuse.optimizer import (
    AdamState,
    NumericalError,
    TrainConfig,
    TrainHistory,
    adam_step,
    train,
)

# Reference trajectory for theta0=0.5, grads [0.1, -0.2, 0.3], lr=0.1,
# beta1=0.9, beta2=0.999, eps=1e-8, computed with an independent plain-float
# implementation and frozen.
ADAM_TRACE = [0.40000000999999896, 0.4366103603884888, 0.40228625394774287]


def test_adam_step_matches_frozen_scalar_trace():
    cfg = TrainConfig(learning_rate=0.1)
    params = {"w": np.array([0.5])}
    state = AdamState.for_params(params)
    for g, expected in zip([0.1, -0.2, 0.3], ADAM_TRACE):
        adam_step(params, {"w": np.array([g])}, state, cfg)
        assert abs(params["w"][0] - expected) < 1e-12
    assert state.step == 3


def naive_adam_step(params, grads, m, v, t, lr, b1, b2, eps):
    """Independent scalar-loop Adam for cross-checking the array version."""
    for key in params:
        p, g = params[key].ravel(), grads[key].ravel()
        mm, vv = m[key].ravel(), v[key].ravel()
        for i in range(p.size):
            mm[i] = b1 * mm[i] + (1 - b1) * g[i]
            vv[i] = b2 * vv[i] + (1 - b2) * g[i] * g[i]
            m_hat = mm[i] / (1 - b1**t)
            v_hat = vv[i] / (1 - b2**t)
            p[i] -= lr * m_hat / (math.sqrt(v_hat) + eps)


def test_adam_step_matches_naive_loop():
    cfg = TrainConfig(learning_rate=0.01)
    rng = create_rng(8)
    params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
    ref = {k: p.copy() for k, p in params.items()}
    state = AdamState.for_params(params)
    ref_m = {k: np.zeros_like(p) for k, p in params.items()}
    ref_v = {k: np.zeros_like(p) for k, p in params.items()}
    for t in range(1, 6):
        grads = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
        adam_step(params, grads, state, cfg)
        naive_adam_step(ref, grads, ref_m, ref_v, t, 0.01, 0.9, 0.999, 1e-8)
        for k in params:
            assert np.allclose(params[k], ref[k], rtol=0, atol=1e-15), (k, t)


def test_adam_step_updates_in_place_and_counts():
    params = {"w": np.zeros(3)}
    state = AdamState.for_params(params)
    ref = params["w"]
    adam_step(params, {"w": np.ones(3)}, state, TrainConfig())
    assert params["w"] is ref
    assert ref.any()
    assert state.step == 1


def test_adam_step_key_mismatch():
    params = {"w": np.zeros(3)}
    state = AdamState.for_params(params)
    with pytest.raises(KeyError):
        adam_step(params, {"v": np.ones(3)}, state, TrainConfig())


def test_adam_step_rejects_nonfinite_gradient():
    params = {"w": np.zeros(3)}
    state = AdamState.for_params(params)
    with pytest.raises(NumericalError):
        adam_step(params, {"w": np.array([1.0, np.nan, 0.0])}, state, TrainConfig())


def test_adam_step_detects_nonfinite_parameter():
    params = {"w": np.array([np.inf])}
    state = AdamState.for_params(params)
    with pytest.raises(NumericalError):
        adam_step(params, {"w": np.ones(1)}, state, TrainConfig())


def test_train_config_validation():
    TrainConfig()
    bad = [
        dict(learning_rate=0.0),
        dict(beta1=1.0),
        dict(beta2=-0.1),
        dict(epsilon=0.0),
        dict(batch_size=0),
        dict(max_epochs=0),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


def _toy_problem(n_per_class=20, seed=2):
    """Two well-separated spectral blobs plus distinct corners for coords."""
    rng = create_rng(seed)
    feats, coords, labels = [], [], []
    for cls, (level, corner) in enumerate([(0.2, 0.1), (0.8, 0.9)], start=1):
        feats.append(np.clip(level + 0.05 * rng.standard_normal((n_per_class, 12)), 0, 1))
        coords.append(np.full((n_per_class, 2), corner))
        labels.append(np.full(n_per_class, cls))
    return (
        np.concatenate(feats),
        np.concatenate(coords),
        np.concatenate(labels),
    )


def test_train_learns_separable_problem():
    feats, coords, labels = _toy_problem()
    model = build(
        ModelConfig(num_bands=12, num_classes=2, conv_filters=4, kernel_len=5,
                    dense_width=8, coord_hidden=6),
        create_rng(0),
    )
    cfg = TrainConfig(max_epochs=80, batch_size=16)
    history = train(model, feats, coords, labels, cfg, create_rng(0))
    assert len(history.loss) == 80
    assert len(history.train_acc) == 80
    assert history.loss[-1] < history.loss[0] * 0.5
    assert history.train_acc[-1] == 1.0


def test_train_runs_exactly_max_epochs_with_no_early_stop():
    feats, coords, labels = _toy_problem(n_per_class=6)
    model = build(
        ModelConfig(num_bands=12, num_classes=2, conv_filters=2, kernel_len=5,
                    dense_width=4, coord_hidden=4),
        create_rng(0),
    )
    history = train(model, feats, coords, labels, TrainConfig(max_epochs=7), create_rng(1))
    assert len(history.loss) == 7


def test_train_is_seed_deterministic():
    feats, coords, labels = _toy_problem(n_per_class=8)

    def run(train_seed):
        model = build(
            ModelConfig(num_bands=12, num_classes=2, conv_filters=2, kernel_len=5,
                        dense_width=4, coord_hidden=4, keep_prob=0.75),
            create_rng(3),
        )
        hist = train(model, feats, coords, labels,
                     TrainConfig(max_epochs=5, batch_size=8), create_rng(train_seed))
        return model, hist

    m1, h1 = run(11)
    m2, h2 = run(11)
    assert h1.loss == h2.loss
    for a, b in zip(m1.parameters().values(), m2.parameters().values()):
        assert np.array_equal(a, b)
    m3, h3 = run(12)
    assert h1.loss != h3.loss


def test_train_matches_manual_loop():
    """One shared rng drives init, shuffling, and updates; a hand-rolled
    epoch loop over the same calls (one stacked forward per batch, then a
    backward per row of its cache) must land on bitwise-identical
    parameters."""
    feats, coords, labels = _toy_problem(n_per_class=8)
    n = len(labels)
    mcfg = ModelConfig(num_bands=12, num_classes=2, conv_filters=2, kernel_len=5,
                       dense_width=4, coord_hidden=4, keep_prob=1.0)
    tcfg = TrainConfig(max_epochs=3, batch_size=6)

    rng = create_rng(21)
    model = build(mcfg, rng)
    train(model, feats, coords, labels, tcfg, rng)

    rng2 = create_rng(21)
    ref = build(mcfg, rng2)
    params = ref.parameters()
    state = AdamState.for_params(params)
    for _ in range(tcfg.max_epochs):
        order = rng2.permutation(n)
        for start in range(0, n, tcfg.batch_size):
            batch = order[start : start + tcfg.batch_size]
            acc = {k: np.zeros_like(p) for k, p in params.items()}
            _, cache = forward(ref, feats[batch], coords[batch], rng2)
            for j, i in enumerate(batch):
                _, grads = backward(ref, cache.row(j), labels[i : i + 1])
                for name, g in grads.items():
                    acc[name] += g
            for name in acc:
                acc[name] /= len(batch)
            adam_step(params, acc, state, tcfg)

    for a, b in zip(model.parameters().values(), ref.parameters().values()):
        assert np.array_equal(a, b)


# sha256 of theta, then the per-epoch loss and train_acc as float64 bytes,
# after build and train share create_rng(21) on _toy_problem(n_per_class=8):
# pins the dropout draws, the loss, the gradients and Adam bit for bit.
TRAINING_SHA256 = {
    False: "45974547e277699d0cb28e8b078cd869618bea39f14cf89dc0a29b450bfb71bc",
    True: "f4ae6702817d41eeb2f8d3196d89ed177323fc5726d021956e4a4bab2c05edad",
}


@pytest.mark.parametrize("baseline", [False, True], ids=["dual", "baseline"])
def test_training_is_pinned(baseline):
    feats, coords, labels = _toy_problem(n_per_class=8)
    rng = create_rng(21)
    model = build(
        ModelConfig(num_bands=12, num_classes=2, conv_filters=2, kernel_len=5,
                    dense_width=4, coord_hidden=4, keep_prob=0.75, baseline=baseline),
        rng,
    )
    history = train(model, feats, coords, labels,
                    TrainConfig(max_epochs=5, batch_size=6), rng)
    blob = b"".join(
        np.asarray(a, dtype=np.float64).tobytes()
        for a in (model.theta, history.loss, history.train_acc)
    )
    assert hashlib.sha256(blob).hexdigest() == TRAINING_SHA256[baseline]


def test_train_makes_one_forward_per_batch_and_one_backward_per_sample(monkeypatch):
    # A profiler counts calls and rows of these names in coordfuse.optimizer.
    # 16 samples in batches of 6 leave a short last batch in every epoch.
    feats, coords, labels = _toy_problem(n_per_class=8)
    n, epochs, batch_size = len(labels), 3, 6
    model = build(
        ModelConfig(num_bands=12, num_classes=2, conv_filters=2, kernel_len=5,
                    dense_width=4, coord_hidden=4),
        create_rng(0),
    )
    forward_rows, backward_rows = [], []

    def counted_forward(model, spectral, coords, rng=None):
        forward_rows.append(len(spectral))
        return forward(model, spectral, coords, rng)

    def counted_backward(model, cache, labels):
        backward_rows.append((cache.probs.shape, len(labels)))
        return backward(model, cache, labels)

    monkeypatch.setattr(optimizer_module, "forward", counted_forward)
    monkeypatch.setattr(optimizer_module, "backward", counted_backward)
    train(model, feats, coords, labels,
          TrainConfig(max_epochs=epochs, batch_size=batch_size), create_rng(1))
    assert len(forward_rows) == epochs * math.ceil(n / batch_size)
    assert sum(forward_rows) == epochs * n
    assert backward_rows == [((1, 2), 1)] * (epochs * n)  # one one-row cache each


# Two Adam steps (batch 64) at the Indian Pines shape: 220 bands, so the fc
# layer is 2100 x 100. Prints the sha256 of the trained theta.
_PINES_STEPS = """
import hashlib
from coordfuse.model import ModelConfig, build
from coordfuse.numerics import create_rng
from coordfuse.optimizer import TrainConfig, train

rng = create_rng(8)
model = build(ModelConfig(num_bands=220, num_classes=16), rng)
assert model.parameters()["fc.weights"].shape == (2100, 100)
feats = rng.random((128, 220))
coords = rng.random((128, 2))
labels = rng.integers(1, 17, size=128)
train(model, feats, coords, labels, TrainConfig(batch_size=64, max_epochs=1), rng)
print(hashlib.sha256(model.theta.tobytes()).hexdigest())
"""


def test_pines_shape_training_replays_at_one_blas_thread():
    # The reproducibility contract: the same numpy, BLAS build and BLAS
    # thread count give the same bits, also at shapes where BLAS threads.
    src = os.path.dirname(os.path.dirname(os.path.abspath(coordfuse.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    digests = [
        subprocess.run(
            [sys.executable, "-c", _PINES_STEPS],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        ).stdout.strip()
        for _ in range(2)
    ]
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_train_input_validation():
    model = build(
        ModelConfig(num_bands=12, num_classes=2, conv_filters=2, kernel_len=5,
                    dense_width=4, coord_hidden=4),
        create_rng(0),
    )
    feats, coords, labels = _toy_problem(n_per_class=4)
    with pytest.raises(ValueError):
        train(model, feats[:0], coords[:0], labels[:0], TrainConfig(max_epochs=1), create_rng(0))
    with pytest.raises(ValueError):
        train(model, feats, coords[:3], labels, TrainConfig(max_epochs=1), create_rng(0))
    with pytest.raises(ValueError):
        train(model, feats, coords, labels + 5, TrainConfig(max_epochs=1), create_rng(0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_raises_numerical_error_on_nonfinite_loss():
    feats, coords, labels = _toy_problem(n_per_class=6)
    model = build(
        ModelConfig(num_bands=12, num_classes=2, conv_filters=2, kernel_len=5,
                    dense_width=4, coord_hidden=4),
        create_rng(0),
    )
    # A poisoned parameter turns the first forward pass into NaN probabilities.
    model.fc.weights[0, 0] = np.inf
    model.fc.weights[1, 0] = -np.inf
    with pytest.raises(NumericalError):
        train(model, feats, coords, labels, TrainConfig(max_epochs=1), create_rng(0))


def test_history_to_csv(tmp_path):
    hist = TrainHistory(loss=[1.5, 0.25], train_acc=[0.5, 1.0])
    path = tmp_path / "log.csv"
    hist.to_csv(path)
    assert path.read_text() == (
        "epoch,loss,train_acc\n1,1.500000,0.500000\n2,0.250000,1.000000\n"
    )
