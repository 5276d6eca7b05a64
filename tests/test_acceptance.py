"""Release gate: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (with its measured numbers)
straight to the terminal, then asserts. Criterion 4 exercises the full
benchmark scene and only runs when COORDFUSE_BENCH_CUBE and
COORDFUSE_BENCH_LABELS point at converted data files; it is skipped (and
says so) otherwise.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from checks import MARGIN, dual_margins, fd_wrt, norm_rel_err
from coordfuse.cli import experiment, main
from coordfuse.dataset import (
    LabelMap,
    SplitSpec,
    generate_synthetic,
    load_cube,
    load_labels,
    normalize_cube,
    stratified_split,
)
from coordfuse.evaluation import CrfParams, dense_energy, metrics
from coordfuse.layers import (
    Conv1d,
    Dense,
    conv1d_backward,
    conv1d_forward,
    cross_entropy,
    dense_backward,
    dense_forward,
    maxpool1d_backward,
    maxpool1d_forward,
    softmax,
)
from coordfuse.model import ModelConfig, backward, build, forward
from coordfuse.numerics import create_rng
from coordfuse.optimizer import TrainConfig

# 16-class populations of the 145x145 benchmark ground truth and the
# training counts its published 5% split reports.
BENCH_POPULATIONS = [46, 1428, 830, 237, 483, 730, 28, 478, 20, 972, 2455, 593, 205, 1265, 386, 93]
BENCH_TRAIN_COUNTS = [3, 72, 42, 12, 25, 37, 2, 24, 2, 49, 123, 30, 11, 64, 20, 5]


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _layer_fd_worst(seeds=10):
    """Worst relative FD error across all layer kinds, kink-safe draws."""
    worst = 0.0
    accepted = 0
    for seed in range(200):
        if accepted == seeds:
            break
        rng = create_rng(seed)
        conv = Conv1d(rng.normal(size=(3, 4)), rng.normal(size=3) * 0.1)
        x = rng.normal(size=12)
        win = np.lib.stride_tricks.sliding_window_view(x, 4)
        if np.abs(win @ conv.weights.T + conv.bias).min() <= MARGIN:
            continue
        pool_in = rng.normal(size=(3, 9))
        pool_win = np.lib.stride_tricks.sliding_window_view(pool_in, 2, axis=1)[:, ::2]
        if np.abs(pool_win[..., 0] - pool_win[..., 1]).min() <= MARGIN:
            continue
        dense = Dense(rng.normal(size=(7, 5)), rng.normal(size=5) * 0.1, relu=True)
        v = rng.normal(size=7)
        if np.abs(v @ dense.weights + dense.bias).min() <= MARGIN:
            continue
        accepted += 1

        proj = rng.normal(size=(3, 9))
        out = conv1d_forward(conv, x[None])
        d_weights, d_bias = conv1d_backward(conv, x[None], out, proj[None])
        loss = lambda: float((conv1d_forward(conv, x[None])[0] * proj).sum())
        worst = max(worst, norm_rel_err(fd_wrt(loss, conv.weights), d_weights))
        worst = max(worst, norm_rel_err(fd_wrt(loss, conv.bias), d_bias))

        pproj = rng.normal(size=(3, 4))
        pooled = maxpool1d_forward(pool_in[None], 2, 2)
        d_in = maxpool1d_backward(pool_in[None], pooled, pproj[None], 2, 2)[0]
        ploss = lambda: float((maxpool1d_forward(pool_in[None], 2, 2)[0] * pproj).sum())
        worst = max(worst, norm_rel_err(fd_wrt(ploss, pool_in), d_in))

        dproj = rng.normal(size=5)
        d_out = dense_forward(dense, v[None])
        dg_weights, dg_bias, dg_inputs = dense_backward(dense, v[None], d_out, dproj[None])
        dloss = lambda: float(dense_forward(dense, v[None])[0] @ dproj)
        worst = max(worst, norm_rel_err(fd_wrt(dloss, dense.weights), dg_weights))
        worst = max(worst, norm_rel_err(fd_wrt(dloss, dense.bias), dg_bias))
        worst = max(worst, norm_rel_err(fd_wrt(dloss, v), dg_inputs[0]))

        smax = Dense(rng.normal(size=(6, 4)), np.zeros(4))  # the model's linear head
        sv = rng.normal(size=6)
        target = seed % 4
        logits = dense_forward(smax, sv[None])
        _, d_logits = cross_entropy(softmax(logits), [target])
        sg_weights, sg_bias, sg_inputs = dense_backward(smax, sv[None], logits, d_logits)
        sloss = lambda: cross_entropy(softmax(dense_forward(smax, sv[None])), [target])[0]
        worst = max(worst, norm_rel_err(fd_wrt(sloss, smax.weights), sg_weights))
        worst = max(worst, norm_rel_err(fd_wrt(sloss, smax.bias), sg_bias))
        worst = max(worst, norm_rel_err(fd_wrt(sloss, sv), sg_inputs[0]))
    assert accepted == seeds
    return worst


def _end_to_end_fd_worst(seeds=10):
    cfg_kwargs = dict(num_bands=16, num_classes=3, conv_filters=4, kernel_len=5,
                      dense_width=10, coord_hidden=8, keep_prob=1.0)
    worst = 0.0
    accepted = 0
    for seed in range(300):
        if accepted == seeds:
            break
        rng = create_rng(seed)
        model = build(ModelConfig(**cfg_kwargs), rng)
        x = rng.random(16)
        coords = rng.random(2)
        if dual_margins(model, x, coords) <= MARGIN:
            continue
        accepted += 1
        label = int(rng.integers(1, 4))
        _, cache = forward(model, x[None], coords[None])
        _, grads = backward(model, cache, np.array([label]))

        def loss():
            return cross_entropy(forward(model, x[None], coords[None])[0], [label - 1])[0]

        for name, param in model.parameters().items():
            worst = max(worst, norm_rel_err(fd_wrt(loss, param), grads[name]))
    assert accepted == seeds
    return worst


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.time()
    layer_worst = _layer_fd_worst(seeds=10)
    e2e_worst = _end_to_end_fd_worst(seeds=10)
    elapsed = time.time() - t0
    ok = layer_worst < 1e-6 and e2e_worst < 1e-5 and elapsed < 60
    report(
        capsys, 1, ok,
        f"10-seed central differences: worst layer err {layer_worst:.2e} < 1e-6, "
        f"worst end-to-end err {e2e_worst:.2e} < 1e-5, {elapsed:.1f}s < 60s",
    )


def test_criterion_2_metric_oracle_equivalence(capsys):
    def naive(cm):
        cm = np.asarray(cm, dtype=np.float64)
        total = cm.sum()
        per_class = np.array([cm[i, i] / cm[i].sum() for i in range(len(cm))])
        oa = np.trace(cm) / total
        p_e = sum(cm[i].sum() * cm[:, i].sum() for i in range(len(cm))) / total**2
        return oa, per_class.mean(), (oa - p_e) / (1.0 - p_e)

    rng = create_rng(2024)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        cm = rng.integers(0, 50, size=(k, k)).astype(np.int64) + np.eye(k, dtype=np.int64)
        rep = metrics(cm)
        oa, aa, kappa = naive(cm)
        worst = max(worst, abs(rep.oa - oa), abs(rep.aa - aa), abs(rep.kappa - kappa))
    hand = metrics(np.array([[4, 1], [2, 3]]))
    ok = worst < 1e-12 and hand.kappa == 0.4
    report(
        capsys, 2, ok,
        f"1000 random matrices: worst |delta| {worst:.2e} < 1e-12; "
        f"hand case kappa {hand.kappa!r} == 0.4 exactly",
    )


def test_criterion_3_coordinate_separability(capsys):
    t0 = time.time()
    gaps = []
    for seed in (0, 1, 2):
        cube, labels = generate_synthetic(
            create_rng(seed), 64, 64, 30, 6, noise=0.05, coordinate_separable=True
        )
        _, runs = experiment(normalize_cube(cube), labels, SplitSpec(0.05, seed=seed), {},
                             TrainConfig(max_epochs=100))
        gaps.append(runs["dual"].report.oa - runs["baseline"].report.oa)
    elapsed = time.time() - t0
    median_gap = float(np.median(gaps))
    ok = median_gap >= 0.10 and elapsed < 300
    report(
        capsys, 3, ok,
        f"64x64x30, 6 classes, twin regions, 5% train, 3 seeds: per-seed gaps "
        f"{[f'{g*100:.1f}' for g in gaps]} pts, median {median_gap*100:.1f} >= 10; "
        f"{elapsed:.0f}s < 300s",
    )


def test_criterion_4_benchmark_reproduction(capsys):
    cube_path = os.environ.get("COORDFUSE_BENCH_CUBE")
    labels_path = os.environ.get("COORDFUSE_BENCH_LABELS")
    if not cube_path or not labels_path:
        with capsys.disabled():
            print(
                "\n[criterion 4] SKIP (benchmark scene not supplied; set "
                "COORDFUSE_BENCH_CUBE and COORDFUSE_BENCH_LABELS to converted files)"
            )
        pytest.skip("benchmark data not supplied")
    t0 = time.time()
    _, runs = experiment(normalize_cube(load_cube(cube_path)), load_labels(labels_path),
                         SplitSpec(0.05, seed=0), {}, TrainConfig())
    results = {name: run.report for name, run in runs.items()}
    elapsed = time.time() - t0
    gap = results["dual"].oa - results["baseline"].oa
    ok = (
        results["dual"].oa >= 0.90
        and gap >= 0.15
        and results["dual"].kappa >= 0.88
        and elapsed < 1800
    )
    report(
        capsys, 4, ok,
        f"5% split: dual OA {results['dual'].oa:.4f} >= 0.90, gap {gap*100:.1f} >= 15 pts "
        f"(baseline OA {results['baseline'].oa:.4f}), kappa {results['dual'].kappa:.4f} "
        f">= 0.88, {elapsed:.0f}s < 1800s",
    )


def test_criterion_5_split_counts_match_reference(capsys):
    # Lay the published class populations out on the benchmark's 145x145 grid;
    # the split rule sees only per-class totals, so placement is irrelevant.
    flat = np.zeros(145 * 145, dtype=np.int64)
    pos = 0
    for cls, population in enumerate(BENCH_POPULATIONS, start=1):
        flat[pos : pos + population] = cls
        pos += population
    labels = LabelMap(flat.reshape(145, 145))
    tr, _ = stratified_split(labels, SplitSpec(0.05, seed=0))
    got = np.bincount(labels.labels.reshape(-1)[tr], minlength=17)[1:]
    matches = int((got == np.array(BENCH_TRAIN_COUNTS)).sum())
    ok = matches >= 14
    report(
        capsys, 5, ok,
        f"5% per-class training counts: {matches}/16 match the reference table "
        f"(need >= 14); got {got.tolist()}",
    )


def test_criterion_6_energy_oracle(capsys):
    def naive_energy(labeling, probmap, appearance, params):
        h, w = labeling.shape
        pixels = [(r, c) for r in range(h) for c in range(w)]
        e = 0.0
        for r, c in pixels:
            e += -math.log(max(probmap[r, c, labeling[r, c] - 1], 1e-12))
        for ri, ci in pixels:
            for rj, cj in pixels:
                if (ri, ci) == (rj, cj) or labeling[ri, ci] == labeling[rj, cj]:
                    continue
                d_pos = (ri - rj) ** 2 + (ci - cj) ** 2
                d_app = float(((appearance[ri, ci] - appearance[rj, cj]) ** 2).sum())
                e += params.w1 * math.exp(
                    -d_pos / (2 * params.theta_alpha**2)
                    - d_app / (2 * params.theta_beta**2)
                )
                e += params.w2 * math.exp(-d_pos / (2 * params.theta_gamma**2))
        return e

    t0 = time.time()
    rng = create_rng(66)
    worst = 0.0
    worst_abs = 0.0
    for _ in range(20):
        labeling = rng.integers(1, 5, size=(16, 16))
        raw = rng.random((16, 16, 4)) + 1e-3
        probmap = raw / raw.sum(axis=2, keepdims=True)
        appearance = rng.random((16, 16, 3))
        params = CrfParams(
            w1=float(rng.random() * 2),
            w2=float(rng.random() * 2),
            theta_alpha=float(rng.random() * 8 + 0.5),
            theta_beta=float(rng.random() + 0.1),
            theta_gamma=float(rng.random() * 8 + 0.5),
        )
        a = dense_energy(labeling, probmap, appearance, params)
        b = naive_energy(labeling, probmap, appearance, params)
        # Energies run ~1e4 here, so the bound is on relative error; the two
        # float64 summation orders alone differ by ~1e-8 absolute.
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
        worst_abs = max(worst_abs, abs(a - b))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10
    report(
        capsys, 6, ok,
        f"20 random 16x16 draws vs double-loop oracle: worst rel err {worst:.2e} "
        f"<= 1e-9 (abs {worst_abs:.2e}), {elapsed:.1f}s < 10s",
    )


def test_criterion_7_rerun_determinism(capsys, tmp_path):
    cube = tmp_path / "cube.hcube"
    labels = tmp_path / "labels.hlbl"
    assert main(["synth", str(cube), str(labels), "--height", "16", "--width", "16",
                 "--bands", "12", "--classes", "4", "--seed", "5"]) == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "cube": str(cube),
        "labels": str(labels),
        "fraction": 0.15,
        "seed": 3,
        "model": {"conv_filters": 6, "kernel_len": 6, "dense_width": 20,
                  "coord_hidden": 24},
        "train": {"max_epochs": 10, "batch_size": 16},
    }))
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(["run", "--config", str(config), "--out-dir", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--out-dir", str(out2)]) == 0
    checked = []
    identical = True
    for name in ("report.json", "model.ckpt", "baseline_report.json",
                 "baseline_model.ckpt"):
        same = (out1 / name).read_bytes() == (out2 / name).read_bytes()
        identical = identical and same
        checked.append(name)
    report(
        capsys, 7, identical,
        f"two cmd_run executions, identical config and seed: "
        f"{', '.join(checked)} byte-identical",
    )
