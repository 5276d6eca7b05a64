"""The benchmark's two workloads and the output checks each one runs.

Every workload is a closed loop with one caller: `setup` builds the inputs
from the workload seed, and each `trial` makes the same fixed set of calls
into coordfuse, timing only those calls. The seed is the only input; all
files go to a work directory the harness owns.

Timed calls are measured in CPU seconds of this process, with wall seconds
alongside. On a shared host, wall time also counts the time the core served
other processes or, on a paravirtualised guest, other guests (steal time);
CPU time leaves that out. The harness runs native thread pools on one
thread, so the process's CPU time is the one caller's work.

* pines-infer: inference only at the Indian Pines shape (test set, scores,
  full raster, map), the forward layers without backward or Adam.
* small-run: the README quickstart through `coordfuse.cli.main`; 30 bands
  make per-call Python overhead dominate. It trains both models, so it
  covers backward and Adam, and it is the only workload that reads and
  writes files and runs `dense_energy`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from coordfuse import cli, dataset, evaluation, model, numerics, optimizer
from reference import mismatches, reference_probs

FRACTION = 0.05
BATCH_SIZE = optimizer.TrainConfig().batch_size
REFERENCE_PIXELS = 512  # raster pixels checked against the reference forward


@dataclass(frozen=True)
class Scale:
    """Input sizes: (height, width, bands, classes) scenes and trial lengths."""

    pines: tuple[int, int, int, int]
    small: tuple[int, int, int, int]
    small_epochs: int


FULL = Scale(
    pines=(145, 145, 220, 16),
    small=(64, 64, 30, 6),
    small_epochs=10,
)


class Checks:
    """Counts output checks and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)


@dataclass
class Trial:
    seconds: float  # CPU seconds of the timed calls only
    wall_seconds: float  # wall seconds of the same calls
    items: int  # samples or pixels the timed calls processed
    report: dict[str, tuple[float, str]]  # human-readable figures
    fingerprint: object  # outputs that must repeat exactly
    counts: dict[str, float]  # exact counts the traced trial must show


def _timed(fn, *args, **kwargs):
    """Result, CPU seconds and wall seconds of one call."""
    c0, w0 = time.process_time(), time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.process_time() - c0, time.perf_counter() - w0


def _check_losses(checks: Checks, losses, what: str) -> None:
    checks.expect(bool(np.all(np.isfinite(losses))), f"{what}: non-finite epoch loss")
    checks.expect(losses[-1] < losses[0], f"{what}: last epoch loss {losses[-1]} "
                  f"is not below the first {losses[0]}")


def _pines_scene(scale: Scale, seed: int, workdir: str):
    """Synthetic Pines-shaped scene, written to files and read back."""
    h, w, b, k = scale.pines
    cube, labels = dataset.generate_synthetic(numerics.create_rng(seed), h, w, b, k)
    cube_path = os.path.join(workdir, "pines.hcube")
    labels_path = os.path.join(workdir, "pines.hlbl")
    dataset.save_cube(cube, cube_path)
    dataset.save_labels(labels, labels_path)
    cube = dataset.load_cube(cube_path)
    labels = dataset.load_labels(labels_path)
    norm = dataset.normalize_cube(cube)
    train_idx, test_idx = dataset.stratified_split(labels, dataset.SplitSpec(FRACTION, seed))
    return norm, labels, train_idx, test_idx


def _model_config(scale: Scale) -> model.ModelConfig:
    _, _, bands, classes = scale.pines
    return model.ModelConfig(num_bands=bands, num_classes=classes)


def _forward_rows(rows: int) -> dict[str, float]:
    """Trace counts of `rows` pixels through every forward layer of the dual model."""
    counts = {
        "model.forward.rows": rows,
        "layers.conv1d_forward.conv.rows": rows,
        "layers.maxpool1d_forward.rows": rows,
        "layers.dropout.rows": rows,
    }
    for layer in ("fc", "coord1", "coord2", "head"):
        counts[f"layers.dense_forward.{layer}.rows"] = rows
    return counts


def _backward_rows(rows: int) -> dict[str, float]:
    counts = {
        "model.backward.rows": rows,
        "layers.conv1d_backward.conv.rows": rows,
        "layers.maxpool1d_backward.rows": rows,
    }
    for layer in ("fc", "coord1", "coord2", "head"):
        counts[f"layers.dense_backward.{layer}.rows"] = rows
    return counts


class PinesInfer:
    name = "pines-infer"

    def __init__(self, scale: Scale):
        self.scale = scale

    def describe(self, state) -> str:
        h, w, b, k = self.scale.pines
        return (f"scene {h}x{w}x{b}, {k} classes, {len(state['test'])} test pixels "
                f"then the {h}x{w} raster, dual model from build")

    def setup(self, seed: int, workdir: str):
        norm, labels, _, test_idx = _pines_scene(self.scale, seed, workdir)
        test_set = dataset.extract_samples(norm, labels, test_idx)
        h, w, b, _ = self.scale.pines
        rows, cols = np.divmod(np.arange(h * w), w)
        raster_coords = np.stack([rows / (h - 1), cols / (w - 1)], axis=1)
        net = model.build(_model_config(self.scale), numerics.create_rng(seed + 1))
        return {
            "seed": seed,
            "model": net,
            "test": test_set,
            "raster_features": norm.values.reshape(h * w, b),
            "raster_coords": raster_coords,
            "map_path": os.path.join(workdir, "pines_map.ppm"),
        }

    def trial(self, state) -> Trial:
        net, test = state["model"], state["test"]
        h, w, _, k = self.scale.pines
        w0, t0 = time.perf_counter(), time.process_time()
        preds = model.predict_many(net, test.features, test.coords)
        report = evaluation.metrics(evaluation.confusion(preds, test.labels, num_classes=k))
        t1 = time.process_time()
        raster = model.predict_many(
            net, state["raster_features"], state["raster_coords"]
        ).reshape(h, w)
        evaluation.render_map(raster, evaluation.default_palette(k), state["map_path"])
        t2, w2 = time.process_time(), time.perf_counter()
        pixels = len(test) + h * w
        return Trial(
            seconds=t2 - t0,
            wall_seconds=w2 - w0,
            items=pixels,
            report={
                "infer_pixels_per_s": (pixels / (t2 - t0), "px/s"),
                "us_per_pixel": ((t2 - t0) / pixels * 1e6, "us"),
                "test_set_s": (t1 - t0, "s"),
                "raster_s": (t2 - t1, "s"),
                "test_oa_pct": (100.0 * report.oa, "%"),
            },
            fingerprint=(preds.tobytes(), raster.tobytes()),
            counts={
                **_forward_rows(pixels),
                **_backward_rows(0),
                "model.predict_many.rows": pixels,
                "optimizer.adam_step.calls": 0,
                "optimizer.train.calls": 0,
                "evaluation.confusion.calls": 1,
                "evaluation.metrics.calls": 1,
                "evaluation.render_map.calls": 1,
            },
        )

    def check(self, checks: Checks, state, trial: Trial) -> None:
        _, _, _, k = self.scale.pines
        test = state["test"]
        preds = np.frombuffer(trial.fingerprint[0], dtype=np.int64)
        raster = np.frombuffer(trial.fingerprint[1], dtype=np.int64)
        for what, p in (("test-set", preds), ("raster", raster)):
            checks.expect(p.min() >= 1 and p.max() <= k, f"{what} predictions outside 1..{k}")
        w = self.scale.pines[1]
        checks.expect(
            np.array_equal(raster[test.rows * w + test.cols], preds),
            "raster disagrees with the test-set predictions at test pixels",
        )
        rng = numerics.create_rng(state["seed"] + 2)
        idx = rng.choice(len(raster), size=min(REFERENCE_PIXELS, len(raster)),
                         replace=False)
        net = state["model"]
        probs = reference_probs(net.parameters(), net.config.pool_width,
                                net.config.pool_stride, state["raster_features"][idx],
                                state["raster_coords"][idx])
        bad = mismatches(probs, raster[idx])
        checks.expect(bad == 0, f"{bad} of {len(idx)} sampled pixels disagree with "
                      "the reference forward")


ARTIFACTS = ("report.json", "model.ckpt", "map.ppm", "train_log.csv")


def _cli_main(argv) -> tuple[int, str]:
    """Exit code and captured stdout of one coordfuse command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class SmallRun:
    name = "small-run"

    def __init__(self, scale: Scale):
        self.scale = scale

    def describe(self, state) -> str:
        h, w, b, k = self.scale.small
        return (f"quickstart scene {h}x{w}x{b}, {k} classes, coordinate-separable, "
                f"cli run (dual + baseline, {self.scale.small_epochs} epochs) "
                f"then cli energy on the full {h}x{w} crop")

    def setup(self, seed: int, workdir: str):
        h, w, b, k = self.scale.small
        cube, labels = dataset.generate_synthetic(
            numerics.create_rng(seed), h, w, b, k, coordinate_separable=True
        )
        paths = {name: os.path.join(workdir, name)
                 for name in ("small.hcube", "small.hlbl", "config.json")}
        dataset.save_cube(cube, paths["small.hcube"])
        dataset.save_labels(labels, paths["small.hlbl"])
        config = {
            "cube": paths["small.hcube"],
            "labels": paths["small.hlbl"],
            "seed": seed,
            "train": {"max_epochs": self.scale.small_epochs},
        }
        with open(paths["config.json"], "w") as f:
            json.dump(config, f)
        return {"config": paths["config.json"], "workdir": workdir, "trials": 0}

    def trial(self, state) -> Trial:
        h, w, _, _ = self.scale.small
        state["trials"] += 1
        out_dir = os.path.join(state["workdir"], f"out{state['trials']}")
        config = ["--config", state["config"], "--out-dir", out_dir]
        (run_code, _), run_s, run_wall = _timed(_cli_main, ["run", *config])
        (energy_code, printed), energy_s, energy_wall = _timed(
            _cli_main, ["energy", *config, "--crop", f"0,0,{h},{w}"]
        )
        if run_code or energy_code:
            raise RuntimeError(f"coordfuse run exited {run_code}, energy {energy_code}")
        artifacts = {}
        for prefix in ("", "baseline_"):
            for name in ARTIFACTS:
                path = os.path.join(out_dir, prefix + name)
                with open(path, "rb") as f:
                    artifacts[prefix + name] = f.read()
                os.remove(path)
        os.rmdir(out_dir)
        energies = {}
        for line in printed.splitlines():
            key, _, value = line.partition("=")
            energies[key] = float(value)
        dual = json.loads(artifacts["report.json"])
        base = json.loads(artifacts["baseline_report.json"])
        n_train, n_test = sum(dual["train_counts"]), sum(dual["counts"])
        epochs = self.scale.small_epochs
        pixels = h * w
        steps = epochs * math.ceil(n_train / BATCH_SIZE)
        # Both models: train, test set, raster and energy crop; coord1 is dual only.
        dual_rows = n_train * epochs + n_test + 2 * pixels
        counts = {
            "model.forward.rows": 2 * dual_rows,
            "model.backward.rows": 2 * n_train * epochs,
            "layers.dense_forward.coord1.rows": dual_rows,
            "layers.dense_backward.coord1.rows": n_train * epochs,
            "optimizer.adam_step.calls": 2 * steps,
            "evaluation.dense_energy.calls": 2,
            "evaluation.dense_energy.pairs": 2 * pixels**2,
            "evaluation.render_map.calls": 2,
            "model.save_checkpoint.calls": 2,
            "model.load_checkpoint.calls": 2,
            "dataset.load_cube.calls": 2,
            "dataset.load_labels.calls": 1,
            "cli.cmd_run.calls": 1,
            "cli.cmd_energy.calls": 1,
            "cli.load_config.calls": 2,
        }
        return Trial(
            seconds=run_s + energy_s,
            wall_seconds=run_wall + energy_wall,
            items=pixels,
            report={
                "pixels_per_s": (pixels / (run_s + energy_s), "px/s"),
                "run_s": (run_s, "s"),
                "energy_s": (energy_s, "s"),
                "oa_gap_pts": (100.0 * (dual["oa"] - base["oa"]), "pts"),
            },
            fingerprint=(tuple(sorted(energies.items())), artifacts),
            counts=counts,
        )

    def check(self, checks: Checks, state, trial: Trial) -> None:
        energies, files = trial.fingerprint
        energies = dict(energies)
        checks.expect(
            {"baseline_energy", "dual_energy"} <= set(energies)
            and all(math.isfinite(v) for v in energies.values()),
            f"energies missing or not finite: {energies}",
        )
        k = self.scale.small[3]
        palette = evaluation.default_palette(k)[1:]
        for prefix in ("", "baseline_"):
            lines = files[prefix + "train_log.csv"].decode().splitlines()[1:]
            _check_losses(checks, [float(line.split(",")[1]) for line in lines],
                          f"{self.name} {prefix or 'dual_'}model")
            ppm = files[prefix + "map.ppm"]
            h, w, _, _ = self.scale.small
            rgb = np.frombuffer(ppm[-h * w * 3:], dtype=np.uint8).reshape(-1, 3)
            in_range = (rgb[:, None, :] == palette[None, :, :]).all(axis=2).any(axis=1)
            checks.expect(bool(in_range.all()),
                          f"{prefix}map.ppm holds a color outside classes 1..{k}")


WORKLOADS = {cls.name: cls for cls in (PinesInfer, SmallRun)}
