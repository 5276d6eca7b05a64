"""Command-line driver for the dual-branch land-cover experiments.

Subcommands:
  convert  CSV pixel dump -> binary cube + label rasters
  synth    generate a synthetic labeled cube
  run      ingest -> normalize -> split -> train -> evaluate -> render
  energy   fully connected pairwise energy of baseline vs dual-branch maps

`run` trains the dual-branch model and the spectral-only baseline from one
config and seed through `experiment`, which states how every random draw
derives from that seed; `--baseline-only` restricts it to the baseline.
Reruns with the same inputs write byte-identical outputs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from coordfuse.dataset import (
    DataCube,
    LabelMap,
    SplitSpec,
    coord_features,
    from_csv,
    generate_synthetic,
    load_cube,
    load_labels,
    normalize_cube,
    save_cube,
    save_labels,
    stratified_split,
)
from coordfuse.evaluation import (
    CrfParams,
    EvalReport,
    confusion,
    default_palette,
    dense_energy,
    metrics,
    render_map,
    write_report,
)
from coordfuse.model import (
    DualBranchModel,
    ModelConfig,
    build,
    forward_many,
    load_checkpoint,
    predict_many,
    save_checkpoint,
)
from coordfuse.numerics import atomic_write, create_rng, type_fields
from coordfuse.optimizer import NumericalError, TrainConfig, TrainHistory, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# The 145x145 Indian Pines frame, where `dense_energy` takes about 4 s per map
# on one core of a 2-core Xeon.
MAX_CROP_PIXELS = 145 * 145


class UsageError(Exception):
    """Bad arguments or a malformed/incomplete config file."""


def _parse(raw, cls, name: str | None, **run_set):
    """`cls(**raw, **run_set)` for the JSON object `raw` of config section
    `name` (None at the top level). An unknown key, a key in `run_set` and any
    value `cls` rejects raise UsageError; a TypeError gets the section prefix."""
    if not isinstance(raw, dict):
        raise UsageError(f"config section {name!r} must be an object")
    unknown = set(raw) - ({f.name for f in fields(cls)} - set(run_set))
    if unknown:
        where = f"keys in config section {name!r}" if name else "config keys"
        raise UsageError(f"unknown {where}: {sorted(unknown)}")
    try:
        return cls(**raw, **run_set)
    except TypeError as exc:
        raise UsageError(f"{name}.{exc}" if name else str(exc)) from exc
    except ValueError as exc:
        raise UsageError(f"bad config value: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: inputs, split, output directory and three sections. A
    dict given for `train` or `crf` becomes a `TrainConfig` or `CrfParams`;
    `model` stays a dict of the `ModelConfig` keys `run` does not set. Every
    field is typed and every check that needs no data runs when it is made
    (a `dataclasses.replace` copy too), and each fault raises UsageError."""

    cube: str
    labels: str
    fraction: float = 0.05
    seed: int = 0
    min_per_class: int = SplitSpec.min_per_class
    out_dir: str = "out"
    model: dict = field(default_factory=dict)
    train: TrainConfig = field(default_factory=TrainConfig)
    crf: CrfParams = field(default_factory=CrfParams)
    appearance_bands: list[int] = field(default_factory=lambda: [0, 1, 2])

    def __post_init__(self):
        for key, cls in (("train", TrainConfig), ("crf", CrfParams)):
            if not isinstance(getattr(self, key), cls):
                object.__setattr__(self, key, _parse(getattr(self, key), cls, key))
        try:
            type_fields(self)
            self.split  # SplitSpec checks the fraction and min_per_class
        except TypeError as exc:
            raise UsageError(str(exc)) from exc
        except ValueError as exc:
            raise UsageError(f"bad config value: {exc}") from exc
        for key in ("cube", "labels", "out_dir"):
            if not getattr(self, key):
                raise UsageError(f"{key} must not be an empty path")
        # The baseline trains with seed + 2, which must still be a 64-bit seed.
        if not 0 <= self.seed < 2**64 - 2:
            raise UsageError(f"seed must lie in [0, 2**64 - 2), got {self.seed}")
        if min(self.appearance_bands) < 0:
            raise UsageError("appearance_bands must list non-negative band indices")
        # `run` sets these per cube; a generous band count fails only a network
        # no cube fits. ModelConfig types each size before it checks the bands.
        k = self.model.get("kernel_len", ModelConfig.kernel_len)
        p = self.model.get("pool_width", ModelConfig.pool_width)
        bands = k + p + 8 if type(k) is type(p) is int else 1
        run_set = {"num_bands": bands, "num_classes": 2, "baseline": False}
        stand_in = _parse(self.model, ModelConfig, "model", **run_set)
        model = {key: v for key, v in asdict(stand_in).items() if key not in run_set}
        object.__setattr__(self, "model", model)

    @property
    def split(self) -> SplitSpec:
        return SplitSpec(self.fraction, self.seed, self.min_per_class)


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise UsageError(f"duplicate config key {key!r}")
        obj[key] = val
    return obj


def load_config(path) -> ExperimentConfig:
    """The `ExperimentConfig` in the JSON file at `path`. An unreadable file,
    malformed JSON, an unknown or repeated key, a value of the wrong type and
    any value `ExperimentConfig` rejects raise UsageError."""
    try:
        with open(path) as f:
            raw = json.load(f, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    # A JSONDecodeError, an integer literal too long to read, or nesting too deep.
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must be a JSON object")
    return _parse(raw, ExperimentConfig, None)


def _new_dirs(path) -> list[str]:
    """The directories of `path` that do not exist yet, deepest first. A
    `path`, or a parent of it, that exists but is no directory raises UsageError."""
    new, d = [], os.path.abspath(path)
    while not os.path.isdir(d):
        if os.path.lexists(d):
            raise UsageError(f"out_dir {path}: {d} is not a directory")
        new.append(d)
        d = os.path.dirname(d)
    return new


def _write_all(outputs: list, new_dirs=()) -> None:
    """Make `new_dirs`, as _new_dirs lists them, then call `write(value,
    path=path)` for each (write, value, path) of `outputs`; if a step raises,
    first remove the directories and files the earlier ones made."""
    made = []
    try:
        for d in reversed(new_dirs):
            os.mkdir(d)
            made.append((os.rmdir, d))
        for write, value, path in outputs:
            write(value, path=path)
            made.append((os.unlink, path))
    except BaseException:
        for remove, path in reversed(made):
            remove(path)
        raise


def _save_config(cfg: ExperimentConfig, path) -> None:
    with atomic_write(path, "w") as f:
        json.dump(asdict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_convert(args) -> int:
    cube, labels = from_csv(args.csv)
    _write_all([(save_cube, cube, args.cube), (save_labels, labels, args.labels)])
    print(
        f"wrote {cube.height}x{cube.width}x{cube.bands} cube to {args.cube}, "
        f"{labels.num_classes} classes to {args.labels}"
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = ExperimentConfig(cube=args.cube, labels=args.labels, seed=args.seed)  # checks seed
    rng = create_rng(args.seed)
    try:
        cube, labels = generate_synthetic(
            rng,
            args.height,
            args.width,
            args.bands,
            args.classes,
            noise=args.noise,
            overlap=args.overlap,
            coordinate_separable=args.coordinate_separable,
        )
        if args.emit_config:
            # Shrink the kernel when the cube is too narrow for the default.
            kernel = min(cfg.model["kernel_len"], cube.bands - cfg.model["pool_width"] + 1)
            model = {**cfg.model, "kernel_len": max(1, kernel)}
            bands = [b for b in cfg.appearance_bands if b < cube.bands]
            cfg = replace(cfg, appearance_bands=bands, model=model)
            # Run's own checks, so no file is written for a config run rejects.
            ModelConfig(num_bands=cube.bands, num_classes=labels.num_classes, **cfg.model)
            stratified_split(labels, cfg.split)
    except ValueError as exc:  # every one is a bad argument
        raise UsageError(str(exc)) from exc
    outputs = [(save_cube, cube, args.cube), (save_labels, labels, args.labels)]
    if args.emit_config:
        outputs.append((_save_config, cfg, args.emit_config))
    _write_all(outputs)
    print(
        f"wrote synthetic {cube.height}x{cube.width}x{cube.bands} cube "
        f"with {labels.num_classes} classes"
    )
    if args.emit_config:
        print(f"wrote config to {args.emit_config}")
    return EXIT_OK


class ModelRun(NamedTuple):
    """One model of an `experiment` and what it predicted: `preds` for the
    test pixels, in the split's order, and `raster` for every pixel, (H, W)."""

    model: DualBranchModel
    history: TrainHistory
    report: EvalReport
    preds: np.ndarray
    raster: np.ndarray


def experiment(cube: DataCube, labels: LabelMap, split: SplitSpec, model: dict,
               train_cfg: TrainConfig, baseline_only: bool = False) -> tuple[np.ndarray, dict]:
    """Split the labeled pixels of the normalized `cube`, then train and score
    the dual-branch model and the spectral baseline (or the baseline alone).
    `model` holds the `ModelConfig` keys the data does not fix. Returns the
    per-class training counts and a dict of `ModelRun`s, "dual" before
    "baseline". The seed rule: `split.seed` is the experiment's seed, the
    split draws with it, and each model builds and trains from one rng, seeded
    with `split.seed + 1` for the dual-branch model and `split.seed + 2` for
    the baseline. Rasters of different sizes, or fewer than 2 classes, raise
    ValueError."""
    if (cube.height, cube.width) != (labels.height, labels.width):
        raise ValueError(
            f"cube is {cube.height}x{cube.width} but labels are "
            f"{labels.height}x{labels.width}"
        )
    k = labels.num_classes
    if k < 2:
        raise ValueError(f"need at least 2 classes, found {k}")

    # Every pixel is a row of the raster arrays; the split picks rows of them.
    h, w = cube.height, cube.width
    raster_features = cube.values.reshape(h * w, cube.bands)
    raster_coords = coord_features(h, w).reshape(h * w, 2)
    truth = labels.labels.reshape(h * w)
    train_px, test_px = stratified_split(labels, split)
    train_counts = np.bincount(truth[train_px], minlength=k + 1)[1:]

    runs = {}
    for name, baseline, offset in (("dual", False, 1), ("baseline", True, 2))[baseline_only:]:
        rng = create_rng(split.seed + offset)
        net = build(ModelConfig(cube.bands, k, baseline=baseline, **model), rng)
        history = train(
            net, raster_features[train_px], raster_coords[train_px], truth[train_px],
            train_cfg, rng
        )
        preds = predict_many(net, raster_features[test_px], raster_coords[test_px])
        report = metrics(confusion(preds, truth[test_px], num_classes=k))
        raster = predict_many(net, raster_features, raster_coords).reshape(h, w)
        runs[name] = ModelRun(net, history, report, preds, raster)
    return train_counts, runs


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out_dir is not None:
        cfg = replace(cfg, out_dir=args.out_dir)
    _new_dirs(cfg.out_dir)  # a file in its place fails before any work

    cube = normalize_cube(load_cube(cfg.cube))  # drops the raw cube: a run holds one
    labels = load_labels(cfg.labels)
    train_counts, runs = experiment(cube, labels, cfg.split, cfg.model, cfg.train,
                                    args.baseline_only)

    # Both models trained before anything is written, so a failed run leaves no output.
    palette = default_palette(labels.num_classes)
    outputs, lines = [], []
    for name, (model, history, report, _, raster) in runs.items():
        stem = os.path.join(cfg.out_dir, "" if name == "dual" else "baseline_")
        outputs += [
            (partial(write_report, train_counts=train_counts), report, stem + "report.json"),
            (partial(render_map, palette=palette), raster, stem + "map.ppm"),
            (save_checkpoint, model, stem + "model.ckpt"),
            (TrainHistory.to_csv, history, stem + "train_log.csv"),
        ]
        lines.append(f"{name}: oa={report.oa:.4f} aa={report.aa:.4f} kappa={report.kappa:.4f}")
    _write_all(outputs, _new_dirs(cfg.out_dir))
    print("\n".join(lines))
    return EXIT_OK


def _parse_crop(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"crop must be 'row,col,height,width', got {text!r}")
    try:
        r, c, h, w = (int(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"crop fields must be integers: {text!r}") from exc
    if r < 0 or c < 0 or h < 1 or w < 1:
        raise UsageError(f"crop out of range: {text!r}")
    if h * w > MAX_CROP_PIXELS:
        raise UsageError(f"crop covers {h * w} pixels, limit is {MAX_CROP_PIXELS}")
    return r, c, h, w


def cmd_energy(args) -> int:
    cfg = load_config(args.config)
    if args.out_dir is not None:
        cfg = replace(cfg, out_dir=args.out_dir)
    crop = _parse_crop(args.crop)

    cube = load_cube(cfg.cube)
    r0, c0, ch, cw = crop
    if r0 + ch > cube.height or c0 + cw > cube.width:
        raise UsageError(
            f"crop {crop} exceeds the {cube.height}x{cube.width} image"
        )
    if max(cfg.appearance_bands) >= cube.bands:
        raise ValueError(
            f"appearance_bands {cfg.appearance_bands} out of range for "
            f"{cube.bands} bands"
        )
    cube = normalize_cube(cube)  # drops the raw cube
    window = cube.values[r0 : r0 + ch, c0 : c0 + cw]
    appearance = window[:, :, cfg.appearance_bands]
    crop_features = window.reshape(ch * cw, cube.bands)
    # Coordinates stay in the full-image frame: the crop is cut from their
    # raster as from the cube.
    grid = coord_features(cube.height, cube.width)
    crop_coords = grid[r0 : r0 + ch, c0 : c0 + cw].reshape(ch * cw, 2)

    dual_path = args.dual_ckpt or os.path.join(cfg.out_dir, "model.ckpt")
    base_path = args.baseline_ckpt or os.path.join(cfg.out_dir, "baseline_model.ckpt")
    # Both checkpoints are checked before either O(N^2) energy is computed.
    models = {}
    for name, path in (("baseline", base_path), ("dual", dual_path)):
        model = models[name] = load_checkpoint(path)
        if model.config.baseline != (name == "baseline"):
            kind = "baseline" if model.config.baseline else "dual"
            raise ValueError(f"{path} holds a {kind} model, not the {name} model")
        if model.config.num_bands != cube.bands:
            raise ValueError(
                f"{path} expects {model.config.num_bands} bands, cube has {cube.bands}"
            )
    energies = {}
    for name, model in models.items():
        probs = forward_many(model, crop_features, crop_coords)
        labeling = (np.argmax(probs, axis=1) + 1).reshape(ch, cw)
        probmap = probs.reshape(ch, cw, -1)
        energies[name] = dense_energy(labeling, probmap, appearance, cfg.crf)

    print(f"baseline_energy={energies['baseline']:.6f}")
    print(f"dual_energy={energies['dual']:.6f}")
    print(f"difference={energies['baseline'] - energies['dual']:.6f}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep usage errors at 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coordfuse",
        description="Per-pixel land-cover classification with coordinate fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="CSV pixel dump to binary cube + labels")
    p.add_argument("csv", help="input CSV: row,col,label,b0..bN")
    p.add_argument("cube", help="output cube path")
    p.add_argument("labels", help="output label raster path")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("synth", help="generate a synthetic labeled cube")
    p.add_argument("cube", help="output cube path")
    p.add_argument("labels", help="output label raster path")
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--bands", type=int, default=30)
    p.add_argument("--classes", type=int, default=6)
    synth_defaults = inspect.signature(generate_synthetic).parameters
    p.add_argument("--noise", type=float, default=synth_defaults["noise"].default)
    p.add_argument("--overlap", type=float, default=synth_defaults["overlap"].default)
    p.add_argument(
        "--coordinate-separable",
        action="store_true",
        help="give the two largest regions identical spectra",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-config", help="also write a full experiment config here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="train and evaluate from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out-dir", default=None, help="override config output directory")
    p.add_argument(
        "--baseline-only",
        action="store_true",
        help="train only the spectral baseline",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("energy", help="pairwise energy of baseline vs dual maps")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--crop", required=True, help=f"row,col,height,width (<= {MAX_CROP_PIXELS} px)"
    )
    p.add_argument("--dual-ckpt", default=None, help="default: OUT_DIR/model.ckpt")
    p.add_argument(
        "--baseline-ckpt", default=None, help="default: OUT_DIR/baseline_model.ckpt"
    )
    p.add_argument("--out-dir", default=None, help="override config output directory")
    p.set_defaults(func=cmd_energy)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
