"""Command-line driver for the dual-branch land-cover experiments.

Subcommands:
  convert  CSV pixel dump -> binary cube + label rasters
  synth    generate a synthetic labeled cube
  run      ingest -> normalize -> split -> train -> evaluate -> render
  energy   fully connected pairwise energy of baseline vs dual-branch maps

`run` trains the dual-branch model and the spectral-only baseline from one
config and seed; `--baseline-only` restricts it to the baseline. All the
randomness derives from the single top-level seed: the split uses `seed`,
the dual-branch model `seed + 1`, the baseline `seed + 2`, so reruns with
the same inputs write byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from coordfuse.dataset import (
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
from coordfuse.evaluation import (
    CrfParams,
    confusion,
    default_palette,
    dense_energy,
    metrics,
    render_map,
    write_report,
)
from coordfuse.model import (
    ModelConfig,
    build,
    forward_many,
    load_checkpoint,
    predict_many,
    save_checkpoint,
)
from coordfuse.numerics import create_rng, typed
from coordfuse.optimizer import NumericalError, TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

MAX_CROP_PIXELS = 64 * 64


class UsageError(Exception):
    """Bad arguments or a malformed/incomplete config file."""


# Section fields that `run` sets per model rather than reading from the config.
_RUN_SET_FIELDS = ("num_bands", "num_classes", "baseline")


def _defaults(cls) -> dict:
    """The config keys of a hyperparameter dataclass, with its defaults."""
    return {f.name: f.default for f in fields(cls) if f.name not in _RUN_SET_FIELDS}


def _section(cls):
    """A config section holding the keys of `cls`, defaulting to its defaults."""
    return field(default_factory=lambda: _defaults(cls), metadata={"section": cls})


@dataclass
class ExperimentConfig:
    cube: str
    labels: str
    fraction: float = 0.05
    seed: int = 0
    min_per_class: int = 2
    out_dir: str = "out"
    model: dict = _section(ModelConfig)
    train: dict = _section(TrainConfig)
    crf: dict = _section(CrfParams)
    appearance_bands: list[int] = field(default_factory=lambda: [0, 1, 2])

    def model_config(self, num_bands: int, num_classes: int, baseline: bool) -> ModelConfig:
        return ModelConfig(
            num_bands=num_bands, num_classes=num_classes, baseline=baseline, **self.model
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self.train)

    def crf_params(self) -> CrfParams:
        return CrfParams(**self.crf)


def _merge_section(raw, cls, name: str) -> dict:
    if not isinstance(raw, dict):
        raise UsageError(f"config section {name!r} must be an object")
    merged = _defaults(cls)
    unknown = set(raw) - set(merged)
    if unknown:
        raise UsageError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    hints = get_type_hints(cls)
    for key, val in raw.items():
        merged[key] = typed(f"{name}.{key}", val, hints[key])
    return merged


def _check_seed(seed: int) -> None:
    # The baseline trains with seed + 2, which must still be a 64-bit seed.
    if not 0 <= seed < 2**64 - 2:
        raise UsageError(f"seed must lie in [0, 2**64 - 2), got {seed}")


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate an experiment config; unknown keys are errors."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must be a JSON object")
    top = {f.name: f for f in fields(ExperimentConfig)}
    unknown = set(raw) - set(top)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    hints = get_type_hints(ExperimentConfig)
    values = {}
    try:
        for key, f in top.items():
            if key in raw:
                section = f.metadata.get("section")
                if section:
                    values[key] = _merge_section(raw[key], section, key)
                else:
                    values[key] = typed(key, raw[key], hints[key])
            elif f.default is MISSING and f.default_factory is MISSING:
                raise UsageError(f"config must set {key!r}")
    except TypeError as exc:  # a value of the wrong type, from numerics.typed
        raise UsageError(str(exc)) from exc
    cfg = ExperimentConfig(**values)

    if not 0.0 < cfg.fraction < 1.0:
        raise UsageError(f"fraction must lie in (0, 1), got {cfg.fraction}")
    _check_seed(cfg.seed)
    if cfg.min_per_class < 0:
        raise UsageError(f"min_per_class must be non-negative, got {cfg.min_per_class}")
    if min(cfg.appearance_bands) < 0:
        raise UsageError("appearance_bands must be non-negative band indices")
    # Fail on bad hyperparameter values now, not mid-run. The dummy band
    # count is generous so only data-independent problems trip here.
    try:
        cfg.train_config().validate()
        cfg.crf_params().validate()
        dummy_bands = cfg.model["kernel_len"] + cfg.model["pool_width"] + 8
        cfg.model_config(num_bands=dummy_bands, num_classes=2, baseline=False).validate()
    except ValueError as exc:
        raise UsageError(f"bad config value: {exc}") from exc
    return cfg


def cmd_convert(args) -> int:
    cube, labels = from_csv(args.csv)
    save_cube(cube, args.cube)
    save_labels(labels, args.labels)
    print(
        f"wrote {cube.height}x{cube.width}x{cube.bands} cube to {args.cube}, "
        f"{labels.num_classes} classes to {args.labels}"
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    _check_seed(args.seed)
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
            cfg = ExperimentConfig(cube=args.cube, labels=args.labels, seed=args.seed)
            cfg.appearance_bands = [b for b in cfg.appearance_bands if b < cube.bands]
            # Shrink the kernel when the cube is too narrow for the default.
            max_kernel = cube.bands - cfg.model["pool_width"] + 1
            cfg.model["kernel_len"] = max(1, min(cfg.model["kernel_len"], max_kernel))
            # Run's own checks, so no file is written for a config run rejects.
            cfg.model_config(cube.bands, labels.num_classes, False).validate()
            stratified_split(labels, SplitSpec(cfg.fraction, cfg.seed, cfg.min_per_class))
    except ValueError as exc:  # every one is a bad argument
        raise UsageError(str(exc)) from exc
    save_cube(cube, args.cube)
    save_labels(labels, args.labels)
    print(
        f"wrote synthetic {cube.height}x{cube.width}x{cube.bands} cube "
        f"with {labels.num_classes} classes"
    )
    if args.emit_config:
        with open(args.emit_config, "w", newline="") as f:
            json.dump(asdict(cfg), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote config to {args.emit_config}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        _check_seed(args.seed)
        cfg.seed = args.seed
    if args.out_dir is not None:
        cfg.out_dir = args.out_dir

    cube = load_cube(cfg.cube)
    labels = load_labels(cfg.labels)
    if (cube.height, cube.width) != (labels.height, labels.width):
        raise ValueError(
            f"cube is {cube.height}x{cube.width} but labels are "
            f"{labels.height}x{labels.width}"
        )
    k = labels.num_classes
    if k < 2:
        raise ValueError(f"need at least 2 classes, found {k}")
    cube = normalize_cube(cube)  # drops the raw cube: a run holds one

    spec = SplitSpec(fraction=cfg.fraction, seed=cfg.seed, min_per_class=cfg.min_per_class)
    train_idx, test_idx = stratified_split(labels, spec)
    train_set = extract_samples(cube, labels, train_idx)
    test_set = extract_samples(cube, labels, test_idx)
    train_counts = np.bincount(train_set.labels, minlength=k + 1)[1:]
    h, w = cube.height, cube.width
    raster_features = cube.values.reshape(h * w, cube.bands)
    raster_coords = coord_features(*np.indices((h, w)), h, w).reshape(h * w, 2)

    os.makedirs(cfg.out_dir, exist_ok=True)
    palette = default_palette(k)
    jobs = []
    if not args.baseline_only:
        jobs.append(("dual", "", False, cfg.seed + 1))
    jobs.append(("baseline", "baseline_", True, cfg.seed + 2))

    for name, prefix, is_baseline, seed in jobs:
        rng = create_rng(seed)
        model = build(cfg.model_config(cube.bands, k, is_baseline), rng)
        history = train(
            model,
            train_set.features,
            train_set.coords,
            train_set.labels,
            cfg.train_config(),
            rng,
        )
        preds = predict_many(model, test_set.features, test_set.coords)
        report = metrics(confusion(preds, test_set.labels, num_classes=k))
        write_report(
            report,
            os.path.join(cfg.out_dir, prefix + "report.json"),
            train_counts=train_counts,
        )
        render_map(
            predict_many(model, raster_features, raster_coords).reshape(h, w),
            palette,
            os.path.join(cfg.out_dir, prefix + "map.ppm"),
        )
        save_checkpoint(model, os.path.join(cfg.out_dir, prefix + "model.ckpt"))
        history.to_csv(os.path.join(cfg.out_dir, prefix + "train_log.csv"))
        print(f"{name}: oa={report.oa:.4f} aa={report.aa:.4f} kappa={report.kappa:.4f}")
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
        cfg.out_dir = args.out_dir
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
    # Coordinates stay in the full-image frame.
    rows, cols = np.indices((ch, cw))
    crop_coords = coord_features(r0 + rows, c0 + cols, cube.height, cube.width)
    crop_coords = crop_coords.reshape(ch * cw, 2)

    dual_path = args.dual_ckpt or os.path.join(cfg.out_dir, "model.ckpt")
    base_path = args.baseline_ckpt or os.path.join(cfg.out_dir, "baseline_model.ckpt")
    energies = {}
    params = cfg.crf_params()
    for name, path in (("baseline", base_path), ("dual", dual_path)):
        model = load_checkpoint(path)
        if model.config.num_bands != cube.bands:
            raise ValueError(
                f"{path} expects {model.config.num_bands} bands, cube has {cube.bands}"
            )
        probs = forward_many(model, crop_features, crop_coords)
        labeling = (np.argmax(probs, axis=1) + 1).reshape(ch, cw)
        probmap = probs.reshape(ch, cw, -1)
        energies[name] = dense_energy(labeling, probmap, appearance, params)

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
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--overlap", type=float, default=0.0)
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
    p.add_argument("--crop", required=True, help="row,col,height,width (<= 4096 px)")
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
    except (ValueError, KeyError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
