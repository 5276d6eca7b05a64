import dataclasses
import hashlib
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from coordfuse import cli as cli_module
from coordfuse.cli import (
    MAX_CROP_PIXELS,
    ExperimentConfig,
    UsageError,
    _parse_crop,
    experiment,
    load_config,
    main,
)
from coordfuse.dataset import (
    DataCube,
    LabelMap,
    SplitSpec,
    load_cube,
    load_labels,
    normalize_cube,
    save_cube,
    save_labels,
)
from coordfuse.evaluation import (
    CrfParams,
    default_palette,
    dense_energy,
    render_map,
    write_report,
)
from coordfuse.model import ModelConfig, NetworkConfig, load_checkpoint, save_checkpoint
from coordfuse.numerics import create_rng
from coordfuse.optimizer import NumericalError, TrainConfig, train


README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(path, cube, labels, **overrides):
    cfg = {
        "cube": str(cube),
        "labels": str(labels),
        "fraction": 0.2,
        "seed": 0,
        "out_dir": str(path.parent / "out"),
        "model": {
            "conv_filters": 4,
            "kernel_len": 5,
            "dense_width": 16,
            "coord_hidden": 16,
        },
        "train": {"max_epochs": 6, "batch_size": 16},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def tiny_experiment(tmp_path_factory):
    """One fully trained tiny run shared by the CLI assertions below."""
    root = tmp_path_factory.mktemp("tiny")
    cube = root / "cube.hcube"
    labels = root / "labels.hlbl"
    rc = main(
        [
            "synth", str(cube), str(labels),
            "--height", "12", "--width", "12", "--bands", "8",
            "--classes", "3", "--seed", "4",
        ]
    )
    assert rc == 0
    config = write_config(root / "cfg.json", cube, labels)
    out = root / "out"
    rc = main(["run", "--config", str(config), "--out-dir", str(out)])
    assert rc == 0
    return {"root": root, "cube": cube, "labels": labels, "config": config, "out": out}


def test_load_config_defaults(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"cube": "a.hcube", "labels": "a.hlbl"}')
    cfg = load_config(path)
    assert cfg.fraction == 0.05
    assert cfg.seed == 0
    assert cfg.model.conv_filters == 20
    assert cfg.model.keep_prob == 0.75
    assert cfg.train.max_epochs == 500
    assert cfg.train.batch_size == 64
    assert cfg.crf.theta_alpha == 8.0
    assert cfg.appearance_bands == (0, 1, 2)


@pytest.mark.parametrize(
    "body,message",
    [
        ('{"labels": "a"}', "cube"),
        ('{"cube": "a", "labels": "b", "typo": 1}', "unknown config keys"),
        ('{"cube": "a", "labels": "b", "train": {"seed": 3}}', "unknown keys"),
        ('{"cube": "a", "labels": "b", "fraction": 1.5}', "fraction"),
        ('{"cube": "a", "labels": "b", "train": {"batch_size": 2.5}}', "integer"),
        ('{"cube": "a", "labels": "b", "train": {"batch_size": true}}', "number"),
        ('{"cube": "a", "labels": "b", "model": {"keep_prob": 2.0}}', "keep_prob"),
        ('{"cube": "a", "labels": "b", "crf": {"theta_alpha": -1}}', "theta_alpha"),
        # 2 theta^2 overflows, or underflows to 0 or to a subnormal.
        ('{"cube": "a", "labels": "b", "crf": {"theta_alpha": 1e200}}', "theta_alpha"),
        ('{"cube": "a", "labels": "b", "crf": {"theta_beta": 1e-200}}', "theta_beta"),
        ('{"cube": "a", "labels": "b", "crf": {"theta_gamma": 1e-154}}', "theta_gamma"),
        # An integer beyond the float64 range is no number, not a traceback.
        ('{"cube": "a", "labels": "b", "crf": {"theta_alpha": 1%s}}' % ("0" * 400),
         "theta_alpha"),
        # json raises a plain ValueError for an integer literal over 4300 digits.
        pytest.param(
            '{"cube": "a", "labels": "b", "crf": {"theta_alpha": 1%s}}' % ("0" * 5000),
            "JSON",
            id="integer-literal-over-4300-digits",
        ),
        ('{"cube": "a", "labels": "b", "appearance_bands": []}', "appearance_bands"),
        ('{"cube": "a", "labels": "b", "train": {"learning_rate": -1}}', "learning rate"),
        ("[1, 2]", "object"),
        ("{not json", "JSON"),
        pytest.param("[" * 200_000, "JSON", id="nesting-too-deep-to-parse"),
        # json keeps the last of two equal keys, which would drop 'max_epochs'.
        ('{"cube": "a", "labels": "b", "train": {"max_epochs": 3}, "train": {}}',
         "duplicate config key 'train'"),
        ('{"cube": "", "labels": "b"}', "cube must not be an empty path"),
        ('{"cube": "a", "labels": ""}', "labels must not be an empty path"),
        ('{"cube": "a", "labels": "b", "out_dir": ""}', "out_dir must not be an empty path"),
        ('{"cube": "a", "labels": "b", "seed": 1.7}', "seed"),
        ('{"cube": "a", "labels": "b", "seed": "3"}', "seed"),
        ('{"cube": "a", "labels": "b", "seed": true}', "seed"),
        ('{"cube": "a", "labels": "b", "seed": -1}', "seed"),
        ('{"cube": "a", "labels": "b", "seed": 18446744073709551615}', "seed"),
        ('{"cube": "a", "labels": "b", "seed": 18446744073709551614}', "seed"),
        ('{"cube": "a", "labels": "b", "fraction": "0.2"}', "fraction"),
        ('{"cube": "a", "labels": "b", "fraction": true}', "fraction"),
        ('{"cube": "a", "labels": "b", "out_dir": 5}', "out_dir"),
        ('{"cube": "a", "labels": "b", "appearance_bands": [1.9]}', "appearance_bands"),
        ('{"cube": "a", "labels": "b", "appearance_bands": [true]}', "appearance_bands"),
        ('{"cube": "a", "labels": "b", "appearance_bands": [-1]}', "appearance_bands"),
        ('{"cube": "a", "labels": "b", "appearance_bands": 0}', "appearance_bands"),
        ('{"cube": "a", "labels": "b", "min_per_class": 1.5}', "min_per_class"),
        ('{"cube": "a", "labels": "b", "min_per_class": -1}', "min_per_class"),
        ('{"cube": 5, "labels": "b"}', "cube"),
        ('{"cube": "a", "labels": "b", "model": []}', "model"),
        ('{"cube": "a", "labels": "b", "train": []}', "section 'train' must be an object"),
        ('{"cube": "a", "labels": "b", "crf": 3}', "section 'crf' must be an object"),
        ('{"cube": "a", "labels": "b", "crf": {"typo": 1}}',
         "unknown keys in config section 'crf'"),
        # `run` sets the per-run fields itself; the config may not.
        *(
            (f'{{"cube": "a", "labels": "b", "model": {{"{key}": {value}}}}}',
             "unknown keys in config section 'model'")
            for key, value in (("num_bands", 5), ("num_classes", 5), ("baseline", "true"))
        ),
        # A bad width is named as written, not through a network sized to a cube.
        ('{"cube": "a", "labels": "b", "model": {"conv_filters": 0}}',
         r"^(?!.*num_bands).*conv_filters must be positive, got 0$"),
        # A layer this wide needs terabytes: rejected before any data is read.
        *(
            (f'{{"cube": "a", "labels": "b", "model": {{"{key}": 1000000000}}}}', "parameters")
            for key in ("dense_width", "conv_filters", "coord_hidden")
        ),
        # Python's json reads the non-standard literals Infinity and NaN.
        *(
            (f'{{"cube": "a", "labels": "b", "{section}": {{"{key}": {literal}}}}}', message)
            for section, key, message in [
                ("train", "learning_rate", "learning rate"),
                ("train", "epsilon", "epsilon"),
                ("train", "beta1", "betas"),
                ("train", "beta2", "betas"),
                ("crf", "w1", "w1"),
                ("crf", "w2", "w2"),
                ("crf", "theta_alpha", "theta_alpha"),
                ("crf", "theta_beta", "theta_beta"),
                ("crf", "theta_gamma", "theta_gamma"),
            ]
            for literal in ("Infinity", "-Infinity", "NaN")
        ),
    ],
)
def test_load_config_rejects(tmp_path, body, message):
    path = tmp_path / "c.json"
    path.write_text(body)
    with pytest.raises(UsageError, match=message):
        load_config(path)


@pytest.mark.parametrize(
    "config",
    [NetworkConfig(), ModelConfig(num_bands=16, num_classes=3), TrainConfig(), CrfParams(),
     SplitSpec(0.05), ExperimentConfig(cube="a", labels="b")],
    ids=lambda config: type(config).__name__,
)
def test_config_objects_are_frozen(config):
    name = dataclasses.fields(config)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, getattr(config, name))
    assert not hasattr(config, "validate")


def test_a_bad_config_object_cannot_be_made():
    with pytest.raises(ValueError, match="betas"):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValueError, match="min_per_class"):
        SplitSpec(0.05, min_per_class=-1)
    with pytest.raises(UsageError, match=r"train\.learning_rate must be a number, got 'x'"):
        ExperimentConfig(cube="a", labels="b", train={"learning_rate": "x"})


# One value of each JSON kind; a field is given every one its type does not accept.
WRONG_KINDS = {"str": "x", "bool": True, "float": 1.5, "list": [1], "dict": {}, "None": None}
CONFIG_CLASSES = {
    NetworkConfig: {},
    ModelConfig: {"num_bands": 16, "num_classes": 3},
    TrainConfig: {},
    CrfParams: {},
    SplitSpec: {"fraction": 0.05},
    ExperimentConfig: {"cube": "a", "labels": "b"},
}


def _mistyped(cls):
    """(field, wrong value, label) for each field of config class `cls`."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kind = typing.get_origin(hints[f.name]) or hints[f.name]
        kind = dict if dataclasses.is_dataclass(kind) else kind  # a section given as an object
        kind = list if kind is tuple else kind  # a tuple given as a JSON list
        for label, value in WRONG_KINDS.items():
            if type(value) is not kind:
                yield f.name, value, f"{cls.__name__}.{f.name}-{label}"


@pytest.mark.parametrize(
    "cls, name, value",
    [pytest.param(cls, name, value, id=label)
     for cls in CONFIG_CLASSES for name, value, label in _mistyped(cls)],
)
def test_a_mistyped_config_field_is_named(cls, name, value):
    error = UsageError if cls is ExperimentConfig else TypeError
    with pytest.raises(error, match=name):
        cls(**{**CONFIG_CLASSES[cls], name: value})


@pytest.mark.parametrize(
    "section, name, value",
    [pytest.param(section, name, value, id=f"{section or 'top'}:{label}")
     for section, cls in [(None, ExperimentConfig), ("model", ModelConfig),
                          ("train", TrainConfig), ("crf", CrfParams)]
     for name, value, label in _mistyped(cls)],
)
def test_load_config_names_a_mistyped_field(tmp_path, section, name, value):
    raw = {"cube": "a", "labels": "b"}
    if section:
        raw[section] = {name: value}
    else:
        raw[name] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    message = name
    # A cube's sizes are ModelConfig fields but no key of the section, whatever their type.
    if section == "model" and name not in {f.name for f in dataclasses.fields(NetworkConfig)}:
        message = rf"^unknown keys in config section 'model': \['{name}'\]$"
    with pytest.raises(UsageError, match=message):
        load_config(path)


def test_experiment_config_completes_its_sections():
    defaults = ExperimentConfig(cube="a", labels="b")
    cfg = ExperimentConfig(cube="a", labels="b", model={"dense_width": 5}, crf={"w1": 2})
    assert cfg.model == dataclasses.replace(defaults.model, dense_width=5)
    assert cfg.crf == CrfParams(w1=2.0) and isinstance(cfg.crf.w1, float)
    assert cfg.train == defaults.train == TrainConfig()
    assert dataclasses.replace(cfg, model={"kernel_len": 3}).model.dense_width == 100
    assert dataclasses.replace(cfg, train={"max_epochs": 3}).train == TrainConfig(max_epochs=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.train.max_epochs = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.model.dense_width = 3
    with pytest.raises(TypeError):
        cfg.appearance_bands[0] = -1


def test_a_model_config_is_no_model_section():
    # A ModelConfig is a NetworkConfig that also holds a cube's sizes, which a
    # config may not set.
    with pytest.raises(UsageError, match="section 'model'"):
        ExperimentConfig(cube="a", labels="b", model=ModelConfig(num_bands=16, num_classes=3))
    net = NetworkConfig(kernel_len=3)
    assert ExperimentConfig(cube="a", labels="b", model=net).model is net
    assert net.fit(16, 3) == ModelConfig(kernel_len=3, num_bands=16, num_classes=3)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(UsageError):
        load_config(tmp_path / "nope.json")


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert main(["run"]) == 1  # --config is required
    bad = tmp_path / "bad.json"
    bad.write_text('{"cube": "a"}')
    assert main(["run", "--config", str(bad)]) == 1
    assert "usage error" in capsys.readouterr().err


def test_convert_round_trip(tmp_path, capsys):
    csv = tmp_path / "p.csv"
    csv.write_text("0,0,1,0.5,0.1\n0,1,2,0.25,0.9\n1,0,0,0.0,0.0\n1,1,1,1.0,0.5\n")
    cube_path = tmp_path / "c.hcube"
    labels_path = tmp_path / "l.hlbl"
    assert main(["convert", str(csv), str(cube_path), str(labels_path)]) == 0
    cube = load_cube(cube_path)
    labels = load_labels(labels_path)
    assert cube.values.shape == (2, 2, 2)
    assert labels.labels[0, 1] == 2
    assert labels.labels[1, 0] == 0
    assert np.allclose(cube.values[0, 0], [0.5, 0.1])


def test_convert_duplicate_pixel_exits_2(tmp_path, capsys):
    csv = tmp_path / "p.csv"
    csv.write_text("0,0,1,0.5\n0,0,1,0.6\n")
    rc = main(["convert", str(csv), str(tmp_path / "c"), str(tmp_path / "l")])
    assert rc == 2
    assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body,message",
    [
        ("0,0,1,0.5\n0,1,70000,0.25\n", ":2: label 70000 exceeds the u16 range"),
        ("1000000000,1000000000,2,0.25\n", "grid exceeds 4294967296 values"),
    ],
)
def test_convert_rejects_before_writing(tmp_path, capsys, body, message):
    csv = tmp_path / "p.csv"
    csv.write_text(body)
    cube_path, labels_path = tmp_path / "c.hcube", tmp_path / "l.hlbl"
    assert main(["convert", str(csv), str(cube_path), str(labels_path)]) == 2
    assert message in capsys.readouterr().err
    assert not cube_path.exists() and not labels_path.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["synth", "a.hcube", "a.hlbl", "--height", "12", "--width", "12", "--bands", "12",
         "--classes", "3", "--emit-config", "nodir/cfg.json"],
        ["synth", "a.hcube", "nodir/a.hlbl", "--height", "12", "--width", "12"],
        ["convert", "t.csv", "d.hcube", "nodir/d.hlbl"],
    ],
    ids=["synth-config", "synth-labels", "convert-labels"],
)
def test_a_failed_write_leaves_no_output(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("0,0,1,0.5\n0,1,2,0.25\n")
    assert main(command) == 2
    assert "data error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_a_failed_write_keeps_an_output_it_did_not_reach(tmp_path):
    csv, labels_path = tmp_path / "t.csv", tmp_path / "l.hlbl"
    csv.write_text("0,0,1,0.5\n")
    labels_path.write_bytes(b"old")
    cube_path = tmp_path / "nodir" / "c.hcube"
    assert main(["convert", str(csv), str(cube_path), str(labels_path)]) == 2
    assert labels_path.read_bytes() == b"old"


def test_convert_missing_csv_exits_2(tmp_path):
    rc = main(["convert", str(tmp_path / "no.csv"), "c", "l"])
    assert rc == 2


def test_run_corrupt_cube_exits_2(tmp_path, capsys):
    cube = tmp_path / "c.hcube"
    cube.write_bytes(b"JUNKJUNKJUNK")
    labels = tmp_path / "l.hlbl"
    labels.write_bytes(b"JUNK")
    config = write_config(tmp_path / "cfg.json", cube, labels)
    assert main(["run", "--config", str(config)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "label_rows, message",
    [([1, 1, 3, 3, 4, 4], "class ids must be contiguous 1..4; missing ids: 2"),
     ([1, 1, 2, 2, 1], "cube is 6x6 but labels are 5x6"),
     ([1] * 6, "need at least 2 classes, found 1")],
    ids=["sparse-ids", "other-size", "one-class"],
)
def test_run_bad_labels_exit_2(tmp_path, capsys, label_rows, message):
    cube = DataCube(create_rng(0).random((6, 6, 8)))
    labels = LabelMap(np.repeat(label_rows, 6).reshape(len(label_rows), 6))
    with pytest.raises(ValueError, match=message):
        experiment(cube, labels, SplitSpec(0.2), NetworkConfig(), TrainConfig(max_epochs=1))
    save_cube(cube, tmp_path / "c.hcube")
    save_labels(labels, tmp_path / "l.hlbl")
    config = write_config(tmp_path / "cfg.json", tmp_path / "c.hcube", tmp_path / "l.hlbl")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_synth_outputs_are_deterministic(tmp_path):
    args = ["--height", "9", "--width", "8", "--bands", "5", "--classes", "2", "--seed", "3"]
    a_cube, a_labels = tmp_path / "a.hcube", tmp_path / "a.hlbl"
    b_cube, b_labels = tmp_path / "b.hcube", tmp_path / "b.hlbl"
    assert main(["synth", str(a_cube), str(a_labels)] + args) == 0
    assert main(["synth", str(b_cube), str(b_labels)] + args) == 0
    assert a_cube.read_bytes() == b_cube.read_bytes()
    assert a_labels.read_bytes() == b_labels.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["--height", "0"],
        ["--classes", "1"],
        ["--overlap", "1"],
        ["--noise", "nan"],
        ["--noise", "inf"],
        # 2**33 values, more than load_cube accepts; rejected before any array is made.
        ["--height", "65536", "--width", "65536", "--bands", "2"],
    ],
)
def test_synth_bad_arguments_exit_1(tmp_path, capsys, args):
    cube = tmp_path / "c.hcube"
    assert main(["synth", str(cube), str(tmp_path / "l.hlbl"), *args]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not cube.exists()


def test_programming_errors_are_not_data_errors(tiny_experiment, tmp_path, monkeypatch):
    # No data path raises KeyError: one escaping from training is a bug, and
    # exit 2 "data error" would blame the input for it.
    def broken_train(*args, **kwargs):
        raise KeyError("conv.weights")

    monkeypatch.setattr(cli_module, "train", broken_train)
    with pytest.raises(KeyError, match="conv.weights"):
        main(["run", "--config", str(tiny_experiment["config"]),
              "--out-dir", str(tmp_path / "out")])


def test_synth_emitted_config_is_loadable(tmp_path):
    cube, labels = tmp_path / "c.hcube", tmp_path / "l.hlbl"
    cfg_path = tmp_path / "cfg.json"
    rc = main(
        ["synth", str(cube), str(labels), "--bands", "8", "--emit-config", str(cfg_path)]
    )
    assert rc == 0
    cfg = load_config(cfg_path)
    assert cfg.cube == str(cube)
    # default kernel shrinks to fit the 8-band cube
    assert cfg.model.kernel_len == 7
    assert load_cube(cube).bands == 8


@pytest.mark.parametrize(
    "args, message",
    [
        (["--height", "8", "--width", "8", "--bands", "1"], "1 bands leave a 1-wide"),
        (["--height", "2", "--width", "2", "--bands", "30"], "need at least 3"),
    ],
)
def test_synth_config_that_run_rejects_exits_1(tmp_path, capsys, args, message):
    paths = [tmp_path / "c.hcube", tmp_path / "l.hlbl", tmp_path / "cfg.json"]
    argv = ["synth", str(paths[0]), str(paths[1]), *args, "--classes", "2"]
    assert main([*argv, "--emit-config", str(paths[2])]) == 1
    assert message in capsys.readouterr().err
    assert not any(p.exists() for p in paths)


def test_synth_two_band_config_runs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    rc = main(
        ["synth", str(tmp_path / "c.hcube"), str(tmp_path / "l.hlbl"), "--height", "8",
         "--width", "8", "--bands", "2", "--classes", "2", "--emit-config", str(cfg_path)]
    )
    assert rc == 0
    cfg = json.loads(cfg_path.read_text())
    cfg["train"]["max_epochs"] = 1
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0


def test_run_report_schema(tiny_experiment):
    report = json.loads((tiny_experiment["out"] / "report.json").read_text())
    assert set(report) == {"aa", "counts", "kappa", "oa", "per_class", "train_counts"}
    assert 0.0 <= report["oa"] <= 1.0
    assert len(report["per_class"]) == 3
    # the split rule: ceil(0.2 * n) clamped to [2, n-1]
    labels = load_labels(tiny_experiment["labels"]).labels
    populations = np.bincount(labels.ravel(), minlength=4)[1:]
    expected = [min(max(math.ceil(0.2 * n), 2), n - 1) for n in populations]
    assert report["train_counts"] == expected
    assert report["counts"] == [int(n) - e for n, e in zip(populations, expected)]


def test_run_checkpoints_reload(tiny_experiment):
    dual = load_checkpoint(tiny_experiment["out"] / "model.ckpt")
    base = load_checkpoint(tiny_experiment["out"] / "baseline_model.ckpt")
    assert not dual.config.baseline
    assert base.config.baseline
    assert dual.config.num_bands == 8


def test_run_train_log_shape(tiny_experiment):
    lines = (tiny_experiment["out"] / "train_log.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss,train_acc"
    assert len(lines) == 7  # header + 6 epochs
    assert lines[1].startswith("1,")


def test_run_map_dimensions(tiny_experiment):
    blob = (tiny_experiment["out"] / "map.ppm").read_bytes()
    assert blob.startswith(b"P6\n12 12\n255\n")
    assert len(blob) == len(b"P6\n12 12\n255\n") + 12 * 12 * 3


def test_rerun_is_byte_identical(tiny_experiment, tmp_path):
    out2 = tmp_path / "out2"
    rc = main(["run", "--config", str(tiny_experiment["config"]), "--out-dir", str(out2)])
    assert rc == 0
    for name in ("report.json", "model.ckpt", "baseline_report.json", "map.ppm",
                 "train_log.csv"):
        a = (tiny_experiment["out"] / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, name


def test_seed_override_changes_results(tiny_experiment, tmp_path):
    out2 = tmp_path / "out2"
    rc = main(
        ["run", "--config", str(tiny_experiment["config"]), "--out-dir", str(out2),
         "--seed", "99"]
    )
    assert rc == 0
    a = (tiny_experiment["out"] / "model.ckpt").read_bytes()
    b = (out2 / "model.ckpt").read_bytes()
    assert a != b


@pytest.mark.parametrize(
    "override, message",
    [(["--out-dir", ""], "out_dir must not be an empty path"),
     (["--seed", "18446744073709551614"], "seed must lie in [0, 2**64 - 2)"),
     (["--out-dir", "taken"], "taken is not a directory"),
     (["--out-dir", "taken/deeper"], "taken is not a directory")],
)
def test_run_override_is_checked_before_any_output(
    tmp_path, monkeypatch, capsys, override, message
):
    # The cube does not exist: a check that reads it first exits 2, not 1.
    config = write_config(tmp_path / "cfg.json", tmp_path / "c.hcube", tmp_path / "l.hlbl")
    (tmp_path / "taken").write_bytes(b"old")
    trained = []
    monkeypatch.setattr(cli_module, "train", lambda *args, **kwargs: trained.append(args))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(config), *override]) == 1
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]
    assert (tmp_path / "taken").read_bytes() == b"old"
    assert trained == []


def test_a_run_that_fails_writes_nothing(tiny_experiment, tmp_path, monkeypatch, capsys):
    # The baseline trains second; its failure must not leave the dual model's files.
    trained = []

    def train_once(*args, **kwargs):
        if trained:
            raise NumericalError("non-finite loss")
        trained.append(train(*args, **kwargs))
        return trained[0]

    monkeypatch.setattr(cli_module, "train", train_once)
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_experiment["config"]), "--out-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "existing, out_dir",
    [([], "new/deeper"), (["new"], "new/deeper"), (["out"], "out")],
    ids=["nested", "nested-in-existing", "existing"],
)
def test_a_failed_run_write_removes_only_the_directories_it_made(
    tiny_experiment, tmp_path, monkeypatch, capsys, existing, out_dir
):
    def refuse(model, path):
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr(cli_module, "save_checkpoint", refuse)
    monkeypatch.chdir(tmp_path)
    for name in existing:
        (tmp_path / name).mkdir()
    assert main(["run", "--config", str(tiny_experiment["config"]), "--out-dir", out_dir]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "model.ckpt" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == existing
    assert all(list((tmp_path / name).iterdir()) == [] for name in existing)


def test_baseline_only_skips_dual(tiny_experiment, tmp_path):
    out2 = tmp_path / "out2"
    rc = main(
        ["run", "--config", str(tiny_experiment["config"]), "--out-dir", str(out2),
         "--baseline-only"]
    )
    assert rc == 0
    assert (out2 / "baseline_report.json").exists()
    assert not (out2 / "report.json").exists()
    # baseline artifacts match the combined run exactly
    a = (tiny_experiment["out"] / "baseline_model.ckpt").read_bytes()
    assert a == (out2 / "baseline_model.ckpt").read_bytes()


def test_run_writes_what_experiment_returns(tiny_experiment, tmp_path):
    """The 8 artifacts, written by the library writers from `experiment`'s
    return value, match what `run` wrote byte for byte."""
    cfg = load_config(tiny_experiment["config"])
    labels = load_labels(cfg.labels)
    cube = normalize_cube(load_cube(cfg.cube))
    train_counts, runs = experiment(cube, labels, cfg.split, cfg.model, cfg.train)
    for name, run in runs.items():
        stem = os.path.join(tmp_path, "" if name == "dual" else "baseline_")
        write_report(run.report, stem + "report.json", train_counts=train_counts)
        render_map(run.raster, default_palette(labels.num_classes), stem + "map.ppm")
        save_checkpoint(run.model, stem + "model.ckpt")
        run.history.to_csv(stem + "train_log.csv")
    names = sorted(p.name for p in tiny_experiment["out"].iterdir())
    assert len(names) == 8 and sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (tiny_experiment["out"] / name).read_bytes(), name


@pytest.mark.parametrize(
    "shape,model,message",
    [
        (("6", "6", "8"), {"kernel_len": 10}, "kernel length 10 exceeds 8 bands"),
        # Fits the smallest cube load_config checks at, not the cube's 20000 bands.
        (("3", "3", "20000"), {"conv_filters": 1000, "dense_width": 1000},
         "parameters exceed the 4294967296 cap"),
    ],
)
def test_run_rejects_a_network_that_does_not_fit_before_making_out_dir(
    tmp_path, capsys, shape, model, message
):
    cube, labels = tmp_path / "c.hcube", tmp_path / "l.hlbl"
    height, width, bands = shape
    assert main(["synth", str(cube), str(labels), "--height", height, "--width", width,
                 "--bands", bands, "--classes", "2"]) == 0
    config = write_config(tmp_path / "cfg.json", cube, labels, model=model)
    out = tmp_path / "outdir"
    assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_energy_checks_both_checkpoints_before_any_energy(
    tiny_experiment, tmp_path, monkeypatch, capsys
):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return dense_energy(*args, **kwargs)

    monkeypatch.setattr(cli_module, "dense_energy", counted)
    missing = tmp_path / "missing.ckpt"
    rc = main(
        ["energy", "--config", str(tiny_experiment["config"]),
         "--out-dir", str(tiny_experiment["out"]), "--crop", "0,0,4,4",
         "--dual-ckpt", str(missing)]
    )
    assert rc == 2
    assert str(missing) in capsys.readouterr().err
    assert calls == []


def test_energy_command_prints_three_lines(tiny_experiment, capsys):
    rc = main(
        ["energy", "--config", str(tiny_experiment["config"]),
         "--out-dir", str(tiny_experiment["out"]), "--crop", "2,2,5,5"]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("baseline_energy=")
    assert out[1].startswith("dual_energy=")
    assert out[2].startswith("difference=")
    b = float(out[0].split("=")[1])
    d = float(out[1].split("=")[1])
    delta = float(out[2].split("=")[1])
    assert abs((b - d) - delta) < 1e-6


def test_energy_identical_checkpoints_identical_energies(tiny_experiment, tmp_path, capsys):
    # A checkpoint must hold the model of its role, so byte copies of the two
    # stand in for identical checkpoints: they must print the same energies.
    out = tiny_experiment["out"]
    for name in ("model.ckpt", "baseline_model.ckpt"):
        shutil.copyfile(out / name, tmp_path / name)
    printed = []
    for ckpts in (out, tmp_path):
        rc = main(
            ["energy", "--config", str(tiny_experiment["config"]),
             "--out-dir", str(out), "--crop", "0,0,6,6",
             "--dual-ckpt", str(ckpts / "model.ckpt"),
             "--baseline-ckpt", str(ckpts / "baseline_model.ckpt")]
        )
        assert rc == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


@pytest.mark.parametrize(
    "dual,baseline,wrong",
    [
        ("baseline_model.ckpt", "model.ckpt", "model.ckpt"),  # swapped: baseline is read first
        ("model.ckpt", "model.ckpt", "model.ckpt"),
        ("baseline_model.ckpt", "baseline_model.ckpt", "baseline_model.ckpt"),
    ],
)
def test_energy_checkpoint_of_the_wrong_role_exits_2(
    tiny_experiment, capsys, dual, baseline, wrong
):
    out = tiny_experiment["out"]
    rc = main(
        ["energy", "--config", str(tiny_experiment["config"]),
         "--out-dir", str(out), "--crop", "0,0,4,4",
         "--dual-ckpt", str(out / dual), "--baseline-ckpt", str(out / baseline)]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert str(out / wrong) in captured.err
    assert captured.out == ""


def test_energy_zero_weights_equal_unary(tiny_experiment, tmp_path, capsys):
    config = write_config(
        tmp_path / "cfg0.json",
        tiny_experiment["cube"],
        tiny_experiment["labels"],
        crf={"w1": 0.0, "w2": 0.0},
        appearance_bands=[0, 1],
    )
    rc = main(
        ["energy", "--config", str(config), "--out-dir", str(tiny_experiment["out"]),
         "--crop", "1,1,4,4"]
    )
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    got = float(printed[1].split("=")[1])

    # Independent unary recomputation from the stored dual checkpoint.
    from coordfuse.dataset import normalize_cube
    from coordfuse.model import forward

    model = load_checkpoint(tiny_experiment["out"] / "model.ckpt")
    norm = normalize_cube(load_cube(tiny_experiment["cube"]))
    unary = 0.0
    for r in range(1, 5):
        for c in range(1, 5):
            spectrum, xy = norm.values[r, c][None], np.array([[r / 11, c / 11]])
            probs = forward(model, spectrum, xy)[0][0]
            unary += -math.log(max(probs[int(np.argmax(probs))], 1e-12))
    assert abs(got - unary) < 5e-7  # printed value is rounded to 6 digits


# function -> (defining module, {argument position: ndim of one sample})
BATCHED_ARGS = {
    "conv1d_forward": ("layers", {1: 1}),
    "maxpool1d_forward": ("layers", {0: 2}),
    "dense_forward": ("layers", {1: 1}),
    "forward": ("model", {1: 1, 2: 1}),
}
# The same for the backward path; model.backward's cache counts by its
# (n, K) distributions, and every listed argument must arrive positionally.
BATCHED_BACKWARD_ARGS = {
    "conv1d_backward": ("layers", {1: 1, 2: 2, 3: 2}),
    "maxpool1d_backward": ("layers", {0: 2, 1: 2, 2: 2}),
    "dense_backward": ("layers", {1: 1, 2: 1, 3: 1}),
    "cross_entropy": ("layers", {0: 1, 1: 0}),
    "backward": ("model", {1: 1, 2: 0}),
}


def spy_on_batch_axes(monkeypatch, batched_args):
    """Wrap each function of `batched_args` in every coordfuse namespace that
    binds it, as a profiler would patch it. Returns the list that collects,
    per call, (name, extra axes of each listed argument, dtype name of each
    listed float argument); an argument not passed positionally reads None,
    and so does the dtype of a label argument (one scalar a sample)."""
    modules = [importlib.import_module("coordfuse")] + [
        importlib.import_module(f"coordfuse.{m}")
        for m in ("dataset", "layers", "model", "optimizer", "evaluation", "cli")
    ]
    extra_axes = []
    for name, (home, sample_ndims) in batched_args.items():
        original = getattr(importlib.import_module(f"coordfuse.{home}"), name)

        def spy(*args, _fn=original, _name=name, _ndims=sample_ndims, **kwargs):
            given = [getattr(args[i], "probs", args[i]) if i < len(args) else None
                     for i in _ndims]
            axes = [None if a is None else np.ndim(a) - d for a, d in zip(given, _ndims.values())]
            dtypes = [None if a is None or d == 0 else np.asarray(a).dtype.name
                      for a, d in zip(given, _ndims.values())]
            extra_axes.append((_name, axes, dtypes))
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    return extra_axes


def test_every_forward_call_carries_the_batch_axis(tiny_experiment, tmp_path, monkeypatch):
    extra_axes = spy_on_batch_axes(monkeypatch, BATCHED_ARGS)
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_experiment["config"]), "--out-dir", str(out)]) == 0
    assert main(["energy", "--config", str(tiny_experiment["config"]), "--out-dir", str(out),
                 "--crop", "0,0,4,4"]) == 0
    assert {name for name, *_ in extra_axes} == set(BATCHED_ARGS)
    assert [(name, axes) for name, axes, _ in extra_axes if axes != [1] * len(axes)] == []
    # The layers convert nothing: every float stack they are handed is float64.
    assert [(name, t) for name, _, t in extra_axes if set(t) != {"float64"}] == []


def test_every_backward_call_carries_the_batch_axis(tiny_experiment, tmp_path, monkeypatch):
    extra_axes = spy_on_batch_axes(monkeypatch, BATCHED_BACKWARD_ARGS)
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_experiment["config"]), "--out-dir", str(out)]) == 0
    assert {name for name, *_ in extra_axes} == set(BATCHED_BACKWARD_ARGS)
    assert [(name, axes) for name, axes, _ in extra_axes if axes != [1] * len(axes)] == []
    assert [(name, t) for name, _, t in extra_axes if set(t) - {None} != {"float64"}] == []


def test_energy_crop_errors(tiny_experiment, capsys):
    base = ["energy", "--config", str(tiny_experiment["config"]),
            "--out-dir", str(tiny_experiment["out"])]
    assert main(base + ["--crop", "0,0,70,70"]) == 1
    assert "exceeds the 12x12 image" in capsys.readouterr().err
    assert main(base + ["--crop", "0,0,146,145"]) == 1
    assert f"limit is {MAX_CROP_PIXELS}" in capsys.readouterr().err
    assert main(base + ["--crop", "0,0,9"]) == 1
    assert main(base + ["--crop", "0,0,x,4"]) == 1
    assert main(base + ["--crop", "10,10,4,4"]) == 1  # runs past the 12x12 edge
    assert "exceeds the 12x12 image" in capsys.readouterr().err
    assert main(base + ["--crop", "0,0,-1,4"]) == 1


def test_parse_crop_accepts_exactly_the_limit():
    assert MAX_CROP_PIXELS == 145 * 145  # the Indian Pines frame
    assert _parse_crop("0,0,145,145") == (0, 0, 145, 145)
    with pytest.raises(UsageError, match=f"limit is {MAX_CROP_PIXELS}"):
        _parse_crop("0,0,146,145")


def test_energy_missing_checkpoint_exits_2(tiny_experiment, tmp_path):
    rc = main(
        ["energy", "--config", str(tiny_experiment["config"]),
         "--out-dir", str(tmp_path / "empty"), "--crop", "0,0,4,4"]
    )
    assert rc == 2


def test_energy_appearance_band_out_of_range_exits_2(tiny_experiment, tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", tiny_experiment["cube"],
                          tiny_experiment["labels"], appearance_bands=[0, 8])
    rc = main(["energy", "--config", str(config), "--out-dir", str(tiny_experiment["out"]),
               "--crop", "0,0,4,4"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "data error: appearance_bands [0, 8] out of range for 8 bands\n"
    assert captured.out == ""


def test_energy_non_finite_checkpoint_exits_2(tiny_experiment, tmp_path, capsys):
    model = load_checkpoint(tiny_experiment["out"] / "model.ckpt")
    model.head.bias[0] = np.nan
    bad = tmp_path / "nan.ckpt"
    save_checkpoint(model, bad)
    rc = main(
        ["energy", "--config", str(tiny_experiment["config"]),
         "--out-dir", str(tiny_experiment["out"]), "--crop", "0,0,4,4",
         "--dual-ckpt", str(bad)]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert "NaN or Inf" in captured.err
    assert "dual_energy" not in captured.out


def test_energy_mistyped_checkpoint_config_exits_2(tiny_experiment, tmp_path, capsys):
    blob = (tiny_experiment["out"] / "model.ckpt").read_bytes()
    cfg_len = int.from_bytes(blob[8:12], "little")
    cfg = json.loads(blob[12 : 12 + cfg_len])
    cfg["num_bands"] = str(cfg["num_bands"])
    mistyped = json.dumps(cfg).encode()
    bad = tmp_path / "mistyped.ckpt"
    bad.write_bytes(blob[:8] + len(mistyped).to_bytes(4, "little") + mistyped + blob[12 + cfg_len :])
    rc = main(
        ["energy", "--config", str(tiny_experiment["config"]),
         "--out-dir", str(tiny_experiment["out"]), "--crop", "0,0,4,4",
         "--dual-ckpt", str(bad)]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert "num_bands must be an integer" in captured.err
    assert "dual_energy" not in captured.out


def test_energy_deeply_nested_checkpoint_config_exits_2(tiny_experiment, tmp_path, capsys):
    blob = (tiny_experiment["out"] / "model.ckpt").read_bytes()
    nested = b"[" * 200_000
    bad = tmp_path / "nested.ckpt"
    bad.write_bytes(blob[:8] + len(nested).to_bytes(4, "little") + nested)
    rc = main(
        ["energy", "--config", str(tiny_experiment["config"]),
         "--out-dir", str(tiny_experiment["out"]), "--crop", "0,0,4,4",
         "--dual-ckpt", str(bad)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad config block: maximum recursion depth" in err and len(err.splitlines()) == 1


# sha256 of the README quickstart's files and stdouts, run through the CLI
# at one BLAS thread with `train.max_epochs` set to 10 in the emitted config.
QUICKSTART_SHA256 = {
    "config.json": "4131a1c5d30c95b81f110c07b9141ddb5e168e2984739e1e95aa2246158c7355",
    "scene.hcube": "d45f115efec8ef5755fc0e75b785763542b722cc91b09a096281f52c3a523319",
    "scene.hlbl": "1a06de8d59c0e94f259af6dd835587b1a8639eb77460d4936feab5f5c45ae075",
    "out/report.json": "f8da369e48d43480494a9e361aec03ca8330fe2a3520ae255690dfd7348a9fd9",
    "out/map.ppm": "ef8df614745c36690c2ca8467ee2e634101de905372b3e7a14f170d2425cffa8",
    "out/model.ckpt": "7fafeb8d5fdb2d4c5fc71df78d49df754f192681b5bd65ca80e86c0c8e0ad491",
    "out/train_log.csv":
        "687211bcae0aa2e84e451cd4cde93bae9aefa3880e51c46fccf2d4c357ca88b1",
    "out/baseline_report.json":
        "cae45cf3d39617b95b5672c1d0af28e137115416fa204bab13af13b10110d316",
    "out/baseline_map.ppm":
        "40c0e7a2947071a40632f40b56382695b6c9875d8528aefc66af9c59c3d90263",
    "out/baseline_model.ckpt":
        "865561a71de6fedbf37a2a8db742d81690be91f29b96e18cb28c47c4be17ba17",
    "out/baseline_train_log.csv":
        "be88d5eecc6d9601539ea545b2825a5f01d448855b8fe473832a9dfc0bd0ba92",
    "synth stdout": "73fb088135d4967ba8f605b764ed104152be5fa83139d5b0b2afbae4cce00e93",
    "run stdout": "f2470762145c3eab17fa3f2033f67a96c45b15c49627814e06d03a9b94dae2fa",
    "energy stdout": "65af2ef6d7550f2f5e4349fd746879953d59ba1c8d999237a79c051eddc637e0",
}


def test_quickstart_is_pinned(tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": pythonpath}

    def coordfuse(*args):
        done = subprocess.run([sys.executable, "-m", "coordfuse.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, check=True)
        return done.stdout

    got = {"synth stdout": coordfuse("synth", "scene.hcube", "scene.hlbl",
                                     "--coordinate-separable", "--emit-config", "config.json")}
    config = tmp_path / "config.json"
    emitted = config.read_bytes()
    raw = json.loads(emitted)
    raw["train"]["max_epochs"] = 10
    config.write_text(json.dumps(raw))
    got["run stdout"] = coordfuse("run", "--config", "config.json", "--out-dir", "out")
    got["energy stdout"] = coordfuse("energy", "--config", "config.json", "--out-dir", "out",
                                     "--crop", "0,0,64,64")
    got.update((name, (tmp_path / name).read_bytes())
               for name in QUICKSTART_SHA256 if "stdout" not in name)
    got["config.json"] = emitted
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in got.items()}
    assert digests == QUICKSTART_SHA256


def test_readme_config_matches_emitted_defaults(tmp_path):
    text = README.read_text().split("## Config file", 1)[1]
    documented = json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])
    cfg_path = tmp_path / "cfg.json"
    rc = main(
        ["synth", str(tmp_path / "c.hcube"), str(tmp_path / "l.hlbl"),
         "--bands", "30", "--seed", "0", "--emit-config", str(cfg_path)]
    )
    assert rc == 0
    emitted = json.loads(cfg_path.read_text())
    for key in ("cube", "labels"):
        del documented[key], emitted[key]
    assert documented == emitted
