import json
import math
from pathlib import Path

import numpy as np
import pytest

from coordfuse.cli import UsageError, load_config, main
from coordfuse.dataset import DataCube, LabelMap, load_cube, load_labels, save_cube, save_labels
from coordfuse.evaluation import CrfParams, dense_energy
from coordfuse.model import load_checkpoint
from coordfuse.numerics import create_rng


README = Path(__file__).resolve().parents[1] / "README.md"


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
    assert cfg.model["conv_filters"] == 20
    assert cfg.model["keep_prob"] == 0.75
    assert cfg.train["max_epochs"] == 500
    assert cfg.train["batch_size"] == 64
    assert cfg.crf["theta_alpha"] == 8.0
    assert cfg.appearance_bands == [0, 1, 2]


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
        ('{"cube": "a", "labels": "b", "appearance_bands": []}', "appearance_bands"),
        ('{"cube": "a", "labels": "b", "train": {"learning_rate": -1}}', "learning rate"),
        ("[1, 2]", "object"),
        ("{not json", "JSON"),
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


def test_run_sparse_class_ids_exit_2(tmp_path, capsys):
    cube, labels = tmp_path / "c.hcube", tmp_path / "l.hlbl"
    values = create_rng(0).random((6, 6, 8))
    save_cube(DataCube(values), cube)
    save_labels(LabelMap(np.repeat([1, 1, 3, 3, 4, 4], 6).reshape(6, 6)), labels)
    config = write_config(tmp_path / "cfg.json", cube, labels)
    assert main(["run", "--config", str(config)]) == 2
    assert "class ids must be contiguous 1..4; missing ids: 2" in capsys.readouterr().err


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
    ],
)
def test_synth_bad_arguments_exit_1(tmp_path, capsys, args):
    cube = tmp_path / "c.hcube"
    assert main(["synth", str(cube), str(tmp_path / "l.hlbl"), *args]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not cube.exists()


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
    assert cfg.model["kernel_len"] == 7
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


def test_run_writes_all_artifacts(tiny_experiment):
    out = tiny_experiment["out"]
    for prefix in ("", "baseline_"):
        for name in ("report.json", "map.ppm", "model.ckpt", "train_log.csv"):
            assert (out / (prefix + name)).exists(), prefix + name


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


def test_energy_identical_checkpoints_identical_energies(tiny_experiment, capsys):
    ckpt = str(tiny_experiment["out"] / "model.ckpt")
    rc = main(
        ["energy", "--config", str(tiny_experiment["config"]),
         "--out-dir", str(tiny_experiment["out"]), "--crop", "0,0,6,6",
         "--dual-ckpt", ckpt, "--baseline-ckpt", ckpt]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split("=")[1] == out[1].split("=")[1]
    assert out[2] == "difference=0.000000"


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
    from coordfuse.dataset import coord_features, normalize_cube
    from coordfuse.model import forward

    model = load_checkpoint(tiny_experiment["out"] / "model.ckpt")
    norm = normalize_cube(load_cube(tiny_experiment["cube"]))
    unary = 0.0
    for r in range(1, 5):
        for c in range(1, 5):
            probs, _ = forward(model, norm.values[r, c], coord_features(r, c, 12, 12))
            unary += -math.log(max(probs[int(np.argmax(probs))], 1e-12))
    assert abs(got - unary) < 5e-7  # printed value is rounded to 6 digits


def test_energy_crop_errors(tiny_experiment, capsys):
    base = ["energy", "--config", str(tiny_experiment["config"]),
            "--out-dir", str(tiny_experiment["out"])]
    assert main(base + ["--crop", "0,0,70,70"]) == 1
    assert main(base + ["--crop", "0,0,9"]) == 1
    assert main(base + ["--crop", "0,0,x,4"]) == 1
    assert main(base + ["--crop", "10,10,4,4"]) == 1  # runs past the 12x12 edge
    assert main(base + ["--crop", "0,0,-1,4"]) == 1


def test_energy_missing_checkpoint_exits_2(tiny_experiment, tmp_path):
    rc = main(
        ["energy", "--config", str(tiny_experiment["config"]),
         "--out-dir", str(tmp_path / "empty"), "--crop", "0,0,4,4"]
    )
    assert rc == 2


def test_energy_non_finite_checkpoint_exits_2(tiny_experiment, tmp_path, capsys):
    from coordfuse.model import save_checkpoint

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
