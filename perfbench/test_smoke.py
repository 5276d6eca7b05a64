"""Smoke test of the benchmark at a tiny shape: python3 -m pytest perfbench

Runs every workload untraced and traced, and checks that the last line names
exactly the metrics of BENCHMARK.json with their units, that every output
check passed, and that the per-workload figures are printed with units.
"""

import contextlib
import io
import json
import os
import sys

import pytest

import run

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402

TINY = workloads.Scale(
    pines=(24, 24, 24, 4),
    small=(16, 16, 14, 3),
    small_epochs=3,
)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

PRINTED = {
    "pines-infer": {"infer_pixels_per_s": "px/s"},
    "small-run": {"run_s": "s", "energy_s": "s", "oa_gap_pts": "pts"},
}


def _run(workload: str, trace: int) -> tuple[dict, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)], scale=TINY)
    assert code == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    result, lines = _run(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    printed = {**PRINTED[workload], "setup_s": "s", "peak_rss_mb": "MB"}
    fields = [line.split() for line in lines]
    for name, unit in printed.items():
        assert any(f[0] == name and f[2] == unit for f in fields if len(f) > 2), name
    assert any(line.startswith("error_rate 0 ") for line in lines)
    if trace:
        counts = [line for line in lines if line.startswith("count ")]
        assert counts and all(line.endswith(" ok") for line in counts)
        assert result["metrics"]["model.forward.rows"]["value"] > 0


def test_missing_sources_exit_nonzero(monkeypatch):
    monkeypatch.setattr(run, "SRC", os.path.join(run.ROOT, "no-such-src"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "small-run", "--seed", "0", "--seconds", "0"])
    assert code != 0 and out.getvalue() == ""
