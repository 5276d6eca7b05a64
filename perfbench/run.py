"""coordfuse benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds `src/coordfuse` and `BENCHMARK.json`. The
workloads (pines-infer, small-run) are described in workloads.py. One
process, one closed-loop caller on one thread; each trial repeats the same
calls. After the set-ups, one untimed warm-up trial runs, then timed trials
run until `--seconds` have passed since the warm-up began (at least two),
and every figure is the median over timed trials or set-ups.

With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, measured with tracing off:

* setup_s: scene generation, file round trip, split, sample extraction and
  model build, in CPU seconds; median of several set-ups.
* items_per_cpu_s: throughput at the stated input size, per CPU second of
  the timed calls (see workloads.py for why CPU time). pines-infer:
  predicted pixels over the test set plus the full raster
  (infer_pixels_per_s). small-run: scene pixels through `run` plus `energy`.
* peak_rss_mb: the process's peak resident set size.

The lines before it print the same figures under the workload's own names
(run_s, energy_s, oa_gap_pts, ...), the throughput per wall second
(items_per_wall_s) and error_rate.
Output checks run outside the timed calls and are counted in `attempted`
and `failed`.

With `--trace 1` the run measures untraced for half the time, then installs
the tracer and runs one set-up and traced trials for the other half. The last
line carries the per-layer metrics of BENCHMARK.json, named
`<module>.<function>[.<layer>].<stat>`, each for one set-up plus one trial.
`trace.overhead.setup_s` and `trace.overhead.items_per_cpu_s` are traced minus
untraced; `trace.overhead.span_mb` is the memory the tracer's spans hold,
since the process's peak RSS cannot be reset between the untraced and the
traced half. The exact call and row counts each trial must produce are
asserted and counted as checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Input files go under the checkout, not the system temp directory: the
# benchmark reads and writes only inside the checkout it runs from.
WORK_ROOT = os.path.join(ROOT, ".perfbench_tmp")
SETUP_REPEATS = 5
# Set-ups also repeat for this share of --seconds, so that a set-up of a few
# milliseconds gets a median over many.
SETUP_SHARE = 0.05


def _single_thread() -> int:
    """Run native thread pools on one thread: the one caller then never waits
    on a pool thread the host has descheduled, and the process's CPU time is
    that caller's work. Must precede the numpy import. Returns the usable
    cores, for the record."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _environment(nproc: int) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "cpu": cpu,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _summary(values) -> str:
    values = list(values)
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median of {len(values)}, quartiles {q1:.6g}..{q3:.6g}"


def measure(workload, seed: int, seconds: float, setups: int, setup_seconds: float,
            min_trials: int, workdir: str, warmup: bool, tracer=None):
    """Set up at least `setups` times and for `setup_seconds`, then run an
    untimed warm-up trial if asked and timed trials until `seconds` have
    passed since it began (at least `min_trials`). Returns the state, the
    set-up times, the first trial (the warm-up, if any) and the timed trials."""
    setup_s = []
    state = None
    while len(setup_s) < setups or sum(setup_s) < setup_seconds:
        state = None  # free the previous inputs before building new ones
        t0 = time.process_time()
        state = workload.setup(seed, workdir)
        setup_s.append(time.process_time() - t0)
    deadline = time.perf_counter() + seconds
    # The warm-up faults in the heap and numpy's caches outside the figures.
    first = workload.trial(state) if warmup else None
    trials = []
    while len(trials) < min_trials or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.run_id = len(trials) + 1
        trials.append(workload.trial(state))
    return state, setup_s, first or trials[0], trials


def _print_figures(label: str, setup_s, trials) -> None:
    print(f"{label}setup_s {statistics.median(setup_s):.6g} s ({_summary(setup_s)} set-ups)")
    reports = [{**t.report, "items_per_wall_s": (t.items / t.wall_seconds, "1/s")}
               for t in trials]
    for name, (_, unit) in reports[0].items():
        values = [r[name][0] for r in reports]
        print(f"{label}{name} {statistics.median(values):.6g} {unit} "
              f"({_summary(values)} trials)")


# per-layer stat -> (tracer summary field, factor); work is FLOPs for conv and
# dense layers, parameter elements for adam_step and pixel pairs for energy.
STAT_FIELDS = {
    "calls": ("calls", 1.0),
    "rows": ("rows", 1.0),
    "self_s": ("self_s", 1.0),
    "gflop": ("work", 1e-9),
    "elements": ("work", 1.0),
    "pairs": ("work", 1.0),
}


def _trace_run(workload, seed, seconds, workdir, checks, spec, untraced_setup_s,
               untraced_first, untraced_trials):
    from tracer import Tracer

    tracer = Tracer()
    missing = tracer.install()
    for name in missing:
        print(f"trace: coordfuse has no {name}; its metrics read 0", file=sys.stderr)
    try:
        tracer.run_id = 0
        _, setup_s, _, trials = measure(workload, seed, seconds, 1, 0.0, 1, workdir,
                                        False, tracer)
    finally:
        tracer.uninstall()
    _print_figures("traced ", setup_s, trials)
    for i, trial in enumerate(trials, start=1):
        checks.expect(trial.fingerprint == untraced_first.fingerprint,
                      f"traced trial {i} output differs from the untraced output")

    runs = tracer.summarize()
    setup_stats = runs.get(0, {})
    trial_stats = [runs.get(i, {}) for i in range(1, len(trials) + 1)]

    def per_trial(key, field):
        return [stats.get(key, {}).get(field, 0.0) for stats in trial_stats]

    for key in sorted(set().union(*trial_stats)):
        for field in ("calls", "rows", "work"):
            values = per_trial(key, field)
            checks.expect(len(set(values)) == 1,
                          f"trace {key}.{field} differs between trials: {values}")
    for name, expected in trials[0].counts.items():
        key, stat = name.rsplit(".", 1)
        actual = per_trial(key, STAT_FIELDS[stat][0])[0]
        ok = actual == expected
        checks.expect(ok, f"trace count {name} is {actual:g}, expected {expected:g}")
        print(f"count {name} {actual:g} expected {expected:g} {'ok' if ok else 'MISMATCH'}")

    overhead = {
        "setup_s": statistics.median(setup_s) - statistics.median(untraced_setup_s),
        "items_per_cpu_s": statistics.median(t.items / t.seconds for t in trials)
        - statistics.median(t.items / t.seconds for t in untraced_trials),
        "span_mb": tracer.nbytes() / 2**20,
    }
    metrics = {}
    for entry in spec["per_layer"]:
        key, stat = entry["name"].rsplit(".", 1)
        if key == "trace.overhead":
            value = overhead[stat]
        else:
            field, factor = STAT_FIELDS[stat]
            values = per_trial(key, field)
            trial_part = statistics.median(values) if field == "self_s" else values[0]
            value = (setup_stats.get(key, {}).get(field, 0.0) + trial_part) * factor
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        computed = " (computed from shapes)" if STAT_FIELDS.get(stat, ("",))[0] == "work" else ""
        print(f"layer {entry['name']} {value:.6g} {entry['unit']}{computed}")
    print(f"spans recorded: {len(tracer.key)}")
    return metrics


def main(argv=None, scale=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = _single_thread()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "coordfuse", "__init__.py")):
        print(f"no coordfuse sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import coordfuse
    import workloads

    if not os.path.abspath(coordfuse.__file__).startswith(SRC + os.sep):
        print(f"imported coordfuse from {coordfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    with open(spec_path) as f:
        spec = json.load(f)
    scale = scale or workloads.FULL
    workload = workloads.WORKLOADS[args.workload](scale)
    checks = workloads.Checks()
    print("env " + json.dumps(_environment(nproc)))

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        untraced_seconds = args.seconds / 2 if args.trace else args.seconds
        state, setup_s, first, trials = measure(
            workload, args.seed, untraced_seconds, SETUP_REPEATS,
            SETUP_SHARE * args.seconds, 1 if args.trace else 2, workdir, True)
        peak_rss = _peak_rss_mb()
        print(f"workload {workload.name}: {workload.describe(state)}")
        for i, trial in enumerate(trials, start=1):
            checks.expect(trial.fingerprint == first.fingerprint,
                          f"timed trial {i} output differs from the warm-up")
        workload.check(checks, state, first)
        state = None
        _print_figures("", setup_s, trials)
        print(f"peak_rss_mb {peak_rss:.6g} MB")
        e2e = {
            "setup_s": statistics.median(setup_s),
            "items_per_cpu_s": statistics.median(t.items / t.seconds for t in trials),
            "peak_rss_mb": peak_rss,
        }
        if args.trace:
            metrics = _trace_run(workload, args.seed, args.seconds / 2, workdir, checks,
                                 spec, setup_s, first, trials)
        else:
            metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(f"error_rate {checks.failed / checks.attempted:.6g} "
          f"({checks.failed} failed of {checks.attempted} checks)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
