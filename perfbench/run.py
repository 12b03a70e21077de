"""nashgrid benchmark: shipped configs through the public CLI path.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads (each runs in fresh single-process children, at most 2 threads):

    grid_stream  configs/expectation_grid.json as shipped: 200x20000 cells,
                 parallelism=2, streamed through the moment accumulators
    grid_stored  the same config with n_r=100, parallelism=1: 2M cells, at
                 the storage limit, so per-cell arrays are kept and
                 expectation() re-sums them
    mc_100k      configs/monte_carlo.json, 100k samples, parallelism=1,
                 seeded by --seed

The grid workloads take no randomness: --seed only keys the Monte Carlo
sample stream.

--trace 0 (timed): set-up is timed in SETUP_REPEATS fresh processes, then
the workload is solved in fresh processes, one per solve, for --seconds
seconds (at least once); each end-to-end metric is the median over those.
--trace 1 (traced): one untraced solve and one solve with every layer
wrapped in spans (perfbench/trace.py); prints the per-layer metrics and the
tracing overhead, traced solve_s minus untraced solve_s.

Every solve's outputs pass the workload's correctness gate or the command
exits 1. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; an operation is a grid cell
or a Monte Carlo sample.
"""
from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
sys.path.insert(0, str(ROOT))

from perfbench.trace import LAYER_METRICS  # noqa: E402

WORKLOADS = {
    "grid_stream": {"config": "configs/expectation_grid.json"},
    "grid_stored": {"config": "configs/expectation_grid.json",
                    "discretization": {"n_r": 100},
                    "run": {"parallelism": 1}},
    "mc_100k": {"config": "configs/monte_carlo.json",
                "run": {"parallelism": 1}},
}

# (name, unit) of the end-to-end metrics, timed runs
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170

# correctness gates
PIN_FILE = ROOT / "tests" / "test_acceptance.py"
PIN_NAME = "PINNED_MEAN_200_20000"
PIN_TOL = 1e-9             # test_pinned_expectation_regression
WEIGHT_TOL = 1e-9          # same test, total cell weight
STORED_AGREEMENT = 1e-12   # expectation() re-sum vs the streamed report
REFINEMENT_TOL = 0.05      # criterion 03, refinement consistency
MC_SIGMAS = 5.0
# Discretization bias of the pinned 200x20000 mean against the exact
# expectation, per component, rounded up from |mean(100x10000) - pin|.
# Lower-endpoint representatives make the error first order in the cell
# width (mean(50x5000) - pin is 3.0x the 100x10000 delta), so the halving
# delta estimates the pin's own error.
PIN_BIAS = (0.0063, 0.0058, 0.0049, 0.0038, 0.0026)


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, a child failed)."""


def pinned_mean():
    """The pinned mean, read from the acceptance tests so a re-pin moves it."""
    try:
        tree = ast.parse(PIN_FILE.read_text())
    except OSError as err:
        raise BenchError(f"cannot read the pin: {err}") from err
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == PIN_NAME for t in node.targets):
            return np.array(ast.literal_eval(node.value), dtype=float)
    raise BenchError(f"{PIN_NAME} not found in {PIN_FILE}")


def _within(values, tol):
    # False for NaN, unlike a negated comparison
    return bool(np.all(np.asarray(values) <= tol))


def gate(workload, result, pin):
    """Check one solve's outputs. Returns (failures, notes), lists of str."""
    failures, notes = [], []
    if result["rc"] != 0:
        failures.append(f"run_config returned {result['rc']}")
    if result["failed"]:
        failures.append(f"{result['failed']} of {result['ops']} operations "
                        f"failed")
    if "mean" not in result:
        failures.append("no output written")
        return failures, notes
    mean = np.asarray(result["mean"], dtype=float)
    if not np.isfinite(mean).all():
        failures.append("non-finite mean")
    dev = np.abs(mean - pin)
    if workload == "mc_100k":
        se = np.asarray(result["se"], dtype=float)
        z = (mean - pin) / se
        notes.append("z vs pin: " + " ".join(f"{v:+.2f}" for v in z))
        if not _within(dev, MC_SIGMAS * se + np.asarray(PIN_BIAS)):
            failures.append(f"mean off the pin by {dev.tolist()}, more than "
                            f"{MC_SIGMAS:g} se + pin bias")
        return failures, notes
    if not _within(abs(result["total_weight"] - 1.0), WEIGHT_TOL):
        failures.append(f"cell weights sum to {result['total_weight']!r}")
    if result["flagged"]:
        failures.append(f"{result['flagged']} cells flagged")
    if workload == "grid_stream":
        notes.append(f"max |mean - pin| = {dev.max():.3e}")
        if not _within(dev, PIN_TOL):
            failures.append(f"mean off the pin by {dev.max():.3e} > {PIN_TOL}")
    else:
        gap = np.abs(mean - np.asarray(result["streamed_mean"]))
        notes.append(f"max |expectation() - streamed| = {gap.max():.3e}")
        if not _within(gap, STORED_AGREEMENT):
            failures.append(f"expectation() differs from the streamed mean "
                            f"by {gap.max():.3e} > {STORED_AGREEMENT}")
        if not _within(dev, REFINEMENT_TOL):
            failures.append(f"mean off the pin by {dev.max():.3e} > "
                            f"{REFINEMENT_TOL}")
    return failures, notes


def _spec(workload, seed, out_dir, mode):
    spec = copy.deepcopy(WORKLOADS[workload])
    spec["mode"] = mode
    run = spec.setdefault("run", {})
    run["out_dir"] = str(out_dir)
    if workload == "mc_100k":
        run["seed"] = seed
    return spec


def _argv(spec):
    return [sys.executable, str(WORKER), json.dumps(spec)]


def time_setup(spec):
    """Seconds from spawning a fresh interpreter to its set-up being done."""
    t0 = time.perf_counter()
    with subprocess.Popen(_argv(spec), stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up child failed (exit {proc.returncode})")
    return elapsed


def solve_once(spec):
    """Run one solve child and return its JSON result."""
    try:
        proc = subprocess.run(_argv(spec), stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"solve child exceeded {CHILD_TIMEOUT_S} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"solve child failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def _check(workload, results, pin, log):
    ok = True
    for i, res in enumerate(results):
        failures, notes = gate(workload, res, pin)
        ok = ok and not failures
        tag = "FAIL" if failures else "ok"
        log(f"  gate solve {i + 1}: {tag}; " + "; ".join(failures + notes))
    return ok


def run_timed(workload, seed, seconds, out_dir, pin, log):
    """Timed run: returns (correct, attempted, failed, metrics)."""
    setups = [time_setup(_spec(workload, seed, out_dir, "setup"))
              for _ in range(SETUP_REPEATS)]
    spec = _spec(workload, seed, out_dir, "solve")
    results = []
    start = time.perf_counter()
    while True:
        results.append(solve_once(spec))
        elapsed = time.perf_counter() - start
        # start another solve only if it should end within the window
        if elapsed * (len(results) + 1) / len(results) > seconds:
            break
    correct = _check(workload, results, pin, log)
    values = {"setup_s": statistics.median(setups)}
    for name in ("solve_s", "cpu_s", "peak_rss_mb"):
        values[name] = statistics.median(r[name] for r in results)
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    log("  set-up s: " + " ".join(f"{v:.3f}" for v in setups))
    log("  solve s:  " + " ".join(f"{r['solve_s']:.3f}" for r in results))
    log(f"  {len(results)} solves, {SETUP_REPEATS} set-ups; medians:")
    metrics = {}
    for name, unit in END_TO_END:
        metrics[name] = {"value": values[name], "unit": unit}
        log(f"    {name:<12} {values[name]:12.4f} {unit}")
    log(f"    {'failed_frac':<12} {failed / attempted:12.4g} "
        f"({failed} of {attempted})")
    return correct, attempted, failed, metrics


def run_traced(workload, seed, out_dir, pin, log):
    """Traced run: returns (correct, attempted, failed, metrics)."""
    plain = solve_once(_spec(workload, seed, out_dir, "solve"))
    traced = solve_once(_spec(workload, seed, out_dir, "trace"))
    correct = _check(workload, [plain, traced], pin, log)
    metrics = {}
    for name, unit in LAYER_METRICS:
        metrics[name] = {"value": traced["layers"][name], "unit": unit}
        log(f"    {name:<36} {traced['layers'][name]:14.4f} {unit}")
    overhead = traced["solve_s"] - plain["solve_s"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    log(f"    {'trace.overhead_s':<36} {overhead:14.4f} s "
        f"(traced {traced['solve_s']:.3f} s, untraced {plain['solve_s']:.3f} s)")
    return (correct, plain["ops"] + traced["ops"],
            plain["failed"] + traced["failed"], metrics)


def provenance():
    return (f"nproc {os.cpu_count()}, python {platform.python_version()}, "
            f"numpy {metadata.version('numpy')}, "
            f"scipy {metadata.version('scipy')}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    def log(line):
        print(line, flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not (ROOT / "src" / "nashgrid").is_dir():
            raise BenchError("nashgrid sources not found under src/")
        pin = pinned_mean()
        log(provenance())
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                         dir=ROOT) as out_dir:
            for name in names:
                log(f"workload {name} (seed {args.seed}, "
                    f"{'traced' if args.trace else 'timed'})")
                if args.trace:
                    res = run_traced(name, args.seed, out_dir, pin, log)
                else:
                    res = run_timed(name, args.seed, args.seconds, out_dir,
                                    pin, log)
                correct, attempted, failed, metrics = res
                summary["correct"] = summary["correct"] and correct
                summary["attempted"] += attempted
                summary["failed"] += failed
                if len(names) > 1:
                    metrics = {f"{name}.{k}": v for k, v in metrics.items()}
                summary["metrics"].update(metrics)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
