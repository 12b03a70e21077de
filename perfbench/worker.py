"""One benchmark measurement in a fresh interpreter.

    python3 perfbench/worker.py '<spec json>'

The spec names a shipped config, field overrides for its
``discretization`` and ``run`` blocks, and a mode:

    setup   import nashgrid, load and validate the config, build the grid,
            print one line and exit (the parent times spawn -> line)
    solve   also run the config through ``nashgrid.cli.run_config`` and
            print one JSON line: timings, resource use and the outputs the
            correctness gates need
    trace   as solve, with every layer wrapped in spans (perfbench.trace);
            adds the per-layer metrics

Each solve runs in its own process so peak memory and CPU time belong
to that solve alone.
"""
from __future__ import annotations

import csv
import io
import json
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))


def load(spec):
    """The workload's RunConfig: shipped file plus overrides, revalidated."""
    from nashgrid import cli
    config = cli.load_config(ROOT / spec["config"])
    return replace(
        config,
        discretization=replace(config.discretization,
                               **spec.get("discretization", {})),
        run=replace(config.run, **spec.get("run", {})))


def setup(config):
    """Everything a run does before its first solve call."""
    from nashgrid import cli
    if config.run.mode == "discretize":
        d = config.discretization
        cli.make_grid(config.instance, n_r=d.n_r, n_s=d.n_s,
                      n_bounds=d.n_bounds, n_betas=d.n_betas,
                      n_alpha=d.n_alpha, rules=d.rules_dict())


def _capture(fn, into):
    def call(*args, **kwargs):
        into["result"] = out = fn(*args, **kwargs)
        return out
    return call


def _read_csv(path, columns):
    with open(path, newline="") as fh:
        text = fh.read()
    rows = list(csv.DictReader(io.StringIO(text)))
    return text, [[float(row[c]) for row in rows] for c in columns]


def _grid_outputs(config, solution):
    text, (mean,) = _read_csv(os.path.join(config.run.out_dir, "summary.csv"),
                              ["mean"])
    n = solution.n_cells
    if solution.stored:
        bad = ~solution.converged | ~np.isfinite(solution.solutions).all(axis=1)
        failed = int(np.count_nonzero(bad))
    elif np.isfinite(mean).all():
        failed = solution.flagged_cells
    else:
        # streamed cells leave only their converged flags behind, and a
        # non-finite cell poisons the folded mean: count every cell
        failed = n
    return {"ops": n, "failed": failed, "output": text, "mean": mean,
            "streamed_mean": solution.report.mean.tolist(),
            "total_weight": solution.report.total_weight,
            "flagged": solution.flagged_cells}


def _oracle_outputs(config, report):
    text, (mean, se) = _read_csv(os.path.join(config.run.out_dir, "oracle.csv"),
                                 ["mc_mean", "std_error"])
    failed = report.failed_solves
    if not (np.isfinite(mean).all() and np.isfinite(se).all()):
        failed = report.n_samples
    return {"ops": report.n_samples, "failed": failed, "output": text,
            "mean": mean, "se": se}


def measure(spec, trace=False):
    """Run the spec's config once; return timings, outputs and layer metrics."""
    from nashgrid import cli
    from nashgrid.discretize import FlaggedCellsError
    from perfbench.trace import Tracer, instrument, layer_metrics

    config = load(spec)
    captured = {}
    with Tracer() as tracer:
        if trace:
            instrument(tracer)
        solver = "monte_carlo_mean" if config.run.mode == "oracle" \
            else "solve_all"
        tracer.rebind(cli, solver, _capture(getattr(cli, solver), captured))
        t0 = time.perf_counter()
        try:
            rc = cli.run_config(config, stdout=io.StringIO())
        except FlaggedCellsError as err:
            rc, failure = 1, err
        else:
            failure = None
        solve_s = time.perf_counter() - t0
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {
        "rc": rc,
        "solve_s": solve_s,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
    }
    if failure is not None:
        out.update(ops=failure.total, failed=failure.flagged)
    elif config.run.mode == "oracle":
        out.update(_oracle_outputs(config, captured["result"]))
    else:
        out.update(_grid_outputs(config, captured["result"]))
    if trace:
        out["layers"] = layer_metrics(tracer.spans)
    return out


def main(argv):
    spec = json.loads(argv[1])
    if spec["mode"] == "setup":
        setup(load(spec))
        print("ready", flush=True)
        return 0
    print(json.dumps(measure(spec, trace=spec["mode"] == "trace")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
