"""Self-tests of the benchmark: gates, failure counting, tracer, determinism.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import nashgrid  # noqa: E402
from nashgrid import aggregate  # noqa: E402
from nashgrid.aggregate import MomentReport, write_summary_csv  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench import trace, worker  # noqa: E402

PIN = bench.pinned_mean()


def grid_result(**changes):
    out = {"rc": 0, "ops": 100, "failed": 0, "mean": PIN.tolist(),
           "streamed_mean": PIN.tolist(), "total_weight": 1.0, "flagged": 0}
    out.update(changes)
    return out


def mc_result(**changes):
    se = np.full(5, 1.75e-3)
    # where a correct solver lands: below the pin by its discretization bias
    out = {"rc": 0, "ops": 100, "failed": 0,
           "mean": (PIN - np.asarray(bench.PIN_BIAS) - 2 * se).tolist(),
           "se": se.tolist()}
    out.update(changes)
    return out


def failures(workload, result):
    return bench.gate(workload, result, PIN)[0]


def test_gates_pass_on_correct_results():
    assert failures("grid_stream", grid_result()) == []
    assert failures("grid_stored", grid_result()) == []
    assert failures("mc_100k", mc_result()) == []


@pytest.mark.parametrize("workload", ["grid_stream", "grid_stored"])
@pytest.mark.parametrize("change", [
    {"rc": 1},
    {"failed": 1},
    {"flagged": 1},
    {"total_weight": 1.0 + 1e-8},
    {"mean": (PIN + np.array([0, 0, np.nan, 0, 0])).tolist()},
])
def test_grid_gates_trip(workload, change):
    assert failures(workload, grid_result(**change))


def test_grid_stream_gate_trips_on_shifted_mean():
    assert failures("grid_stream", grid_result(mean=(PIN + 1e-8).tolist()))


def test_grid_stored_gates_trip():
    stored = grid_result(mean=(PIN + 1e-8).tolist())
    assert failures("grid_stored", stored)  # disagrees with the streamed mean
    off = (PIN + 0.051).tolist()
    assert failures("grid_stored", grid_result(mean=off, streamed_mean=off))


@pytest.mark.parametrize("change", [
    {"rc": 1},
    {"failed": 1},
    {"mean": (PIN - np.asarray(bench.PIN_BIAS) - 5.01 * 1.75e-3).tolist()},
    {"mean": (PIN + np.array([np.nan, 0, 0, 0, 0])).tolist()},
])
def test_mc_gates_trip(change):
    assert failures("mc_100k", mc_result(**change))


def test_flagged_run_without_output_fails():
    assert failures("grid_stream", {"rc": 1, "ops": 100, "failed": 3})


def _solution(tmp_path, solutions, converged, stored=True):
    mean = np.asarray(solutions).mean(axis=0)
    report = MomentReport(mean=mean, second_moment=mean ** 2,
                          variance=np.zeros_like(mean), total_weight=1.0)
    write_summary_csv(report, tmp_path / "summary.csv")
    n = len(converged)
    return SimpleNamespace(
        n_cells=n, stored=stored, report=report,
        converged=np.asarray(converged), solutions=np.asarray(solutions),
        flagged_cells=int(n - np.count_nonzero(converged)))


def test_failures_are_counted_from_outputs(tmp_path):
    config = SimpleNamespace(run=SimpleNamespace(out_dir=str(tmp_path)))
    ok = [[1.0, 2.0]] * 3
    unconverged = _solution(tmp_path, ok, [True, False, True])
    assert worker._grid_outputs(config, unconverged)["failed"] == 1
    # a converged-looking row with a non-finite value still fails
    nan_row = _solution(tmp_path, [[1.0, 2.0], [np.nan, 2.0], [1.0, 2.0]],
                        [True, True, True])
    assert worker._grid_outputs(config, nan_row)["failed"] == 1
    # streamed: a non-finite mean fails every cell
    streamed = _solution(tmp_path, [[1.0, np.inf]] * 3, [True] * 3,
                         stored=False)
    assert worker._grid_outputs(config, streamed)["failed"] == 3


def test_self_time_subtracts_union_of_concurrent_children():
    parent = ["p", None, 0.0, 0.0, 10.0, 10.0, None]
    # two children on different threads overlapping in [3, 4]
    a = ["a", parent, 1.0, 1.5, 3.5, 4.0, None]
    b = ["b", parent, 3.0, 3.5, 5.5, 6.0, None]
    selfs = trace.self_times([parent, a, b])
    assert selfs[id(parent)] == pytest.approx(5.0)
    assert selfs[id(a)] == pytest.approx(2.0)


def _attributes():
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "nashgrid" or name.startswith("nashgrid.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("RunningMoments", k): v
                 for k, v in vars(aggregate.RunningMoments).items()})
    return snap


def _assert_unchanged(before):
    after = _attributes()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def small_grid_spec(tmp_path):
    # shipped parallelism=2, so the thread-pool path is traced too
    return {"config": "configs/expectation_grid.json",
            "discretization": {"n_r": 4, "n_s": 50},
            "run": {"out_dir": str(tmp_path)}}


def small_mc_spec(tmp_path, seed):
    return {"config": "configs/monte_carlo.json",
            "run": {"parallelism": 1, "n_samples": 8192, "seed": seed,
                    "out_dir": str(tmp_path)}}


def test_tracer_restores_module_attributes(tmp_path):
    import nashgrid.cli  # noqa: F401  (snapshot every module the tracer touches)
    before = _attributes()
    grid = worker.measure(small_grid_spec(tmp_path), trace=True)
    assert grid["layers"]["vi.batches"] == 2 * 50
    assert grid["layers"]["aggregate.add_calls"] == 2 * 50
    assert grid["layers"]["discretize.sweep_self_us_per_front"] > 0
    _assert_unchanged(before)
    mc = worker.measure(small_mc_spec(tmp_path, 3), trace=True)
    assert mc["layers"]["oracle.chunks"] == 2
    _assert_unchanged(before)
    with pytest.raises(ZeroDivisionError):
        with trace.Tracer() as tracer:
            trace.instrument(tracer)
            1 / 0
    _assert_unchanged(before)
    assert nashgrid.cli.solve_all is nashgrid.discretize.solve_all


def test_same_seed_gives_identical_mc_output(tmp_path):
    first = worker.measure(small_mc_spec(tmp_path, 7))
    second = worker.measure(small_mc_spec(tmp_path, 7))
    other = worker.measure(small_mc_spec(tmp_path, 8))
    assert first["output"] == second["output"]
    assert first["output"] != other["output"]
