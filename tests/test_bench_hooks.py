"""The names the traced benchmark rebinds stay importable, restorable and called.

perfbench/trace.py wraps nashgrid module attributes by name; a renamed
or dropped attribute makes ``perfbench/run.py --trace 1`` fail, and a
name that stays bound but is no longer called makes its layer metrics
read 0. These tests enter the tracer, instrument every hook and exit,
and run small traced solves of the shipped configs, so either change
fails here first.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import trace, worker  # noqa: E402

from nashgrid import aggregate, cli, discretize, oracle  # noqa: E402


def test_tracer_instruments_and_restores_every_hook():
    owners = (aggregate.RunningMoments, cli, discretize, oracle)
    before = [dict(vars(owner)) for owner in owners]
    with trace.Tracer() as tracer:
        trace.instrument(tracer)
        assert discretize.solve_box_vi_batch is not \
            before[2]["solve_box_vi_batch"]
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert [k for k in saved if now.get(k) is not saved[k]] == []


def test_traced_stored_grid_records_every_layer(tmp_path):
    # 4 x 50 = 200 cells: a cell dump makes the CLI store them, and it
    # calls expectation()
    out = worker.measure({"config": "configs/expectation_grid.json",
                          "discretization": {"n_r": 4, "n_s": 50},
                          "run": {"out_dir": str(tmp_path),
                                  "dump_cells": True}}, trace=True)
    assert out["rc"] == 0 and out["failed"] == 0
    layers = out["layers"]
    for key in ("cournot.calls", "vi.batches", "aggregate.add_calls",
                "aggregate.expectation_s"):
        assert layers[key] > 0, key


def test_traced_monte_carlo_records_every_layer(tmp_path):
    out = worker.measure({"config": "configs/monte_carlo.json",
                          "run": {"n_samples": 4096,
                                  "out_dir": str(tmp_path)}}, trace=True)
    assert out["rc"] == 0 and out["failed"] == 0
    layers = out["layers"]
    assert layers["cournot.calls"] > 0
    assert layers["vi.batches"] > 0
    assert layers["oracle.chunks"] == 1
