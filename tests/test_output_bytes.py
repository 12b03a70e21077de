"""Byte pins of shipped outputs: the SHA-256 of the CSV file of every mode.

The digests were recorded under Python 3.11.7, numpy 2.4.6 and scipy
1.17.1, whose scipy.special.ndtr and ndtri then made the truncated-normal
weights and samples. nashgrid._normal evaluates the same Cephes
algorithms bit for bit (tests/test_normal.py), so the bytes depend on
numpy's IEEE arithmetic and the C library's exp and log, not on scipy.
A change that keeps every floating-point operation in its order keeps
these bytes; only a deliberate re-pin of the shipped results may change
them, and then together with the pinned mean in test_acceptance.py. The
grid-mode digests were last recorded when the sweep began to seed every
cell from its surrogate and cells above mu took their masses from the
upper tail; the oracle digests are older.

- summary.csv of configs/expectation_grid_small.json (50 x 2000 cells);
- cells.csv of the same market at 10 x 300 cells with dump_cells;
- oracle.csv of configs/monte_carlo.json at 8192 samples, seeds 1 and 7;
- summary.csv of configs/deterministic.json;
- ladder.csv of configs/refinement_ladder.json cut to the two levels
  5 x 20 and 10 x 40;
- summary.csv at 10 x 2000 cells and oracle.csv at 4096 samples of the
  nine-firm market of conftest.nine_firm_config, built here, whose sums
  over the firms run past 8 items;
- oracle.csv at 4096 samples, seed 1, of conftest.random_bounds_instance,
  whose batch shrinks while it is solved (the shipped markets' samples
  all converge at the same iteration);
- cells.csv of the same market at 4 x 50 x 3 bound cells, where 1600 of
  the 1800 cells miss at their surrogate seeds and take Newton steps
  (every cell of the shipped markets passes at its seed).
"""
import hashlib
import io
from dataclasses import replace
from pathlib import Path

import pytest

from nashgrid.cli import load_config, parse_config, run_config
from nashgrid.discretize import make_grid, solve_all, write_cells_csv
from nashgrid.oracle import monte_carlo_mean, write_oracle_csv
from nashgrid.vi import SolverConfig

from conftest import nine_firm_config, random_bounds_instance

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
NINE_FIRMS = "nine firms"

PINS = [
    ("expectation_grid_small.json", {}, {}, "summary.csv",
     "f197abf14b0ab4986ac8a8c07fd886d78fb2dd3ed363e1844ac829b3a0002acf"),
    ("expectation_grid_small.json", {"n_r": 10, "n_s": 300},
     {"dump_cells": True}, "cells.csv",
     "78538b3544c08965f3d2ba68278ef8f3718311b1f94aa2fe65220287ccaab20e"),
    ("monte_carlo.json", {}, {"n_samples": 8192, "seed": 1}, "oracle.csv",
     "ba1a6f6f0a49d885cefc7636b99a10f5a90310e740d6fe9206a64cdb9f3461d0"),
    ("monte_carlo.json", {}, {"n_samples": 8192, "seed": 7}, "oracle.csv",
     "357eed2702d6ce38a32f85653d2c0581eb4d323dc6766b6499136925dc5164e2"),
    ("deterministic.json", {}, {}, "summary.csv",
     "eb1bf9c11d0898ad189e37571d60dd369e891c979c4b3561bae83f50bc56f530"),
    ("refinement_ladder.json", {}, {"ladder": ((5, 20), (10, 40))},
     "ladder.csv",
     "c7a6be8a57cd5888111b59f9f98945ad946100b7cb53b7271dcc54e43f6cbb2a"),
    (NINE_FIRMS, {"n_r": 10, "n_s": 2000}, {}, "summary.csv",
     "86aa4e7be8d9937297344d5c72eadc9629de2c88d68d70a4f6a27f1ee2fe3629"),
    (NINE_FIRMS, {}, {"mode": "oracle", "n_samples": 4096, "seed": 1},
     "oracle.csv",
     "0108d808efbb5534271dfa101a371cf5b7e153f0398e2247acaeba1a58866b42"),
]


@pytest.mark.parametrize("name, grid, run, output, digest", PINS,
                         ids=[f"{p[0]}:{p[3]}:{i}" for i, p in enumerate(PINS)])
def test_output_bytes_are_pinned(tmp_path, name, grid, run, output, digest):
    config = (parse_config(nine_firm_config()) if name == NINE_FIRMS
              else load_config(str(CONFIGS / name)))
    config = replace(
        config, discretization=replace(config.discretization, **grid),
        run=replace(config.run, out_dir=str(tmp_path), **run))
    assert run_config(config, stdout=io.StringIO()) == 0
    data = (tmp_path / output).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_shrinking_oracle_batch_bytes_are_pinned(tmp_path):
    report = monte_carlo_mean(random_bounds_instance(), 4096, 1,
                              SolverConfig(initial_step=1.4))
    path = tmp_path / "oracle.csv"
    write_oracle_csv(report, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "7edcab418fbe0974b12b830bc30886e8ad1f6ab8b30f61b27d099c46206599aa")


def test_newton_finished_cells_bytes_are_pinned(tmp_path):
    inst = random_bounds_instance()
    grid = make_grid(inst, n_r=4, n_s=50, n_bounds=3)
    sol = solve_all(inst, grid, SolverConfig(initial_step=1.4),
                    keep_cells=True)
    path = write_cells_csv(sol, tmp_path / "cells.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9c06bfbcc7ed899356b5a4c44e237a9f97ccbfb52b6500240a855cd65e4d5e20")
