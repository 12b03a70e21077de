"""Byte pins of shipped outputs: the SHA-256 of the CSV file of every mode.

The digests were recorded under Python 3.11.7, numpy 2.4.6 and scipy
1.17.1, whose scipy.special.ndtr and ndtri then made the truncated-normal
weights and samples. nashgrid._normal evaluates the same Cephes
algorithms bit for bit (tests/test_normal.py), so the bytes depend on
numpy's IEEE arithmetic and the C library's exp and log, not on scipy.
A change that keeps every floating-point operation in its order keeps
these bytes; only a deliberate re-pin of the shipped results
(ROADMAP direction 3) may change them, and then together with the
pinned mean in test_acceptance.py.

- summary.csv of configs/expectation_grid_small.json (50 x 2000 cells);
- cells.csv of the same market at 10 x 300 cells with dump_cells;
- oracle.csv of configs/monte_carlo.json at 8192 samples, seeds 1 and 7;
- summary.csv of configs/deterministic.json;
- ladder.csv of configs/refinement_ladder.json cut to the two levels
  5 x 20 and 10 x 40, where every cell misses at its seed;
- summary.csv at 10 x 2000 cells and oracle.csv at 4096 samples of the
  nine-firm market of conftest.nine_firm_config, built here, whose sums
  over the firms run past 8 items;
- oracle.csv at 4096 samples, seed 1, of conftest.random_bounds_instance,
  whose batch shrinks while it is solved (the shipped markets' samples
  all converge at the same iteration).
"""
import hashlib
import io
from dataclasses import replace
from pathlib import Path

import pytest

from nashgrid.cli import load_config, parse_config, run_config
from nashgrid.oracle import monte_carlo_mean, write_oracle_csv
from nashgrid.vi import SolverConfig

from conftest import nine_firm_config, random_bounds_instance

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
NINE_FIRMS = "nine firms"

PINS = [
    ("expectation_grid_small.json", {}, {}, "summary.csv",
     "9a68e5dd9d455f9b98217481558ef21a977ecc5d7c4a7fab00b0a4406eb2e198"),
    ("expectation_grid_small.json", {"n_r": 10, "n_s": 300},
     {"dump_cells": True}, "cells.csv",
     "b889f7b77ce74af76227d4dab60a288e0721c0144a098bc228bffc923c790f26"),
    ("monte_carlo.json", {}, {"n_samples": 8192, "seed": 1}, "oracle.csv",
     "ba1a6f6f0a49d885cefc7636b99a10f5a90310e740d6fe9206a64cdb9f3461d0"),
    ("monte_carlo.json", {}, {"n_samples": 8192, "seed": 7}, "oracle.csv",
     "357eed2702d6ce38a32f85653d2c0581eb4d323dc6766b6499136925dc5164e2"),
    ("deterministic.json", {}, {}, "summary.csv",
     "69a35ecbb67f610186287d5bbb8ec11bbdcd901358577c5b4fd237f57113c922"),
    ("refinement_ladder.json", {}, {"ladder": ((5, 20), (10, 40))},
     "ladder.csv",
     "3c1b69b7c61803559599208da3554a12d4c68e8e03f9d3c40462618c32240103"),
    (NINE_FIRMS, {"n_r": 10, "n_s": 2000}, {}, "summary.csv",
     "d9b789b0fa475307f42bab2626fc76d898a805af517bb0c8d7c7d98736c1b12c"),
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
