"""End-to-end acceptance checks for the bundled five-firm market.

Each test covers one acceptance criterion at its stated tolerance, so a
verbose run reads as one pass/fail line per criterion. The heavyweight
grid sweeps are shared module-scoped fixtures.
"""

import io
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from nashgrid import (BoxSet, RandomFactor, SolverConfig, check_monotone,
                      jacobian_form_test, make_grid, make_partition,
                      mean_truncation, monte_carlo_mean, operator_eval, pdf,
                      price_part, solve_all, solve_vi, welfare)
from nashgrid.cli import load_config, run_config
from nashgrid.oracle import CHUNK_SIZE

import _oracles as o
from conftest import (assert_no_child_left, five_firm_instance,
                      randomized_instance)

# reference values for this market configuration
GOLDEN_DETERMINISTIC = (36.937, 41.817, 43.706, 42.659, 39.179)

# The expected equilibrium of the randomized market, from the package-free
# Gauss-Legendre oracle; criterion 02 checks the grid means against it.
REFERENCE_EXPECTED_EQUILIBRIUM = o.FROZEN_EXPECTED_EQUILIBRIUM

# An external tabulation of this market's 200 x 20000 grid mean, once
# criterion 02's reference and now kept for the record only; nothing is
# asserted against it. It is not the market's expectation:
#  - it lies 28..82 standard errors below the 100000-sample Monte Carlo
#    mean at seeds 1 and 2, where the pinned mean below sits 1.5 and 4.8
#    standard errors above (the first-order bias of lower-endpoint
#    representatives) and the quadrature reference within 2;
#  - it lies 0.052..0.064 below the quadrature reference, while the
#    pinned mean is within 0.0063 of it and the 200 x 20000 grid with
#    midpoint or conditional-mean representatives within 3e-7;
#  - it equals 0.998427 x the pinned mean to within 4.7e-4 on every
#    component: the same lower-endpoint cell solutions summed with weights
#    that total about 0.99843 instead of 1.
# How the tabulation lost that mass is not settled. Dropping one boundary
# r-row of the grid (weight sum 0.998846) still leaves it 0.014..0.020 away.
TABULATED_MEAN_200_20000 = (36.8855, 41.7615, 43.6448, 42.5972, 39.121)

# pinned regression values produced by this library (lower-endpoint
# representatives; bitwise reproducible across runs). Every cell is
# solved from its surrogate seed, so the mean is the rule's own value:
# within 5e-14 of the 200 x 20000 grid with every cell solved from its
# box midpoint to natural residual 1e-13
PINNED_MEAN_200_20000 = (36.9437393166641, 41.82755078305037,
                         43.71374271174174, 42.66422525494142,
                         39.182169476137325)

SOLVER = SolverConfig(initial_step=1.4)
MC_SEED = 1
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def run_200_20000():
    inst = randomized_instance()
    grid = make_grid(inst, n_r=200, n_s=20000)
    return solve_all(inst, grid, SOLVER)


@pytest.fixture(scope="module")
def run_400_40000():
    inst = randomized_instance()
    grid = make_grid(inst, n_r=400, n_s=40000)
    return solve_all(inst, grid, SOLVER)


@pytest.fixture(scope="module")
def mc_100k():
    return monte_carlo_mean(randomized_instance(), 100000, MC_SEED, SOLVER)


def test_criterion_01_deterministic_golden_under_one_second():
    inst = five_firm_instance()
    start = time.perf_counter()
    rules = {k: "conditional_mean" for k in ("r", "s", "bounds", "betas",
                                             "alpha")}
    grid = make_grid(inst, rules=rules)
    solution = solve_all(inst, grid, SolverConfig(), keep_cells=True)
    elapsed = time.perf_counter() - start
    dev = np.abs(solution.solutions[0] - np.array(GOLDEN_DETERMINISTIC))
    assert dev.max() <= 5e-3
    assert elapsed < 1.0


def test_criterion_02_reference_mean_full_scale(run_200_20000):
    # A grid that loses probability mass the way the tabulated values did
    # misses this reference by more than 0.05.
    mean = run_200_20000.report.mean
    dev = np.abs(mean - np.array(REFERENCE_EXPECTED_EQUILIBRIUM))
    assert dev.max() <= 2e-2, (
        f"components deviate by {dev.tolist()} from the reference mean")


def test_criterion_02_reference_mean_ci_scale():
    inst = randomized_instance()
    grid = make_grid(inst, n_r=50, n_s=2000)
    solution = solve_all(inst, grid, SOLVER)
    dev = np.abs(solution.report.mean
                 - np.array(REFERENCE_EXPECTED_EQUILIBRIUM))
    assert dev.max() <= 2e-1


def test_criterion_02_reference_oracle_reproduces_frozen_value():
    # the cheaper 10 x 24 rule; the frozen value used 14 x 40
    again = o.quadrature_expected_equilibrium(
        o.TABLE_FIRMS, (0.0, 0.25, -0.5, 0.5), (5000.0, 10.0, 4950.0, 5050.0),
        o.MODEL_A, o.MODEL_E, 100.0, n_r=10, n_s=24)
    dev = np.abs(np.array(again) - np.array(o.FROZEN_EXPECTED_EQUILIBRIUM))
    assert dev.max() <= 1e-7


def test_criterion_03_refinement_consistency(run_200_20000,
                                             run_400_40000):
    gap = np.abs(run_400_40000.report.mean
                 - run_200_20000.report.mean)
    assert gap.max() <= 0.05


def test_criterion_04_monte_carlo_agrees_within_three_sigma(run_400_40000,
                                                            mc_100k):
    assert mc_100k.failed_solves == 0
    gap = np.abs(mc_100k.mean - run_400_40000.report.mean)
    assert (gap <= 3.0 * mc_100k.standard_error).all(), (
        f"gap {gap.tolist()} vs 3*se "
        f"{(3.0 * mc_100k.standard_error).tolist()}")


def test_criterion_05_monotonicity_suite():
    inst = randomized_instance()
    box = BoxSet(np.zeros(5), np.full(5, 100.0))
    rng = np.random.default_rng(17)

    # 10^4 random point pairs across sampled factor realizations
    for draw in range(20):
        r = rng.uniform(-0.5, 0.5)
        s = rng.uniform(4950.0, 5050.0)
        rep = check_monotone(
            lambda x, r=r, s=s: operator_eval(inst, x, r, s),
            box, num_pairs=500, seed=1000 + draw)
        assert rep.passed, f"ratio {rep.min_ratio} at r={r}, s={s}"
        assert rep.min_ratio > 0.0

    # 10^4 quadratic-form evaluations of the price-part derivative
    for _ in range(10000):
        q = rng.uniform(0.0, 100.0, 5)
        h = rng.standard_normal(5)
        s = rng.uniform(4950.0, 5050.0)
        assert jacobian_form_test(inst, q, h, s) > 0.0

    # the closed-form quadratic form matches a finite-difference Jacobian
    for _ in range(20):
        q = rng.uniform(5.0, 95.0, 5)
        h = rng.standard_normal(5)
        s = rng.uniform(4950.0, 5050.0)
        J = o.fd_jacobian(lambda x: price_part(inst, x, s), q, h=1e-5)
        want = float(h @ J @ h)
        got = jacobian_form_test(inst, q, h, s)
        assert got == pytest.approx(want, rel=1e-5)


def test_criterion_06_operator_is_welfare_gradient():
    inst = randomized_instance()
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(1000):
        q = rng.uniform(1.0, 99.0, 5)
        r = rng.uniform(-0.5, 0.5)
        s = rng.uniform(4950.0, 5050.0)
        F = operator_eval(inst, q, r, s)
        i = int(rng.integers(0, 5))

        def own(t):
            trial = q.copy()
            trial[i] = t
            return welfare(inst, i, trial, r, s)

        h = 1e-4 * max(1.0, q[i])
        fd = (own(q[i] + h) - own(q[i] - h)) / (2.0 * h)
        rel = abs(fd + F[i]) / max(1.0, abs(F[i]))
        worst = max(worst, rel)
    assert worst <= 1e-6


def test_criterion_07_truncation_operator_suite():
    factor = RandomFactor.truncated_normal(0.0, 0.25, -0.5, 0.5)
    lo, hi = factor.support

    # idempotence: a cell-constant function is reproduced exactly
    part = make_partition(factor, 12)
    first = mean_truncation(lambda t: np.exp(t) * np.sin(3.0 * t),
                            (factor,), (part,))

    def step(t):
        cell = np.clip(np.searchsorted(part.breakpoints, t, side="right") - 1,
                       0, part.n_cells - 1)
        return first[cell]

    assert mean_truncation(step, (factor,), (part,)).tolist() == \
        first.tolist()

    # probability-weighted p-norm never grows, p in {2, 9/4}
    rng = np.random.default_rng(29)
    part10 = make_partition(factor, 10)
    for _ in range(100):
        coeffs = rng.uniform(-2.0, 2.0, 5)

        def poly(t, c=coeffs):
            return c[0] + t * (c[1] + t * (c[2] + t * (c[3] + t * c[4])))

        cell_means = mean_truncation(poly, (factor,), (part10,))
        for p in (2.0, 9.0 / 4.0):
            discrete = float(np.sum(part10.probabilities
                                    * np.abs(cell_means) ** p)) ** (1.0 / p)
            full, _ = quad(lambda t: abs(poly(t)) ** p * pdf(factor, t),
                           lo, hi, epsabs=1e-12, limit=200)
            assert discrete <= full ** (1.0 / p) + 1e-10

    # pointwise convergence strictly improves along the refinement ladder
    def smooth(t):
        return np.exp(t) * np.sin(3.0 * t) + t * t

    errors = []
    for n in (10, 40, 160):
        pn = make_partition(factor, n, "conditional_mean")
        vals = mean_truncation(smooth, (factor,), (pn,))
        errors.append(np.abs(vals - smooth(pn.representatives)).max())
    assert errors[0] > errors[1] > errors[2]


def test_criterion_08_solver_matches_active_set_oracle():
    rng = np.random.default_rng(31)
    cfg = SolverConfig()
    for _ in range(100):
        m = int(rng.integers(1, 7))
        A = rng.standard_normal((m, m))
        M = A @ A.T + (0.3 + rng.random()) * np.eye(m)
        d = rng.standard_normal(m) * 5.0
        lo = rng.uniform(-3.0, 0.0, m)
        hi = lo + rng.uniform(0.5, 4.0, m)
        x, report = solve_vi(lambda x, M=M, d=d: x @ M.T + d,
                             BoxSet(lo, hi), cfg)
        ref = o.active_set_box_vi(M, d, lo, hi)
        assert report.converged
        assert np.abs(x - ref).max() <= 10.0 * cfg.tolerance


def test_criterion_09_worker_counts_agree(tmp_path):
    # the oracle runs its chunks in the calling thread whatever the
    # parallelism, which the CLI still accepts and checks in every mode.
    # A grid sweep also runs and folds in the calling thread, and the
    # grid tests below hold its outputs to the bytes of parallelism 1.
    base = load_config(ROOT / "configs" / "monte_carlo.json")
    written = []
    for workers in (1, 2, 3):
        out = tmp_path / f"workers{workers}"
        config = replace(base, run=replace(
            base.run, n_samples=3 * CHUNK_SIZE + 100, parallelism=workers,
            out_dir=str(out)))
        assert run_config(config, stdout=io.StringIO()) == 0
        written.append((out / "oracle.csv").read_bytes())
    assert written[1] == written[0]
    assert written[2] == written[0]


# (config, discretization overrides, run overrides, output file)
GRID_OUTPUTS = [
    ("expectation_grid_small.json", {}, {}, "summary.csv"),
    ("expectation_grid_small.json", {"n_r": 10, "n_s": 300},
     {"dump_cells": True}, "cells.csv"),
    ("refinement_ladder.json", {}, {}, "ladder.csv"),
]


@pytest.mark.parametrize("name, grid, run, output", GRID_OUTPUTS,
                         ids=[p[3] for p in GRID_OUTPUTS])
def test_grid_outputs_agree_across_worker_counts(tmp_path, name, grid, run,
                                                 output):
    base = load_config(ROOT / "configs" / name)
    written = []
    for workers in (1, 2, 3):
        out = tmp_path / f"workers{workers}"
        config = replace(
            base, discretization=replace(base.discretization, **grid),
            run=replace(base.run, parallelism=workers, out_dir=str(out),
                        **run))
        assert run_config(config, stdout=io.StringIO()) == 0
        written.append((out / output).read_bytes())
    assert written[1] == written[0]
    assert written[2] == written[0]
    assert_no_child_left()


def test_pinned_expectation_regression(run_200_20000):
    # the sweep is bitwise deterministic, which makes a tight pin safe
    got = run_200_20000.report.mean
    assert np.abs(got - np.array(PINNED_MEAN_200_20000)).max() <= 1e-12
    assert run_200_20000.report.total_weight == \
        pytest.approx(1.0, abs=1e-9)
    assert run_200_20000.flagged_cells == 0
