import csv
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from nashgrid import (BoxSet, CournotInstance, FactorGrid, FirmParams,
                      FlaggedCellsError, RandomFactor, SolverConfig,
                      cell_conditional_mean, discretize, expectation,
                      make_grid, make_partition, mean_truncation,
                      natural_residual, operator_eval, solve_all, solve_vi,
                      write_cells_csv)
from nashgrid import cournot
from nashgrid.cli import load_config, parse_config

import _oracles as o
from _oracles import cell_operator, grid_cells
from conftest import (five_firm_instance, nine_firm_config,
                      randomized_instance)

ROOT = Path(__file__).resolve().parent.parent


def test_grid_factor_order_and_cell_count():
    inst = five_firm_instance(
        r_factor=RandomFactor.uniform(0.0, 1.0),
        s_factor=RandomFactor.truncated_normal(5000.0, 10.0, 4950.0, 5050.0))
    g = make_grid(inst, n_r=3, n_s=4)
    names = [name for name, _ in g.parts()]
    assert names == ["r", "s", "qbar_1", "qbar_2", "qbar_3", "qbar_4",
                     "qbar_5", "beta_1", "beta_2", "beta_3", "beta_4",
                     "beta_5", "alpha"]
    assert g.shape[:2] == (3, 4)
    assert g.n_cells == 12
    with pytest.raises(ValueError):
        make_grid(inst, n_r=0)


def test_constant_factors_collapse_to_one_cell():
    inst = five_firm_instance()
    g = make_grid(inst, n_r=5, n_s=7)
    # constants ignore the requested resolution
    assert g.n_cells == 1


def test_enumeration_is_lexicographic_with_product_weights():
    # the sweep stores cell c at lexicographic position c: every stored
    # solution solves the cell at that position, and r and s move the
    # solution far more than the tolerance
    inst = five_firm_instance(r_factor=RandomFactor.uniform(0.0, 1.0),
                              s_factor=RandomFactor.uniform(4950.0, 5050.0))
    g = make_grid(inst, n_r=2, n_s=3)
    cfg = SolverConfig(tolerance=1e-10)
    sol = solve_all(inst, g, cfg, keep_cells=True)
    cells = list(grid_cells(g))
    assert sol.n_cells == len(cells) == 6
    assert [c.idx[:2] for c in cells] == [(0, 0), (0, 1), (0, 2), (1, 0),
                                          (1, 1), (1, 2)]
    lo = np.zeros(5)
    for c, cell in enumerate(cells):
        x, res, _, _ = o.extragradient_box_vi(
            cell_operator(inst, cell), lo, cell.upper,
            0.5 * (lo + cell.upper), **asdict(cfg))
        assert res <= cfg.tolerance
        np.testing.assert_allclose(sol.solutions[c], x, atol=1e-8)
    w = sol.weights
    assert all(v == pytest.approx(1.0 / 6.0, abs=1e-13) for v in w)
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)


def test_enumeration_weights_match_factor_probabilities():
    inst = randomized_instance()
    g = make_grid(inst, n_r=4, n_s=5)
    sol = solve_all(inst, g, SolverConfig(), keep_cells=True)
    for c, cell in enumerate(grid_cells(g)):
        want = float(g.r.probabilities[cell.idx[0]]) \
            * float(g.s.probabilities[cell.idx[1]])
        assert sol.weights[c] == pytest.approx(want, rel=1e-15)
        # the sweep multiplies in factor order too
        assert sol.weights[c] == cell.weight


def test_cell_cap_enforced(monkeypatch):
    inst = five_firm_instance(r_factor=RandomFactor.uniform(0.0, 1.0),
                              s_factor=RandomFactor.uniform(0.5, 1.5))
    g = make_grid(inst, n_r=4, n_s=4)
    monkeypatch.setattr(discretize, "CELL_CAP", 10)
    with pytest.raises(ValueError, match="exceeding the cap of 10"):
        solve_all(inst, g, SolverConfig())


def test_single_cell_grid_reproduces_direct_solve():
    inst = five_firm_instance()
    g = make_grid(inst, n_r=1, n_s=1)
    sol = solve_all(inst, g, SolverConfig(), keep_cells=True)
    assert sol.n_cells == 1 and sol.stored
    assert sol.flagged_cells == 0
    np.testing.assert_allclose(sol.solutions[0],
                               o.FROZEN_EQUILIBRIUM_R0_S5000, atol=1e-7)
    assert sol.report.total_weight == 1.0


def test_two_cell_expectation_averages_independent_solves():
    # r uniform on [0,1] with two lower-endpoint cells: reps 0 and 0.5
    inst = five_firm_instance(r_factor=RandomFactor.uniform(0.0, 1.0))
    g = make_grid(inst, n_r=2, n_s=1)
    sol = solve_all(inst, g, SolverConfig(tolerance=1e-10))
    box = BoxSet(np.zeros(5), np.full(5, 100.0))
    singles = []
    for rv in (0.0, 0.5):
        singles.append(solve_vi(
            lambda x, rv=rv: operator_eval(inst, x, rv, 5000.0), box,
            SolverConfig(tolerance=1e-10))[0])
    want = 0.5 * (singles[0] + singles[1])
    np.testing.assert_allclose(expectation(sol).mean, want, atol=1e-9)


def test_every_cell_residual_rechecks_below_tolerance():
    inst = randomized_instance()
    cfg = SolverConfig()
    g = make_grid(inst, n_r=6, n_s=40)
    sol = solve_all(inst, g, cfg, keep_cells=True)
    assert sol.flagged_cells == 0
    for flat, cell in enumerate(grid_cells(g)):
        res = natural_residual(cell_operator(inst, cell),
                               BoxSet(np.zeros(5), cell.upper),
                               sol.solutions[flat])
        assert res <= cfg.tolerance
        # the stored residual is the same number the recheck produces
        assert res == sol.residuals[flat]


def three_firm_instance():
    """A market where capacities, cost multipliers and price shift are random.

    Firms 1 and 2 produce at capacity in every cell and firm 3 in most.
    The surrogate holds the bounds at their first cells, so with several
    bound cells most cells miss at their seeds and take Newton steps.
    """
    firms = tuple(FirmParams(c=c, k=5.0, b=b,
                             q_bar=RandomFactor.uniform(lo, lo + 10.0))
                  for c, b, lo in zip((9.0, 6.0, 3.0), (1.2, 1.0, 0.8),
                                      (37.0, 34.5, 40.5)))
    return CournotInstance(
        firms=firms, a=1 / 1.1, e=1e-4,
        r_factor=RandomFactor.truncated_normal(0.0, 0.25, -0.5, 0.5),
        s_factor=RandomFactor.truncated_normal(5000.0, 10.0, 4950.0, 5050.0),
        beta_factors=tuple(RandomFactor.uniform(lo, lo + 0.1)
                           for lo in (0.65, 0.65, 0.85)),
        alpha_factor=RandomFactor.uniform(-0.1, 0.1))


def reference_chain(inst, grid, cfg):
    """Each r-block's cells solved one at a time, seeded along a chain.

    The cells come from grid_cells and each is solved by the tests' own
    extragradient loop to cfg's tolerance, so the sweep is compared with
    code it shares nothing with but the operator, from seeds it never
    takes. The first inner cell starts at its box midpoint, the second
    at the previous solution, every later one at the secant extrapolation
    of the two previous solutions, clipped into its box; left_box marks
    the cells whose extrapolated seed lay outside it.
    """
    cells = list(grid_cells(grid))
    inner = len(cells) // grid.r.n_cells
    lo = np.zeros(grid.m)
    out = {"solutions": [], "residuals": [], "left_box": []}
    for start in range(0, len(cells), inner):
        x0 = x1 = None
        for ii, cell in enumerate(cells[start:start + inner]):
            if ii == 0:
                seed = 0.5 * (lo + cell.upper)
            elif ii == 1:
                seed = x1
            else:
                seed = 2.0 * x1 - x0
            out["left_box"].append(bool(((seed < lo)
                                         | (seed > cell.upper)).any()))
            x, res, _, _ = o.extragradient_box_vi(
                cell_operator(inst, cell), lo, cell.upper,
                np.clip(seed, lo, cell.upper), **asdict(cfg))
            out["solutions"].append(x)
            out["residuals"].append(res)
            x0, x1 = x1, x
    return {k: np.array(v) for k, v in out.items()}


def assert_within_references(got, inst, grid, cfg):
    """The sweep against the per-cell and the chain reference of its grid.

    Every solution of the three has a natural residual of at most
    cfg.tolerance (REFERENCE_TOLERANCE for the per-cell one), so to first
    order each lies within kappa times its residual of the cell's
    solution, and two of them within kappa times the sum of both of each
    other; the means within the weighted sum of those bounds. Returns
    the chain reference.
    """
    cells = o.reference_cells(inst, grid, cfg)
    chain = reference_chain(inst, grid, cfg)
    assert (chain["residuals"] <= cfg.tolerance).all()
    assert got.converged.all()
    np.testing.assert_array_equal(got.weights, cells["weights"])
    for want, tol in ((cells, o.REFERENCE_TOLERANCE), (chain, cfg.tolerance)):
        bound = cells["kappa"] * (cfg.tolerance + tol)
        gap = np.sqrt(((got.solutions - want["solutions"]) ** 2).sum(axis=1))
        assert (gap <= bound).all()
        mean = np.array([math.fsum(cells["weights"] * v)
                         for v in want["solutions"].T])
        assert (np.abs(got.report.mean - mean)
                <= math.fsum(cells["weights"] * bound)).all()
    return chain


@pytest.mark.parametrize("inst, counts", [
    (randomized_instance(), dict(n_r=6, n_s=40)),
    (three_firm_instance(),
     dict(n_r=3, n_s=5, n_bounds=2, n_betas=2, n_alpha=2)),
    # long r-blocks: one chunk per block, and five chunks of one block
    (randomized_instance(), dict(n_r=2, n_s=4000)),
    (randomized_instance(), dict(n_r=1, n_s=20000)),
], ids=["five_firm_6x40", "three_firm_random_box", "five_firm_2x4000",
        "five_firm_1x20000"])
def test_sweep_matches_single_cell_reference_chain(inst, counts):
    cfg = SolverConfig(initial_step=1.4)
    g = make_grid(inst, **counts)
    sol = solve_all(inst, g, cfg, keep_cells=True)
    assert_within_references(sol, inst, g, cfg)


@pytest.mark.parametrize("inst, counts", [
    (randomized_instance(), dict(n_r=6, n_s=40)),
    (three_firm_instance(),
     dict(n_r=3, n_s=5, n_bounds=2, n_betas=2, n_alpha=2)),
], ids=["five_firm_6x40", "three_firm_random_box"])
def test_stored_grid_report_matches_exact_fsum(inst, counts):
    # the moments folded during the sweep are the only moments path;
    # exact summation over the stored cells checks them
    g = make_grid(inst, **counts)
    sol = solve_all(inst, g, SolverConfig(initial_step=1.4), keep_cells=True)
    rep = expectation(sol)
    assert rep is sol.report
    w = sol.weights
    for j in range(inst.m):
        v = sol.solutions[:, j]
        assert rep.mean[j] == pytest.approx(math.fsum(w * v), abs=1e-13)
        assert rep.second_moment[j] == pytest.approx(math.fsum(w * v * v),
                                                     abs=1e-12)
    assert rep.total_weight == pytest.approx(math.fsum(w), abs=1e-14)


def test_streaming_mode_keeps_moments_only():
    inst = randomized_instance()
    g = make_grid(inst, n_r=3, n_s=4)
    sol = solve_all(inst, g, SolverConfig(), keep_cells=False)
    assert not sol.stored
    assert sol.solutions is None
    rep = expectation(sol)
    full = solve_all(inst, g, SolverConfig(), keep_cells=True)
    np.testing.assert_allclose(rep.mean, expectation(full).mean, atol=1e-14)
    with pytest.raises(ValueError):
        write_cells_csv(sol, "/tmp/never.csv")


def test_flagged_cells_raise_or_count(tmp_path):
    inst = randomized_instance()
    g = make_grid(inst, n_r=2, n_s=2)
    starved = SolverConfig(max_iterations=1, initial_step=1e-9)
    with pytest.raises(FlaggedCellsError) as err:
        solve_all(inst, g, starved)
    sol = solve_all(inst, g, starved, keep_cells=True,
                    max_flagged_fraction=1.0)
    assert sol.flagged_cells == 4
    assert not sol.converged.any()
    assert err.value.worst_residual == sol.residuals.max()
    # a fraction outside [0, 1], NaN included, is refused up front
    for bad in (-0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match="max_flagged_fraction"):
            solve_all(inst, g, starved, max_flagged_fraction=bad)


def test_non_finite_residual_reports_infinite_worst(monkeypatch):
    inst = randomized_instance()
    g = make_grid(inst, n_r=2, n_s=2)
    poisoned_r = g.r.representatives[0]
    real = discretize.operator_eval

    def poisoned(instance, x, r, *args, **kwargs):
        out = real(instance, x, r, *args, **kwargs)
        out[:, np.asarray(r) == poisoned_r] = np.nan
        return out

    monkeypatch.setattr(discretize, "operator_eval", poisoned)
    cfg = SolverConfig(initial_step=1.4)
    with pytest.raises(FlaggedCellsError) as err:
        solve_all(inst, g, cfg)
    assert err.value.flagged == 2
    assert err.value.worst_residual == math.inf
    sol = solve_all(inst, g, cfg, keep_cells=True, max_flagged_fraction=1.0)
    assert np.isnan(sol.residuals[:2]).all()
    assert sol.converged.tolist() == [False, False, True, True]


def exiting_firm_instance():
    """The random five-firm market where firm 1 leaves as alpha falls.

    Firms 2 to 5 produce at their capacity of 30 in every cell, and
    firm 1, at cost 30, produces nothing in about 60% of them. The
    surrogate holds alpha, the innermost factor, at its first cell, so
    most cells of other alphas miss at their seed.
    """
    base = randomized_instance()
    capped = RandomFactor.constant(30.0)
    firms = [replace(f, q_bar=capped) for f in base.firms]
    firms[0] = replace(base.firms[0], c=30.0)
    return replace(base, firms=tuple(firms),
                   alpha_factor=RandomFactor.uniform(-0.5, 0.5))


@pytest.mark.parametrize("inst, counts", [
    (three_firm_instance(),
     dict(n_r=2, n_s=2, n_bounds=2, n_betas=2, n_alpha=2)),
    (exiting_firm_instance(), dict(n_r=2, n_s=20, n_alpha=8)),
], ids=["above_changing_capacities", "below_an_exit"])
def test_seeds_that_leave_their_box_take_the_clipped_chain(monkeypatch, inst,
                                                           counts):
    # the surrogate overshoots capacities that bind, where they change
    # with the bound cells or where firm 1 exits, and the chain's secants
    # leave their boxes too; the sweep screens every seed clipped into its
    # box, and matches the chain reference, which clips likewise
    g = make_grid(inst, **counts)
    cfg = SolverConfig(initial_step=1.4)
    raw = []
    real_seeds = discretize._seeds

    def seeds_spy(*args):
        x = real_seeds(*args)
        raw.append(x.copy())
        return x

    monkeypatch.setattr(discretize, "_seeds", seeds_spy)
    screens, _ = sweep_spies(monkeypatch)
    sol = solve_all(inst, g, cfg, keep_cells=True)
    upper = np.array([c.upper for c in grid_cells(g)]).T
    raw = np.concatenate(raw, axis=1)
    assert ((raw < 0.0) | (raw > upper)).any(axis=0).any()
    np.testing.assert_array_equal(np.concatenate(screens, axis=1),
                                  np.clip(raw, 0.0, upper))
    chain = assert_within_references(sol, inst, g, cfg)
    assert chain["left_box"].any()


def poisoned_operator(grid, r_cell, s_cell):
    """operator_eval, with all-NaN values at one (r, s) cell of the grid."""
    poisoned_r = grid.r.representatives[r_cell]
    poisoned_s = grid.s.representatives[s_cell]

    def poisoned(instance, x, r, s, *args, **kwargs):
        out = operator_eval(instance, x, r, s, *args, **kwargs)
        hit = (np.asarray(r) == poisoned_r) & (np.asarray(s) == poisoned_s)
        out[:, np.broadcast_to(hit, out.shape[1:])] = np.nan
        return out
    return poisoned


SHIPPED = load_config(ROOT / "configs" / "expectation_grid.json")
NINE_FIRMS = parse_config(nine_firm_config())


@pytest.mark.parametrize("inst, counts, cfg, poison", [
    (SHIPPED.instance, dict(n_r=3, n_s=40), SHIPPED.solver, None),
    (three_firm_instance(), dict(n_r=3, n_s=10, n_bounds=2, n_alpha=2),
     SolverConfig(initial_step=1.4), None),
    (randomized_instance(), dict(n_r=4, n_s=60), SolverConfig(), None),
    (randomized_instance(), dict(n_r=3, n_s=3000),
     SolverConfig(initial_step=1.4), (1, 1500)),
    (NINE_FIRMS.instance, dict(n_r=2, n_s=2000), NINE_FIRMS.solver, None),
    (three_firm_instance(), dict(n_r=3, n_s=10, n_betas=2, n_alpha=2),
     SolverConfig(initial_step=1.4), None),
], ids=["shipped_3x40", "three_firm_bounds_alpha", "five_firm_4x60",
        "poisoned_3x3000", "nine_firm_2x2000", "three_firm_betas_alpha"])
def test_sweep_matches_its_executable_spec(monkeypatch, inst, counts, cfg,
                                           poison):
    # every cell against the same cell solved on its own from its box
    # midpoint (_oracles.reference_cells). Both solutions have natural
    # residuals of at most cfg.tolerance and REFERENCE_TOLERANCE, so to
    # first order each lies within kappa times its residual of the cell's
    # solution, and the two within kappa times the sum of both of each
    # other; the mean within the weighted sum of those bounds
    g = make_grid(inst, **counts)
    if poison:
        op = poisoned_operator(g, *poison)
        monkeypatch.setattr(discretize, "operator_eval", op)
        monkeypatch.setattr(cournot, "operator_eval", op)
    want = o.reference_cells(inst, g, cfg)
    got = solve_all(inst, g, cfg, keep_cells=True, max_flagged_fraction=1.0)
    bound = want["kappa"] * (cfg.tolerance + o.REFERENCE_TOLERANCE)
    gap = np.sqrt(((got.solutions - want["solutions"]) ** 2).sum(axis=1))
    finite = np.isfinite(want["solutions"]).all(axis=1)
    assert (gap[finite] <= bound[finite]).all()
    np.testing.assert_array_equal(got.weights, want["weights"])
    np.testing.assert_array_equal(np.isfinite(got.solutions).all(axis=1),
                                  finite)
    assert got.flagged_cells == np.count_nonzero(~finite)
    assert (got.residuals[finite] <= cfg.tolerance).all()
    if poison:
        assert got.flagged_cells == 1
        assert np.isnan(got.report.mean).all()
    else:
        assert (np.abs(got.report.mean - want["mean"])
                <= math.fsum(want["weights"] * bound)).all()


def test_a_non_finite_cell_stays_in_its_cell(monkeypatch):
    # the poisoned cell is frozen non-finite and flagged; every other
    # cell, its chunk's included, keeps the bits of the unpoisoned sweep
    inst = randomized_instance()
    g = make_grid(inst, n_r=3, n_s=3000)
    cfg = SolverConfig(initial_step=1.4)
    clean = solve_all(inst, g, cfg, keep_cells=True)
    monkeypatch.setattr(discretize, "operator_eval",
                        poisoned_operator(g, 1, 1500))
    sol = solve_all(inst, g, cfg, keep_cells=True, max_flagged_fraction=1.0)
    bad = 3000 + 1500
    assert sol.flagged_cells == 1
    assert np.isnan(sol.solutions[bad]).all() and np.isnan(sol.residuals[bad])
    assert not sol.converged[bad]
    others = np.arange(g.n_cells) != bad
    for key in ("solutions", "weights", "residuals", "iterations"):
        np.testing.assert_array_equal(getattr(sol, key)[others],
                                      getattr(clean, key)[others],
                                      err_msg=key)
    assert np.isnan(sol.report.mean).all()


def sweep_spies(monkeypatch):
    """Spy on the sweep's screens and solver batches.

    Returns (screens, batches): a copy of the points of every operator
    call made outside the batch solver, one per chunk, and the column
    count of every solve_box_vi_batch call.
    """
    real_eval = discretize.operator_eval
    real_batch = discretize.solve_box_vi_batch
    screens, batches, solving = [], [], []

    def eval_spy(instance, q, *args, **kwargs):
        if not solving:
            screens.append(q.copy())
        return real_eval(instance, q, *args, **kwargs)

    def batch_spy(operator, lower, upper, config, seeds, **kwargs):
        batches.append(seeds.shape[1])
        solving.append(None)
        try:
            return real_batch(operator, lower, upper, config, seeds,
                              **kwargs)
        finally:
            solving.pop()

    monkeypatch.setattr(discretize, "operator_eval", eval_spy)
    monkeypatch.setattr(discretize, "solve_box_vi_batch", batch_spy)
    return screens, batches


def test_the_shipped_sweep_takes_its_pinned_rounds_and_screens(monkeypatch):
    # a round is one chunk: one screen of its seeds, then one solver batch
    # for its misses, if any. The counts repeat exactly, because the bits
    # do; only a deliberate change of the surrogate or the chunks may
    # move them
    config = load_config(ROOT / "configs" / "expectation_grid.json")
    g = make_grid(config.instance, n_r=8, n_s=4000)
    screens, batches = sweep_spies(monkeypatch)
    sol = solve_all(config.instance, g, config.solver, keep_cells=True)
    # the surrogate's 8 x 8 nodes, one round per 4000-cell r-block, and
    # no cell missed at its seed
    assert batches == [64]
    assert [q.shape[1] for q in screens] == [4000] * 8
    assert not sol.iterations.any()


def test_no_mode_starts_a_process(tmp_path):
    # in a fresh interpreter, so that no other test's imports count
    code = """
import io, os, sys
from dataclasses import replace
from nashgrid import cli
forks, real_fork = [], os.fork
def fork():
    forks.append(None)
    return real_fork()
os.fork = fork
base = cli.load_config(sys.argv[1])
for mode in ("discretize", "ladder"):
    config = replace(
        base, discretization=replace(base.discretization, n_r=2, n_s=40),
        run=replace(base.run, mode=mode, parallelism=2,
                    ladder=((2, 20), (3, 40)), out_dir=sys.argv[2]))
    assert cli.run_config(config, stdout=io.StringIO()) == 0
print(len(forks), sorted(m for m in ("mmap", "fcntl", "nashgrid._forkfold")
                         if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code,
         str(ROOT / "configs" / "expectation_grid.json"), str(tmp_path)],
        env=env, check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout == "0 []\n"
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "ladder.csv").exists()


def test_cells_csv_round_trip(tmp_path, monkeypatch):
    # on the three-firm grid every factor has several cells, so every
    # idx_* column varies; 7-cell blocks put block ends inside both grids
    monkeypatch.setattr(discretize, "_DUMP_BLOCK", 7)
    for inst, counts in [
            (randomized_instance(), dict(n_r=2, n_s=3)),
            (three_firm_instance(),
             dict(n_r=3, n_s=5, n_bounds=2, n_betas=2, n_alpha=2))]:
        g = make_grid(inst, **counts)
        sol = solve_all(inst, g, SolverConfig(), keep_cells=True)
        path = write_cells_csv(sol, tmp_path / "cells.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        names = [name for name, _ in g.parts()]
        cells = list(grid_cells(g))
        assert len(rows) == len(cells) == g.n_cells
        for flat, (row, cell) in enumerate(zip(rows, cells)):
            assert tuple(int(row[f"idx_{nm}"]) for nm in names) == cell.idx
            reps = [float(row[f"rep_{nm}"]) for nm in names]
            assert reps == [cell.r, cell.s, *cell.upper, *cell.beta,
                            cell.alpha]
            assert float(row["weight"]) == cell.weight
            assert float(row["residual"]) == sol.residuals[flat]
            assert int(row["iterations"]) == sol.iterations[flat]
            got = [float(row[f"u_{i + 1}"]) for i in range(inst.m)]
            assert got == sol.solutions[flat].tolist()
        varying = [nm for nm in names
                   if len({row[f"idx_{nm}"] for row in rows}) > 1]
        assert varying == [nm for nm, p in g.parts() if p.n_cells > 1]
    assert varying == names


def test_mean_truncation_constant_function():
    f = RandomFactor.uniform(0.0, 1.0)
    part = make_partition(f, 5)
    out = mean_truncation(lambda r: np.full_like(r, 3.25), (f,), (part,))
    assert out.tolist() == [3.25] * 5


def test_mean_truncation_identity_on_uniform_cells():
    f = RandomFactor.uniform(0.0, 1.0)
    part = make_partition(f, 4)
    out = mean_truncation(lambda r: r, (f,), (part,))
    np.testing.assert_allclose(out, [0.125, 0.375, 0.625, 0.875], atol=1e-12)


def test_mean_truncation_matches_quadrature_oracle():
    f = RandomFactor.truncated_normal(0.0, 0.25, -0.5, 0.5)
    part = make_partition(f, 10)
    out = mean_truncation(lambda r: r ** 2, (f,), (part,))
    lo, hi = f.support

    def dens(t):
        return o._normal_pdf(t, 0.0, 0.25)

    for i in range(10):
        a, b = part.breakpoints[i], part.breakpoints[i + 1]
        want = o.quad_conditional_mean_fn(lambda t: t * t, dens, a, b)
        assert out[i] == pytest.approx(want, abs=1e-8)


def test_mean_truncation_idempotent_exactly():
    f = RandomFactor.truncated_normal(0.0, 0.25, -0.5, 0.5)
    part = make_partition(f, 8)
    first = mean_truncation(lambda r: np.sin(3.0 * r), (f,), (part,))

    def step(r):
        cell = np.clip(np.searchsorted(part.breakpoints, r, side="right") - 1,
                       0, part.n_cells - 1)
        return first[cell]

    second = mean_truncation(step, (f,), (part,))
    assert second.tolist() == first.tolist()


def test_mean_truncation_zero_probability_cells():
    f = RandomFactor.truncated_normal(0.0, 0.01, -1.0, 1.0)
    part = make_partition(f, 10)
    out = mean_truncation(lambda r: np.full_like(r, 5.0), (f,), (part,))
    # outer cells carry no mass at all: the operator zeroes them
    assert out[0] == 0.0 and out[-1] == 0.0
    assert out[4] == 5.0 and out[5] == 5.0


def test_mean_truncation_two_factors_separable():
    fr = RandomFactor.uniform(0.0, 1.0)
    fs = RandomFactor.truncated_normal(5000.0, 10.0, 4950.0, 5050.0)
    pr = make_partition(fr, 3)
    ps = make_partition(fs, 4)
    out = mean_truncation(lambda r, s: r + s, (fr, fs), (pr, ps))
    assert out.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            want = cell_conditional_mean(fr, pr.breakpoints[i],
                                         pr.breakpoints[i + 1]) \
                + cell_conditional_mean(fs, ps.breakpoints[j],
                                        ps.breakpoints[j + 1])
            assert out[i, j] == pytest.approx(want, abs=1e-9)


def test_mean_truncation_rejects_bad_target():
    f = RandomFactor.uniform(0.0, 1.0)
    part = make_partition(f, 2)
    with pytest.raises(ValueError):
        mean_truncation(lambda r: np.array([1.0]), (f,), (part,))
    with pytest.raises(FloatingPointError):
        mean_truncation(lambda r: np.full_like(r, np.inf), (f,), (part,))


def test_grid_sweep_and_truncation_inputs():
    inst = five_firm_instance()
    two_firms = CournotInstance(firms=inst.firms[:2], a=inst.a, e=inst.e,
                                r_factor=inst.r_factor, s_factor=inst.s_factor)
    with pytest.raises(ValueError, match="different firm counts"):
        solve_all(inst, make_grid(two_firms))
    with pytest.raises(ValueError, match="unknown rule keys"):
        make_grid(inst, rules={"time": "midpoint"})
    c = RandomFactor.constant(2.0)
    u = RandomFactor.uniform(0.0, 1.0)
    parts = [make_partition(c, 3), make_partition(u, 2)]
    # a constant factor enters at its value: E[c u | cell] = 2 E[u | cell]
    got = mean_truncation(lambda x, y: x * y, [c, u], parts)
    np.testing.assert_allclose(got, [[0.5, 1.5]], rtol=1e-14)
    assert mean_truncation(lambda x: x * x, [c], parts[:1]).tolist() == [4.0]
    with pytest.raises(ValueError, match="one partition per factor"):
        mean_truncation(lambda x: x, [u], parts)


def test_a_factor_grid_needs_one_bound_and_one_beta_group_per_firm():
    g = make_grid(five_firm_instance())
    with pytest.raises(ValueError, match="^need one bound and one beta "
                                         "partition per firm$"):
        FactorGrid(r=g.r, s=g.s, bounds=g.bounds, betas=g.betas[:4],
                   alpha=g.alpha)
