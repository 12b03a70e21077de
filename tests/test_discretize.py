import csv
import errno
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
from nashgrid import aggregate, cournot
from nashgrid.cli import load_config, parse_config

import _oracles as o
from _oracles import cell_operator, grid_cells
from conftest import (assert_no_child_left, fails_if_it_hangs,
                      five_firm_instance, nine_firm_config,
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

    Firms 1 and 2 produce at capacity in every cell and firm 3 in most,
    so the grid mixes cells solved at iteration 0 with cells that take
    over a hundred iterations.
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
    """Each r-block's cells solved one at a time, seeded as the sweep seeds.

    The cells come from grid_cells and each is solved by the tests' own
    extragradient loop, so the sweep is compared with code it shares
    nothing with but the operator. The first inner cell starts at its
    box midpoint, the second at the previous solution, every later one
    at the clipped secant extrapolation of the two previous solutions.
    """
    cells = list(grid_cells(grid))
    inner = len(cells) // grid.r.n_cells
    lo = np.zeros(grid.m)
    out = {"solutions": [], "residuals": [], "iterations": [], "weights": []}
    for start in range(0, len(cells), inner):
        x0 = x1 = None
        for ii, cell in enumerate(cells[start:start + inner]):
            if ii == 0:
                seed = 0.5 * (lo + cell.upper)
            elif ii == 1:
                seed = x1
            else:
                seed = np.clip(2.0 * x1 - x0, lo, cell.upper)
            x, res, its, _ = o.extragradient_box_vi(
                cell_operator(inst, cell), lo, cell.upper, seed, **asdict(cfg))
            out["solutions"].append(x)
            out["residuals"].append(res)
            out["iterations"].append(its)
            out["weights"].append(cell.weight)
            x0, x1 = x1, x
    return {k: np.array(v) for k, v in out.items()}


@pytest.mark.parametrize("inst, counts", [
    (randomized_instance(), dict(n_r=6, n_s=40)),
    (three_firm_instance(),
     dict(n_r=3, n_s=5, n_bounds=2, n_betas=2, n_alpha=2)),
    # long windows: up to 8 cells per r-block, and up to the cap of 32
    (randomized_instance(), dict(n_r=2, n_s=4000)),
    (randomized_instance(), dict(n_r=1, n_s=20000)),
], ids=["five_firm_6x40", "three_firm_random_box", "five_firm_2x4000",
        "five_firm_1x20000"])
def test_sweep_matches_single_cell_reference_chain(inst, counts):
    cfg = SolverConfig(initial_step=1.4)
    g = make_grid(inst, **counts)
    sol = solve_all(inst, g, cfg, keep_cells=True)
    want = reference_chain(inst, g, cfg)
    assert sol.converged.all()
    for key, ref in want.items():
        np.testing.assert_array_equal(getattr(sol, key), ref, err_msg=key)


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


STEP_FIELDS = ("solutions", "weights", "residuals", "iterations",
               "converged", "flagged_cells")


def assert_same_sweep(got, want):
    """Stored cells and report of two sweeps agree bit for bit."""
    for key in STEP_FIELDS:
        np.testing.assert_array_equal(getattr(got, key), getattr(want, key),
                                      err_msg=key)
    for key in ("mean", "second_moment", "variance", "total_weight"):
        assert (np.asarray(getattr(got.report, key)).tobytes()
                == np.asarray(getattr(want.report, key)).tobytes()), key


def sweep_twice(monkeypatch, inst, grid, cfg, **kwargs):
    """The sweep as shipped, and with its windows cut to one cell.

    Also returns the largest number of cells one operator call
    evaluated in the windowed sweep.
    """
    real = discretize.operator_eval
    rows = []

    def counting(instance, q, *args, **kw):
        rows.append(q.shape[1])
        return real(instance, q, *args, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(discretize, "operator_eval", counting)
        windowed = solve_all(inst, grid, cfg, keep_cells=True, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(discretize, "_WINDOW_CAP", 1)
        one_cell = solve_all(inst, grid, cfg, keep_cells=True, **kwargs)
    return windowed, one_cell, max(rows)


def test_window_sweep_matches_one_cell_windows_on_shipped_market(monkeypatch):
    config = load_config(ROOT / "configs" / "expectation_grid.json")
    g = make_grid(config.instance, n_r=8, n_s=4000)
    windowed, one_cell, widest = sweep_twice(monkeypatch, config.instance,
                                             g, config.solver)
    # some round screened several cells per r-block in one call
    assert widest > 2 * g.r.n_cells
    assert windowed.converged.all()
    assert_same_sweep(windowed, one_cell)


def test_window_sweep_matches_one_cell_windows_across_bound_cells(
        monkeypatch):
    # the bound index changes every 16 inner cells; windows run longer
    inst = three_firm_instance()
    g = make_grid(inst, n_r=2, n_s=5, n_bounds=2, n_betas=2, n_alpha=2)
    windowed, one_cell, widest = sweep_twice(
        monkeypatch, inst, g, SolverConfig(initial_step=1.4))
    assert widest > 16 * g.r.n_cells
    assert_same_sweep(windowed, one_cell)


@pytest.mark.parametrize("counts, bounds_vary", [
    (dict(n_r=3, n_s=10, n_bounds=2, n_alpha=2), True),
    (dict(n_r=3, n_s=10, n_betas=2, n_alpha=2), False),
], ids=["bounds_vary", "betas_vary"])
def test_window_sweep_matches_one_cell_windows_with_one_group_fixed(
        monkeypatch, counts, bounds_vary):
    # a bound or beta group without a varying factor reaches the kernel
    # and the solver as one (m, 1) column built once per grid; the other
    # group as one column per cell
    inst = three_firm_instance()
    g = make_grid(inst, **counts)
    # (shape, cells of the call) of every upper and beta passed
    calls = {"upper": [], "beta": []}
    real_eval = discretize.operator_eval
    real_batch = discretize.solve_box_vi_batch

    def eval_spy(instance, q, r, s, beta, *args, **kwargs):
        calls["beta"].append((beta.shape, q.shape[1]))
        return real_eval(instance, q, r, s, beta, *args, **kwargs)

    def batch_spy(operator, lower, upper, config, seeds, **kwargs):
        calls["upper"].append((upper.shape, seeds.shape[1]))
        return real_batch(operator, lower, upper, config, seeds, **kwargs)

    monkeypatch.setattr(discretize, "operator_eval", eval_spy)
    monkeypatch.setattr(discretize, "solve_box_vi_batch", batch_spy)
    windowed, one_cell, widest = sweep_twice(
        monkeypatch, inst, g, SolverConfig(initial_step=1.4))
    # some window held several cells of each r-block
    assert widest > g.r.n_cells
    assert windowed.converged.all()
    assert_same_sweep(windowed, one_cell)
    fixed, varying = ("beta", "upper") if bounds_vary else ("upper", "beta")
    assert {shape for shape, _ in calls[fixed]} == {(3, 1)}
    assert all(shape == (3, cells) for shape, cells in calls[varying])
    for group in calls.values():
        assert max(cells for _, cells in group) > 1


def screened_cells(monkeypatch):
    """Spy on the sweep's screens: one entry, its cell count, per round.

    A round screens its window with one operator call made outside the
    batch solver; the solver's own operator calls are not counted.
    """
    real_eval = discretize.operator_eval
    real_batch = discretize.solve_box_vi_batch
    screens, solving = [], []

    def eval_spy(instance, q, *args, **kwargs):
        if not solving:
            screens.append(q.shape[1])
        return real_eval(instance, q, *args, **kwargs)

    def batch_spy(*args, **kwargs):
        solving.append(None)
        try:
            return real_batch(*args, **kwargs)
        finally:
            solving.pop()

    monkeypatch.setattr(discretize, "operator_eval", eval_spy)
    monkeypatch.setattr(discretize, "solve_box_vi_batch", batch_spy)
    return screens


def test_the_shipped_sweep_takes_its_pinned_rounds_and_screens(monkeypatch):
    # the counts repeat exactly, because the bits do; only a deliberate
    # change of the window rule may move them
    config = load_config(ROOT / "configs" / "expectation_grid.json")
    g = make_grid(config.instance, n_r=8, n_s=4000)
    screens = screened_cells(monkeypatch)
    solve_all(config.instance, g, config.solver)
    assert (len(screens), sum(screens)) == (1581, 45803)


def exiting_firm_instance():
    """The random five-firm market where firm 1 leaves as alpha falls.

    Firms 2 to 5 produce at their capacity of 30 in every cell, and
    firm 1, at cost 30, produces nothing in about 60% of them. Alpha,
    the innermost factor, rises along each run of its cells and falls
    back at the next, where firm 1 leaves, so a seed extrapolated past
    the fall is negative.
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
    # some windows' unclipped seeds leave their box, above capacities that
    # bind and change with the bound cells, or below zero; those rounds
    # seed again slot by slot, clipped, and the others keep the unclipped
    # seeds
    g = make_grid(inst, **counts)
    cfg = SolverConfig(initial_step=1.4)
    clipped = []
    real_clip = discretize._clipped_seeds

    def clip_spy(*args):
        clipped.append(None)
        return real_clip(*args)

    with monkeypatch.context() as patch:
        patch.setattr(discretize, "_clipped_seeds", clip_spy)
        screens = screened_cells(patch)
        windowed = solve_all(inst, g, cfg, keep_cells=True)
    assert 0 < len(clipped) < len(screens)
    assert max(screens) > g.r.n_cells
    assert windowed.converged.all()
    assert_same_sweep(windowed, o.reference_sweep(inst, g, cfg))
    with monkeypatch.context() as patch:
        patch.setattr(discretize, "_WINDOW_CAP", 1)
        assert_same_sweep(windowed, solve_all(inst, g, cfg, keep_cells=True))


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


def test_poisoned_block_restarts_mid_chain_as_one_cell_windows(monkeypatch):
    inst = randomized_instance()
    g = make_grid(inst, n_r=3, n_s=3000)
    monkeypatch.setattr(discretize, "operator_eval",
                        poisoned_operator(g, 1, 1500))
    windowed, one_cell, widest = sweep_twice(
        monkeypatch, inst, g, SolverConfig(initial_step=1.4),
        max_flagged_fraction=1.0)
    assert widest > 2 * g.r.n_cells
    assert_same_sweep(windowed, one_cell)
    bad = 3000 + 1500
    assert windowed.flagged_cells == 1
    assert np.isnan(windowed.solutions[bad]).all()
    assert not windowed.converged[bad]
    # the next cell starts over from its box midpoint and converges
    assert windowed.converged[bad + 1:2 * 3000].all()
    assert np.isfinite(windowed.solutions[bad + 1]).all()
    assert np.isnan(windowed.report.mean).all()


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
], ids=["shipped_3x40", "three_firm_bounds_alpha", "five_firm_4x60",
        "poisoned_3x3000", "nine_firm_2x2000"])
def test_sweep_matches_its_executable_spec(monkeypatch, inst, counts, cfg,
                                           poison):
    # every stored array and report field, bit for bit, against the cells
    # solved one at a time from the documented seeds (_oracles)
    g = make_grid(inst, **counts)
    if poison:
        op = poisoned_operator(g, *poison)
        monkeypatch.setattr(discretize, "operator_eval", op)
        monkeypatch.setattr(cournot, "operator_eval", op)
    want = o.reference_sweep(inst, g, cfg)
    # at 2 a forked child folds the moments
    for parallelism in (1, 2):
        got = solve_all(inst, g, cfg, keep_cells=True,
                        max_flagged_fraction=1.0, parallelism=parallelism)
        assert_same_sweep(got, want)
        assert got.flagged_cells == (1 if poison else 0)


def test_solve_all_needs_an_integer_parallelism():
    inst = randomized_instance()
    g = make_grid(inst, n_r=2, n_s=3)
    for bad in (0, -2, 1.5, 2.0, "2", None):
        with pytest.raises(ValueError,
                           match="parallelism must be an integer >= 1"):
            solve_all(inst, g, parallelism=bad)
    want = solve_all(inst, g, keep_cells=True)
    assert_same_sweep(solve_all(inst, g, keep_cells=True,
                                parallelism=np.int64(2)), want)
    assert_no_child_left()


def test_an_operator_error_at_parallelism_two_leaves_no_child(monkeypatch):
    inst = randomized_instance()
    g = make_grid(inst, n_r=3, n_s=400)
    real = discretize.operator_eval
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 50:
            raise ZeroDivisionError("the operator failed mid-sweep")
        return real(*args, **kwargs)

    monkeypatch.setattr(discretize, "operator_eval", failing)
    with fails_if_it_hangs():
        with pytest.raises(ZeroDivisionError, match="mid-sweep"):
            solve_all(inst, g, SolverConfig(initial_step=1.4), parallelism=2)
    assert_no_child_left()


def test_flagged_cells_at_parallelism_two_leave_no_child():
    inst = randomized_instance()
    g = make_grid(inst, n_r=2, n_s=2)
    starved = SolverConfig(max_iterations=1, initial_step=1e-9)
    with fails_if_it_hangs():
        with pytest.raises(FlaggedCellsError) as err:
            solve_all(inst, g, starved, parallelism=2)
    assert err.value.flagged == 4
    assert_no_child_left()


def test_a_fold_error_in_the_child_raises_runtime_error(monkeypatch):
    def broken(*args):
        raise FloatingPointError("a fold step failed")

    # the fold's child is forked inside solve_all and inherits the patch
    monkeypatch.setattr(aggregate, "neumaier_add", broken)
    inst = randomized_instance()
    g = make_grid(inst, n_r=3, n_s=400)
    with fails_if_it_hangs():
        with pytest.raises(RuntimeError, match="child process"):
            solve_all(inst, g, SolverConfig(initial_step=1.4), parallelism=2)
    assert_no_child_left()


def test_without_fork_parallelism_two_folds_in_process(monkeypatch):
    # where os has no fork, folded_in_child folds in the calling process
    inst = randomized_instance()
    g = make_grid(inst, n_r=3, n_s=40)
    want = solve_all(inst, g, keep_cells=True)
    monkeypatch.delattr(os, "fork")
    assert_same_sweep(solve_all(inst, g, keep_cells=True, parallelism=2),
                      want)


def test_a_failed_fork_raises_and_closes_every_pipe_end(monkeypatch):
    def no_fork():
        raise OSError(errno.EAGAIN, "no process to spare")

    pipes = []
    real_pipe = os.pipe

    def pipe():
        pipes.append(real_pipe())
        return pipes[-1]

    inst = randomized_instance()
    g = make_grid(inst, n_r=2, n_s=3)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "pipe", pipe)
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError) as err:
        solve_all(inst, g, parallelism=2)
    assert err.value.errno == errno.EAGAIN
    # the one pipe was made, and both its ends closed
    assert len(pipes) == 1
    assert len(os.listdir("/proc/self/fd")) == fds


def test_only_parallelism_two_forks_and_once_per_grid():
    # in a fresh interpreter, so that no other test has imported the fold
    code = """
import os, sys
from conftest import randomized_instance
from nashgrid import make_grid, solve_all
forks, real_fork = [], os.fork
def fork():
    pid = real_fork()
    forks.append(pid)
    return pid
os.fork = fork
inst = randomized_instance()
grids = [make_grid(inst, n_r=2, n_s=n_s) for n_s in (3, 40)]
for g in grids:
    solve_all(inst, g, parallelism=1)
print(len(forks), 'nashgrid._forkfold' in sys.modules)
for g in grids:
    solve_all(inst, g, parallelism=2)
print(len(forks))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split("\n") == ["0 False", "2", ""]


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
