"""Cartesian cell grids over the random factors and the cell-wise sweep.

Each random factor gets a 1-d partition; the product of the partitions
tiles the probability space into cells. Freezing every factor at its
cell representative turns the stochastic equilibrium problem into one
finite-dimensional box VI per cell, and the weighted family of cell
solutions is a step-function approximation of the random equilibrium.

The sweep exploits two kinds of structure. First, only the additive
cost shift depends on the outermost factor (r), so all cells that share
the inner indices differ by a constant shift and can be solved together
as one batched VI ("front"). Second, neighboring fronts have nearly
identical solutions, so each front is seeded by extrapolating the two
previous solutions, which cuts iteration counts to nearly one.

The sweep solves every r-block in one front, in the calling thread.
Rows of a front are frozen individually the moment they converge and
all elementwise arithmetic is position-stable, so each cell lands
exactly where a single-cell solve from the same seed would; per-block
moment accumulators are merged in canonical block order.
"""
from __future__ import annotations

import csv
import math
# unused by the sweep; the benchmark tracer (perfbench/trace.py) rebinds it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .aggregate import RunningMoments, fold_moments, moment_report
from .cournot import operator_eval
from .distributions import Partition1D, make_partition
from .vi import SolverConfig, solve_box_vi_batch

CELL_CAP_DEFAULT = 100_000_000
# above this many cells, per-cell arrays are not stored by default
STORE_CELL_LIMIT = 2_000_000

DEFAULT_RULES = {
    "r": "lower_endpoint",
    "s": "lower_endpoint",
    "bounds": "conditional_mean",
    "betas": "lower_endpoint",
    "alpha": "lower_endpoint",
}


@dataclass(frozen=True)
class FactorGrid:
    """Per-factor partitions in sweep order: r, s, bounds, betas, alpha."""

    r: Partition1D
    s: Partition1D
    bounds: tuple
    betas: tuple
    alpha: Partition1D

    def __post_init__(self):
        object.__setattr__(self, "bounds", tuple(self.bounds))
        object.__setattr__(self, "betas", tuple(self.betas))
        if len(self.bounds) != len(self.betas) or not self.bounds:
            raise ValueError("need one bound and one beta partition per firm")

    @property
    def m(self):
        return len(self.bounds)

    def parts(self):
        """Ordered (name, Partition1D) pairs; the cell index follows this order."""
        named = [("r", self.r), ("s", self.s)]
        named += [(f"qbar_{i + 1}", p) for i, p in enumerate(self.bounds)]
        named += [(f"beta_{i + 1}", p) for i, p in enumerate(self.betas)]
        named.append(("alpha", self.alpha))
        return named

    @property
    def shape(self):
        return tuple(p.n_cells for _, p in self.parts())

    @property
    def n_cells(self):
        return math.prod(self.shape)


def make_grid(instance, n_r=1, n_s=1, n_bounds=1, n_betas=1, n_alpha=1,
              rules=None):
    """Partition every factor of the instance into a FactorGrid.

    rules maps factor groups ("r", "s", "bounds", "betas", "alpha") to a
    representative rule. Defaults: lower endpoints for the operator and
    shift factors, conditional means for the bounds. Constant factors
    collapse to a single cell whatever their requested resolution.
    """
    merged = dict(DEFAULT_RULES)
    if rules:
        unknown = set(rules) - set(merged)
        if unknown:
            raise ValueError(f"unknown rule keys {sorted(unknown)}")
        merged.update(rules)
    return FactorGrid(
        r=make_partition(instance.r_factor, n_r, merged["r"]),
        s=make_partition(instance.s_factor, n_s, merged["s"]),
        bounds=tuple(make_partition(f.q_bar, n_bounds, merged["bounds"])
                     for f in instance.firms),
        betas=tuple(make_partition(bf, n_betas, merged["betas"])
                    for bf in instance.beta_factors),
        alpha=make_partition(instance.alpha_factor, n_alpha, merged["alpha"]),
    )


@dataclass
class StepSolution:
    """A solved grid: folded moments plus (optionally) per-cell arrays.

    Per-cell arrays are indexed in lexicographic cell order over
    FactorGrid.parts() (np.unravel_index(c, grid.shape) is cell c's
    index tuple); they are None for streamed runs that folded cells into
    the moment accumulators without storing them.
    """

    grid: FactorGrid
    report: object
    solver_config: SolverConfig
    n_cells: int
    flagged_cells: int
    solutions: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    residuals: Optional[np.ndarray] = None
    iterations: Optional[np.ndarray] = None
    converged: Optional[np.ndarray] = None

    @property
    def stored(self):
        return self.solutions is not None


class FlaggedCellsError(RuntimeError):
    """Raised when more cells failed to converge than the policy allows."""

    def __init__(self, flagged, total, worst_residual):
        super().__init__(
            f"{flagged} of {total} cells failed to converge "
            f"(worst residual {worst_residual:.3e})")
        self.flagged = flagged
        self.total = total
        self.worst_residual = worst_residual


def solve_all(instance, grid, solver_config=None, keep_cells=None,
              cell_cap=CELL_CAP_DEFAULT, max_flagged_fraction=0.0):
    """Solve every cell problem of the grid.

    Cells are organized into one block per r-cell; each front (one cell
    per block at equal inner position) is solved as one batched VI over
    all blocks, with extrapolated warm starts along the inner sweep.
    The sweep runs in the calling thread. Once a front has frozen a
    non-finite row, any row whose extrapolated seed is non-finite starts
    from its box midpoint instead.

    Args:
        instance: the market model.
        grid: FactorGrid from make_grid (factor counts must match).
        solver_config: SolverConfig, defaults if omitted.
        keep_cells: force storing (True) or streaming (False) per-cell
            arrays; default stores grids up to 2e6 cells.
        cell_cap: refuse grids larger than this.
        max_flagged_fraction: tolerated fraction of non-converged cells
            before FlaggedCellsError (default: none).

    Returns:
        StepSolution; its report carries the weighted moments.
    """
    if grid.m != instance.m:
        raise ValueError("grid and instance have different firm counts")
    config = solver_config or SolverConfig()
    n = grid.n_cells
    if n > cell_cap:
        raise ValueError(
            f"grid has {n} cells, exceeding the cap of {cell_cap}; lower the "
            f"per-factor resolution or raise cell_cap")
    if keep_cells is None:
        keep_cells = n <= STORE_CELL_LIMIT
    m = instance.m

    r_reps = grid.r.representatives
    r_probs = grid.r.probabilities
    inner_parts = [p for _, p in grid.parts()][1:]
    inner_shape = tuple(p.n_cells for p in inner_parts)
    inner_count = math.prod(inner_shape)
    n_blocks = grid.r.n_cells
    s_reps = grid.s.representatives
    s_probs = grid.s.probabilities
    bound_reps = [p.representatives for p in grid.bounds]
    bound_probs = [p.probabilities for p in grid.bounds]
    beta_reps = [p.representatives for p in grid.betas]
    beta_probs = [p.probabilities for p in grid.betas]
    alpha_reps = grid.alpha.representatives
    alpha_probs = grid.alpha.probabilities
    lower = np.zeros(m)

    if keep_cells:
        solutions = np.empty((n, m))
        weights = np.empty(n)
        residuals = np.empty(n)
        iterations = np.empty(n, dtype=np.int64)
        converged = np.empty(n, dtype=bool)
        block_ids = np.arange(n_blocks) * inner_count
    else:
        solutions = weights = residuals = iterations = converged = None

    acc = RunningMoments(m, lead=(n_blocks,))
    flagged = 0
    worst = 0.0
    lost = False
    x1 = x0 = None
    for ii in range(inner_count):
        idx = np.unravel_index(ii, inner_shape)
        k = idx[0]
        s_rep = float(s_reps[k])
        upper = np.array([bound_reps[f][idx[1 + f]] for f in range(m)])
        beta = np.array([beta_reps[f][idx[1 + m + f]] for f in range(m)])
        alpha = float(alpha_reps[idx[-1]])
        # cell weights, multiplied in canonical factor order (r first)
        w = r_probs * float(s_probs[k])
        for f in range(m):
            w = w * float(bound_probs[f][idx[1 + f]])
        for f in range(m):
            w = w * float(beta_probs[f][idx[1 + m + f]])
        w = w * float(alpha_probs[idx[-1]])

        if ii == 0:
            seeds = np.broadcast_to(0.5 * (lower + upper), (n_blocks, m))
        elif ii == 1:
            seeds = x1
        else:
            seeds = np.clip(2.0 * x1 - x0, lower, upper)
        if lost:
            # a frozen non-finite row must not seed the operator with NaN
            finite = np.isfinite(seeds).all(axis=1, keepdims=True)
            seeds = np.where(finite, seeds, 0.5 * (lower + upper))

        def op(x, rows, _s=s_rep, _b=beta, _a=alpha):
            return operator_eval(instance, x, r_reps[rows], _s, _b, _a)

        out = solve_box_vi_batch(op, lower, upper, config, seeds)
        sols = out["solutions"]
        conv = out["converged"]
        if not conv.all():
            bad = out["residuals"][~conv]
            flagged += bad.size
            lost = lost or not np.isfinite(bad).all()
            # a non-finite residual must not vanish from the report
            worst = max(worst, float(
                np.where(np.isfinite(bad), bad, np.inf).max()))
        acc.add(w, sols)
        if keep_cells:
            ids = block_ids + ii
            solutions[ids] = sols
            weights[ids] = w
            residuals[ids] = out["residuals"]
            iterations[ids] = out["iterations"]
            converged[ids] = conv
        x0, x1 = x1, sols

    report = moment_report(fold_moments([acc], m), flagged_cells=flagged)
    if flagged > max_flagged_fraction * n:
        raise FlaggedCellsError(flagged, n, worst)
    if abs(report.total_weight - 1.0) > 1e-9:
        raise RuntimeError(
            f"cell weights sum to {report.total_weight!r}, not 1")
    return StepSolution(
        grid=grid, report=report, solver_config=config, n_cells=n,
        flagged_cells=flagged, solutions=solutions, weights=weights,
        residuals=residuals, iterations=iterations, converged=converged,
    )


def write_cells_csv(solution, path):
    """Dump per-cell indices, representatives, weight, solution, residual.

    One row per cell, in the lexicographic order of StepSolution's
    arrays. Requires a run that stored its cells (small grids or
    keep_cells=True).
    """
    if not solution.stored:
        raise ValueError(
            "cell dump requires stored cells; rerun with keep_cells=True "
            "on a grid under the storage limit")
    grid = solution.grid
    names = [name for name, _ in grid.parts()]
    reps = [p.representatives for _, p in grid.parts()]
    m = grid.m
    n = solution.n_cells
    idx_arrays = np.unravel_index(np.arange(n), grid.shape)
    rep_arrays = [reps[d][idx_arrays[d]] for d in range(len(names))]

    def fmt(v):
        return repr(float(v))
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow([f"idx_{nm}" for nm in names]
                     + [f"rep_{nm}" for nm in names] + ["weight"]
                     + [f"u_{i + 1}" for i in range(m)]
                     + ["residual", "iterations"])
        for c in range(n):
            row = [int(idx_arrays[d][c]) for d in range(len(names))]
            row += [fmt(rep_arrays[d][c]) for d in range(len(names))]
            row.append(fmt(solution.weights[c]))
            row += [fmt(v) for v in solution.solutions[c]]
            row.append(fmt(solution.residuals[c]))
            row.append(int(solution.iterations[c]))
            out.writerow(row)
    return path


def mean_truncation(target, factors, partitions, nodes=16):
    """Per-cell conditional means of a function of the random factors.

    For each cell of the product partition, returns
    E[target(X) | X in cell], computed by per-cell Gauss-Legendre
    quadrature against the factor densities; cells of probability zero
    get the value 0. Cells on which the sampled values are all equal
    return that value unchanged, so cell-constant functions are
    reproduced exactly.

    Args:
        target: vectorized callable of len(factors) coordinate arrays.
        factors: the random factors, one per argument of target.
        partitions: matching Partition1D per factor.
        nodes: Gauss-Legendre points per cell per dimension.

    Returns:
        ndarray of shape (n_cells_1, ..., n_cells_d).
    """
    from .distributions import cell_probability, pdf

    if len(factors) != len(partitions) or not factors:
        raise ValueError("need one partition per factor")
    shape = tuple(p.n_cells for p in partitions)
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)
    out = np.empty(shape)
    for idx in np.ndindex(shape):
        coords = []
        weights = []
        zero = False
        for d, (factor, part) in enumerate(zip(factors, partitions)):
            a = part.breakpoints[idx[d]]
            b = part.breakpoints[idx[d] + 1]
            if factor.is_constant:
                coords.append(np.array([factor.params[0]]))
                weights.append(np.array([1.0]))
                continue
            if cell_probability(factor, a, b) == 0.0:
                zero = True
                break
            x = 0.5 * (a + b) + 0.5 * (b - a) * gl_x
            coords.append(x)
            weights.append(0.5 * (b - a) * gl_w * pdf(factor, x))
        if zero:
            out[idx] = 0.0
            continue
        grids = np.meshgrid(*coords, indexing="ij")
        vals = np.asarray(target(*grids), dtype=float)
        if vals.shape != grids[0].shape:
            raise ValueError("target must return one value per node")
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError("target or density non-finite on a cell")
        vmin, vmax = vals.min(), vals.max()
        if vmin == vmax:
            out[idx] = vmin
            continue
        wgrid = weights[0]
        for d in range(1, len(weights)):
            wgrid = np.multiply.outer(wgrid, weights[d])
        out[idx] = float((wgrid * vals).sum() / wgrid.sum())
    return out
