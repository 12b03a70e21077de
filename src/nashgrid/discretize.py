"""Cartesian cell grids over the random factors and the cell-wise sweep.

Each random factor gets a 1-d partition; the product of the partitions
tiles the probability space into cells. Freezing every factor at its
cell representative turns the stochastic equilibrium problem into one
finite-dimensional box VI per cell, and the weighted family of cell
solutions is a step-function approximation of the random equilibrium.

The sweep exploits two kinds of structure. First, only the additive
cost shift depends on the outermost factor (r), so the cells of one
r-cell form a chain over the inner cells, and all chains can be solved
together as the columns of one firm-major (m, cells) batch. Second,
neighboring cells of a chain have nearly identical solutions, so each
cell is seeded by extrapolating the chain's two previous solutions,
and most seeds pass the tolerance as they are.

The sweep therefore runs in rounds: every chain seeds a window of its
next cells as if each were accepted at its seed, one operator call
screens all windows, and each chain's first miss goes into one batched
solve. Columns of a batch are frozen individually the moment they
converge and all elementwise arithmetic is position-stable, so each
cell lands exactly where a single-cell solve from the same seed would,
whatever the window length; per-block moment accumulators fold each
chain in order and are merged in canonical block order. At parallelism
2 or more, one forked child process runs those folds while the caller
goes on seeding, screening and solving; the fold order, and so every
output bit, is the same.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
# unused by the sweep; the benchmark tracer (perfbench/trace.py) rebinds it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .aggregate import RunningMoments, _fmt, fold_moments, write_csv
from .cournot import operator_eval
from .distributions import Partition1D, _cell_masses, make_partition, pdf
from .vi import (SolverConfig, _columns, _warm_heap, residual_rows,
                 solve_box_vi_batch)

# make_grid and solve_all refuse grids with more cells than this
CELL_CAP = 100_000_000
# the longest window of cells a sweep round screens per r-block, and the
# most cells a round screens in all. 3200 kept an (m, cells) array at
# m = 5 under glibc's initial 128 KiB mmap threshold; since solve_all
# warms that threshold (vi._warm_heap) the bound no longer binds, but
# wider rounds were measured slower before it: 32 x 200-cell windows
# cost 193 against 120 ns a kernel row and about 4 MB more peak RSS.
# With windows sized to 1.5 times the median run, 6400 cells a round
# solved the pinned 200 x 20000 sweep at parallelism 2 3.7% faster (5 of
# 6 alternating runs, 2 vCPU) with 8.6% less CPU, but 0.5 MB more peak RSS
_WINDOW_CAP = 32
_WINDOW_CELLS = 3200
# Gauss-Legendre points per cell per dimension in mean_truncation
_TRUNCATION_NODES = 16
# cells write_cells_csv turns into Python lists at a time
_DUMP_BLOCK = 4096

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


def _refuse_oversize(n_cells):
    """Refuse a grid of more than CELL_CAP cells."""
    if n_cells > CELL_CAP:
        raise ValueError(
            f"grid has {n_cells} cells, exceeding the cap of {CELL_CAP}; "
            f"lower the per-factor resolution")


def make_grid(instance, n_r=1, n_s=1, n_bounds=1, n_betas=1, n_alpha=1,
              rules=None):
    """Partition every factor of the instance into a FactorGrid.

    rules maps factor groups ("r", "s", "bounds", "betas", "alpha") to a
    representative rule. Defaults: lower endpoints for the operator and
    shift factors, conditional means for the bounds. Constant factors
    collapse to a single cell whatever their requested resolution. A grid
    of more than CELL_CAP cells is refused before any partition is built.
    """
    merged = dict(DEFAULT_RULES)
    if rules:
        unknown = set(rules) - set(merged)
        if unknown:
            raise ValueError(f"unknown rule keys {sorted(unknown)}")
        merged.update(rules)
    m = instance.m
    factors = [instance.r_factor, instance.s_factor,
               *(f.q_bar for f in instance.firms), *instance.beta_factors,
               instance.alpha_factor]
    sizes = [n_r, n_s] + [n_bounds] * m + [n_betas] * m + [n_alpha]
    groups = ["r", "s"] + ["bounds"] * m + ["betas"] * m + ["alpha"]
    # make_partition refuses a size that is not an integer
    _refuse_oversize(math.prod(
        int(n) for f, n in zip(factors, sizes)
        if not f.is_constant and isinstance(n, (int, np.integer))))
    parts = [make_partition(f, n, merged[g])
             for f, n, g in zip(factors, sizes, groups)]
    return FactorGrid(parts[0], parts[1], parts[2:2 + m],
                      parts[2 + m:2 + 2 * m], parts[-1])


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

    @property
    def stored(self):
        return self.solutions is not None

    @property
    def converged(self):
        """Per-cell residual <= tolerance (NaN fails); None if streamed."""
        return (self.residuals <= self.solver_config.tolerance
                if self.stored else None)


class FlaggedCellsError(RuntimeError):
    """Raised when more cells failed to converge than the policy allows."""

    def __init__(self, flagged, total, worst_residual):
        super().__init__(
            f"{flagged} of {total} cells failed to converge "
            f"(worst residual {worst_residual:.3e})")
        self.flagged = flagged
        self.total = total
        self.worst_residual = worst_residual


def solve_all(instance, grid, solver_config=None, keep_cells=False,
              max_flagged_fraction=0.0, parallelism=1):
    """Solve every cell problem of the grid.

    Cells are organized into one chain per r-cell (an r-block) over the
    inner cells in lexicographic order. Every cell is seeded at the
    clipped secant clip(2*x1 - x0) of its chain's two previous points. A
    chain starts with x0 = x1 = its first cell's box midpoint, so the
    first cell starts there, and the first solution also stands in for
    the point before it, so the second cell starts at that solution.
    Once a cell has frozen a non-finite row, a non-finite seed becomes
    the box midpoint.

    The sweep runs in rounds, in the calling thread. In each round every
    unfinished r-block seeds its next k cells as if each were solved at
    its seed, and one operator call screens all of them. A block keeps
    its leading run of cells whose natural residual at the seed passes
    tolerance (solved at their seed, after 0 iterations), sends its
    first miss to one batched solve shared by all blocks, which takes
    the screened operator values and residuals, and drops the rest of
    its window. k is 1.5 times the previous round's (upper) median
    accepted run, rounded down, plus one, between 1 and _WINDOW_CAP, and
    at most _WINDOW_CELLS cells a round. A window's seeds are first made
    unclipped, 2*x1 - x0 slot by slot; if every one lies in its box, no
    clip would have changed any, and otherwise, or once a cell has
    frozen a non-finite row, the window is seeded again slot by slot
    with the clip (_clipped_seeds).
    At k = 1 a round is one front of a per-cell sweep: the screen
    applies the solver's iteration-0 test, and the solver takes the
    misses' screened values and residuals, so no cell's operator value
    or natural residual is computed twice. A window's inner cell indices
    are decoded by one np.unravel_index over the factors with more than
    one cell. Every kernel call takes a factor with one cell in the grid
    as a scalar (an (m, 1) column for bounds and betas) and every other
    factor per cell, as vi._columns reads them. Each round's used cells
    fold into per-block compensated accumulators, in chain order; at
    parallelism >= 2 that fold runs in one forked child process
    (RunningMoments.folded_in_child), in the same order, so the result
    does not depend on parallelism.

    Args:
        instance: the market model.
        grid: FactorGrid from make_grid (factor counts must match).
        solver_config: SolverConfig, defaults if omitted.
        keep_cells: store per-cell arrays (True) or only fold the
            cells into the moments (False, the default).
        max_flagged_fraction: tolerated fraction of non-converged cells,
            in [0, 1], before FlaggedCellsError (default: none).
        parallelism: an integer >= 1; at 2 or more the moment fold runs
            in one forked child process. Never changes the results.

    Returns:
        StepSolution; its report carries the weighted moments.
    """
    if grid.m != instance.m:
        raise ValueError("grid and instance have different firm counts")
    # the ``not`` form refuses NaN as well
    if not 0.0 <= max_flagged_fraction <= 1.0:
        raise ValueError("max_flagged_fraction must lie in [0, 1]")
    if not (isinstance(parallelism, (int, np.integer)) and parallelism >= 1):
        raise ValueError("parallelism must be an integer >= 1")
    config = solver_config or SolverConfig()
    n = grid.n_cells
    _refuse_oversize(n)
    m = instance.m
    _warm_heap()

    r_reps = grid.r.representatives
    r_probs = grid.r.probabilities
    inner_parts = [p for _, p in grid.parts()][1:]
    inner_count = math.prod(p.n_cells for p in inner_parts)
    n_blocks = grid.r.n_cells
    s_reps = grid.s.representatives
    # the pow a scalar s gets in operator_eval, once per s-cell
    s_pows = np.fromiter((float(s) ** instance.a for s in s_reps), float,
                         count=s_reps.size)
    lower = 0.0
    # inner factors with more than one cell; the others hold one value,
    # of probability 1, in every cell
    varying = [d for d, p in enumerate(inner_parts) if p.n_cells > 1]
    # an inner index over these factors alone is the same number, since
    # axes of length 1 leave a lexicographic index unchanged; (1,) stands
    # in for the empty shape, which np.unravel_index refuses
    varying_shape = tuple(inner_parts[d].n_cells for d in varying) or (1,)

    # the (m, 1) column of a bound or beta group without a varying factor
    # is the same in every cell, so it is built once; None marks a group
    # that varies, whose cells come firm-major, as (m, cells)
    groups = [range(1 + g * m, 1 + (g + 1) * m) for g in (0, 1)]

    def group_vector(reps, g):
        return np.stack(np.broadcast_arrays(*(reps[d] for d in groups[g])))

    first_reps = [p.representatives[0] for p in inner_parts]
    fixed_columns = [None if any(d in varying for d in groups[g])
                     else group_vector(first_reps, g)[:, None] for g in (0, 1)]

    def cell_factors(ii, blocks):
        """Factors and weights of inner cells ii (1-d) of r-blocks blocks.

        Returns operator_eval's factor arguments (r, s, beta, alpha,
        s_pow), the upper bounds and the weights. A factor with one cell
        in the grid comes as a scalar (an (m, 1) column for bounds and
        betas); every other factor comes as one entry per cell.
        """
        idx = [0] * len(inner_parts)
        # weights multiply in canonical factor order (r first); skipping
        # a single-cell factor's probability of 1 is exact
        w = r_probs[blocks]
        for d, i in zip(varying, np.unravel_index(ii, varying_shape)):
            idx[d] = i
            w = w * inner_parts[d].probabilities[i]
        reps = [p.representatives[i] for p, i in zip(inner_parts, idx)]
        upper, beta = (group_vector(reps, g) if col is None else col
                       for g, col in enumerate(fixed_columns))
        return ((r_reps[blocks], reps[0], beta, reps[-1], s_pows[idx[0]]),
                upper, w)

    def evaluate(q, r, s, beta, alpha, s_pow):
        """The operator at the points q of cells with the given factors."""
        return operator_eval(instance, q, r, s, beta, alpha, s_pow=s_pow)

    kept = {"solutions": np.empty((n, m)), "weights": np.empty(n),
            "residuals": np.empty(n),
            "iterations": np.empty(n, dtype=np.int64)} if keep_cells else {}

    acc = RunningMoments(m, lead=(n_blocks,))
    fold = acc.folded_in_child() if parallelism > 1 else nullcontext()
    flagged = 0
    worst = 0.0
    lost = False
    # the unfinished r-blocks, each with its next inner cell and its last
    # two points, at first both its first cell's box midpoint c, whose
    # secant 2*c - c is c exactly; x0 and x1 hold one row per block
    blocks = np.arange(n_blocks)
    pos = np.zeros(n_blocks, dtype=np.int64)
    x0 = x1 = np.tile(0.5 * (lower + group_vector(first_reps, 0)),
                      (n_blocks, 1))
    offsets = np.arange(_WINDOW_CAP)[:, None]
    grow = 1
    with fold:
        while blocks.size:
            na = blocks.size
            k = max(1, min(grow, _WINDOW_CAP, _WINDOW_CELLS // na))
            # the window's cells, j-major: cell (j, b) is entry j*na + b; a
            # window that runs past its chain repeats the chain's last cell,
            # and only its first `real` cells are cells of the chain
            real = np.minimum(inner_count - pos, k)
            ii = np.minimum(pos + offsets[:k], inner_count - 1).ravel()
            cell_blocks = np.tile(blocks, k)
            factors, upper, w = cell_factors(ii, cell_blocks)

            # chain[2 + j] is window cell j's (m, na) block of seeds, made as
            # if every earlier cell were accepted at its seed, and clipped as
            # the solver would clip it: the cell's solution if it is accepted
            chain = np.empty((k + 2, m, na))
            chain[0], chain[1] = x0.T, x1.T
            X = chain[2:]
            for a0, a1, seed in zip(chain, chain[1:], X):
                np.multiply(a1, 2.0, out=seed)
                np.subtract(seed, a0, out=seed)
            # the window's cells as one (m, k*na) copy of the seeds
            x = X.transpose(1, 0, 2).reshape(m, k * na)
            # a seed in its box is its own clip (none is -0.0, see
            # _clipped_seeds), so if every seed is, then by induction over
            # the slots no clip would have changed one
            if lost or not (x.min() >= lower and (x <= upper).all()):
                _clipped_seeds(chain, lower, upper, lost)
                x = X.transpose(1, 0, 2).reshape(m, k * na)

            # screen the window: one operator call for all its cells
            F = evaluate(x, *factors)
            res = residual_rows(x, F, lower, upper)
            # a row's accepted run ends at its first miss or its chain's end
            ok = np.zeros((k + 1, na), dtype=bool)
            np.less_equal(res.reshape(k, na), config.tolerance, out=ok[:k])
            run = np.minimum(ok.argmin(axis=0), real)
            hit = run < real
            missed = np.flatnonzero(hit)
            its = np.zeros(k * na, dtype=np.int64)
            if missed.size:
                # the misses, solved from their seeds with the screened values
                # and residuals
                cells = run[missed] * na + missed
                out = solve_box_vi_batch(
                    evaluate, lower, _columns(upper, cells), config,
                    x.take(cells, axis=1), values=F.take(cells, axis=1),
                    residuals=res.take(cells),
                    factors=[_columns(v, cells) for v in factors])
                x[:, cells] = out["solutions"]
                X[run[missed], :, missed] = out["solutions"].T
                res[cells] = out["residuals"]
                its[cells] = out["iterations"]
                if not out["converged"].all():
                    bad = out["residuals"][~out["converged"]]
                    flagged += bad.size
                    lost = lost or not np.isfinite(bad).all()
                    # a non-finite residual must not vanish from the report
                    worst = max(worst, float(
                        np.where(np.isfinite(bad), bad, np.inf).max()))

            took = run + hit
            # fold the used cells; every other slot holds a finite seed and
            # gets weight zero, which makes its terms no-ops
            used = offsets[:k] < took
            kk = int(took.max())
            wf = np.where(used, w.reshape(k, na), 0.0)[:kk]
            xf = X[:kk]
            if na < n_blocks:
                # finished blocks sit out with zero terms
                wf_all = np.zeros((kk, n_blocks))
                xf_all = np.zeros((kk, m, n_blocks))
                wf_all[:, blocks], xf_all[:, :, blocks] = wf, xf
                wf, xf = wf_all, xf_all
            acc.add(wf, xf)
            if kept:
                sel = used.ravel()
                ids = (cell_blocks * inner_count + ii)[sel]
                for stored, v in zip(kept.values(), (x.T, w, res, its)):
                    stored[ids] = v[sel]

            # a block that has solved only its first cell takes that solution
            # as x0 too; the first round's window is one cell long, so no
            # window reaches a chain's second cell before this
            cols = np.arange(na)
            x0 = chain[np.maximum(took, 2 - pos), :, cols]
            x1 = chain[took + 1, :, cols]
            pos = pos + took
            if np.maximum.reduce(pos) >= inner_count:
                going = pos < inner_count
                blocks, pos, x0, x1 = (v[going]
                                       for v in (blocks, pos, x0, x1))
            # about 1.5 times the (upper) median accepted run
            run.sort()
            grow = 3 * int(run[na // 2]) // 2 + 1

    report = fold_moments(acc)
    if flagged > max_flagged_fraction * n:
        raise FlaggedCellsError(flagged, n, worst)
    if abs(report.total_weight - 1.0) > 1e-9:
        raise RuntimeError(
            f"cell weights sum to {report.total_weight!r}, not 1")
    return StepSolution(grid=grid, report=report, solver_config=config,
                        n_cells=n, flagged_cells=flagged, **kept)


def _clipped_seeds(chain, lower, upper, lost):
    """Seed a window slot by slot, each seed clip(2*a1 - a0) into its box.

    chain is solve_all's (k + 2, m, na) chain, whose first two entries
    are the blocks' last two points; its other k entries are written.
    upper is the window's (m, 1) or j-major (m, k*na) upper bounds. With
    lost set, a seed with a non-finite entry becomes its box midpoint.
    """
    k, m, na = chain[2:].shape
    # window cell j's (m, na) block of upper bounds, shared or not
    U = np.broadcast_to(upper, (m, k * na)).reshape(m, k, na)
    for a0, a1, seed, uj in zip(chain, chain[1:], chain[2:],
                                U.transpose(1, 0, 2)):
        np.multiply(a1, 2.0, out=seed)
        np.subtract(seed, a0, out=seed)
        # np.clip's min(max(x, lower), upper), NaN kept; the forms differ
        # only at -0.0, which 2*a1 - a0 of values >= +0 is not
        np.maximum(seed, lower, out=seed)
        np.minimum(seed, uj, out=seed)
        if lost:
            # a frozen non-finite cell must not seed the operator with NaN
            np.copyto(seed, 0.5 * (lower + uj),
                      where=~np.isfinite(seed).all(axis=0))


def write_cells_csv(solution, path):
    """Dump per-cell indices, representatives, weight, solution, residual.

    One row per cell, in the lexicographic order of StepSolution's
    arrays. Requires a run that stored its cells (keep_cells=True).
    """
    if not solution.stored:
        raise ValueError(
            "cell dump requires stored cells; rerun with keep_cells=True")
    grid = solution.grid
    names = [name for name, _ in grid.parts()]
    # each factor's representatives formatted once; the per-cell columns
    # go out as Python floats, which csv writes in _fmt's form
    reps = [[_fmt(v) for v in p.representatives.tolist()]
            for _, p in grid.parts()]
    arrays = (solution.weights, solution.solutions, solution.residuals,
              solution.iterations)
    # ndindex walks the cells in the arrays' lexicographic order
    cells = np.ndindex(grid.shape)
    # blocks bound the Python lists; cells comes last in zip, so the end
    # of a block takes no cell index from it
    blocks = ([v[lo:lo + _DUMP_BLOCK].tolist() for v in arrays]
              for lo in range(0, grid.n_cells, _DUMP_BLOCK))
    rows = ([*idx, *(rep[i] for rep, i in zip(reps, idx)), w, *u, res, it]
            for block in blocks for w, u, res, it, idx in zip(*block, cells))
    return write_csv(path, [f"idx_{nm}" for nm in names]
                     + [f"rep_{nm}" for nm in names] + ["weight"]
                     + [f"u_{i + 1}" for i in range(grid.m)]
                     + ["residual", "iterations"], rows)


def mean_truncation(target, factors, partitions):
    """Per-cell conditional means of a function of the random factors.

    For each cell of the product partition, returns
    E[target(X) | X in cell], computed by per-cell Gauss-Legendre
    quadrature (_TRUNCATION_NODES points per dimension) against the
    factor densities; cells of probability zero get the value 0. Cells
    on which the sampled values are all equal return that value
    unchanged, so cell-constant functions are reproduced exactly.

    Args:
        target: vectorized callable of len(factors) coordinate arrays.
        factors: the random factors, one per argument of target.
        partitions: matching Partition1D per factor.

    Returns:
        ndarray of shape (n_cells_1, ..., n_cells_d).
    """
    if len(factors) != len(partitions) or not factors:
        raise ValueError("need one partition per factor")
    shape = tuple(p.n_cells for p in partitions)
    gl_x, gl_w = np.polynomial.legendre.leggauss(_TRUNCATION_NODES)
    # per factor, one row per cell: its nodes and density weights, and
    # whether the cell has mass zero; a constant enters at its value
    nodes, weights, empty = [], [], []
    for factor, part in zip(factors, partitions):
        n = part.n_cells
        if factor.is_constant:
            nodes.append(np.full((n, 1), factor.params[0]))
            weights.append(np.ones((n, 1)))
            empty.append(np.zeros(n, dtype=bool))
            continue
        bp = part.breakpoints
        a, b = bp[:-1, None], bp[1:, None]
        x = 0.5 * (a + b) + 0.5 * (b - a) * gl_x
        nodes.append(x)
        weights.append(0.5 * (b - a) * gl_w * pdf(factor, x))
        empty.append(_cell_masses(factor, bp) == 0.0)
    out = np.empty(shape)
    for idx in np.ndindex(shape):
        if any(e[i] for e, i in zip(empty, idx)):
            out[idx] = 0.0
            continue
        grids = np.meshgrid(*(xs[i] for xs, i in zip(nodes, idx)),
                            indexing="ij")
        vals = np.asarray(target(*grids), dtype=float)
        if vals.shape != grids[0].shape:
            raise ValueError("target must return one value per node")
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError("target or density non-finite on a cell")
        vmin, vmax = vals.min(), vals.max()
        if vmin == vmax:
            out[idx] = vmin
            continue
        wgrid = weights[0][idx[0]]
        for d in range(1, len(weights)):
            wgrid = np.multiply.outer(wgrid, weights[d][idx[d]])
        out[idx] = float((wgrid * vals).sum() / wgrid.sum())
    return out
