"""Cartesian cell grids over the random factors and the cell-wise sweep.

Each random factor gets a 1-d partition; the product of the partitions
tiles the probability space into cells. Freezing every factor at its
cell representative turns the stochastic equilibrium problem into one
finite-dimensional box VI per cell, and the weighted family of cell
solutions is a step-function approximation of the random equilibrium.

The sweep seeds every cell on its own. On a market where no bound
switches, the solution u*(r, s) is analytic in the two shared factors,
so a tensor Chebyshev interpolant of it, fitted from a few dozen node
solves, is accurate to far below the tolerance (Trefethen, Approximation
Theory and Approximation Practice, 2013, ch. 8). Each cell's seed is the
interpolant at its representatives, clipped into its box; one operator
call screens a chunk of cells at their seeds, and the cells whose
natural residual misses the tolerance are finished by semismooth Newton
steps in one batched solve. The residual test, not the surrogate,
decides every cell, so a poor surrogate costs iterations and never
accuracy. A cell's result depends on nothing but its own seed and
factors, and the chunks fold in order into one compensated accumulator
in the calling thread, so the moments are bitwise reproducible.
"""
from __future__ import annotations

import math
# unused by the sweep; the benchmark tracer (perfbench/trace.py) rebinds it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .aggregate import RunningMoments, _fmt, fold_moments, write_csv
from .cournot import operator_eval, operator_jacobian
from .distributions import Partition1D, _cell_masses, make_partition, pdf
from .vi import (SolverConfig, _columns, _warm_heap, residual_rows,
                 solve_box_vi_batch)

# make_grid and solve_all refuse grids with more cells than this
CELL_CAP = 100_000_000
# the most cells solve_all seeds, screens and folds at a time
_CHUNK = 4096
# the natural residual the surrogate's nodes are solved to; the node
# counts a factor tries, doubling; and the largest coefficient tail, as
# a fraction of the sweep's tolerance, that stops the doubling. An
# interpolant misses by at most twice the coefficients it leaves out
# (Trefethen 2013, thm 4.2); while they at least halve per degree their
# sum is at most the last one, so the miss is at most twice the tail.
# The two factors' misses add, and tails of at most 1/4 of tolerance
# keep every component of a seed within tolerance of the fitted u*
_FIT_TOLERANCE = 1e-13
_NODES = (8, 16, 32)
_TAIL_FRACTION = 0.25
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
              max_flagged_fraction=0.0):
    """Solve every cell problem of the grid.

    Every cell is seeded from a tensor Chebyshev surrogate of the
    solution u*(r, s), fitted once per grid (_fit_surrogate), and the
    seed is clipped into the cell's box; a non-finite seed becomes the
    box midpoint. The cells are taken in chunks of at most _CHUNK cells
    in lexicographic order: whole r-blocks (an r-cell's run of inner
    cells) while one fits, else pieces of one r-block. One operator call
    screens a chunk's seeds. A cell whose natural residual at its seed
    passes tolerance is solved at its seed, after 0 iterations; the
    others (the misses) go to one batched solve, with the operator's
    Jacobian, from their seeds and given their screened operator values
    and residuals. So the surrogate decides only how much work a cell
    takes; a cell is solved once its residual passes tolerance.

    Each cell's result depends on its own seed and factors alone, since
    the solver iterates its columns independently and every elementwise
    step is position-stable. A kernel call takes a factor with one cell
    in the grid as a scalar (an (m, 1) column for bounds and betas) and
    every other factor per cell, as vi._columns reads them. The chunks
    fold, in order, into one compensated accumulator, one pairwise sum
    per chunk (RunningMoments.add), in the calling thread.

    Args:
        instance: the market model.
        grid: FactorGrid from make_grid (factor counts must match).
        solver_config: SolverConfig, defaults if omitted.
        keep_cells: store per-cell arrays (True) or only fold the
            cells into the moments (False, the default).
        max_flagged_fraction: tolerated fraction of non-converged cells,
            in [0, 1], before FlaggedCellsError (default: none).

    Returns:
        StepSolution; its report carries the weighted moments.
    """
    if grid.m != instance.m:
        raise ValueError("grid and instance have different firm counts")
    # the ``not`` form refuses NaN as well
    if not 0.0 <= max_flagged_fraction <= 1.0:
        raise ValueError("max_flagged_fraction must lie in [0, 1]")
    config = solver_config or SolverConfig()
    n = grid.n_cells
    _refuse_oversize(n)
    m = instance.m
    _warm_heap()

    r_reps = grid.r.representatives
    r_probs = grid.r.probabilities
    inner_parts = [p for _, p in grid.parts()][1:]
    inner_count = math.prod(p.n_cells for p in inner_parts)
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

    def jacobian(q, r, s, beta, alpha, s_pow):
        """The operator's Jacobian, in the (diag, col) form, likewise."""
        return operator_jacobian(instance, q, r, s, beta, alpha)

    def solve_nodes(r, s):
        """u* at the points (r, s), the other factors at their first cell."""
        mid = 0.5 * (lower + group_vector(first_reps, 0)[:, None])
        out = solve_box_vi_batch(
            evaluate, lower, 2.0 * mid, replace(config,
                                                tolerance=_FIT_TOLERANCE),
            np.repeat(mid, r.size, axis=1), jacobian_batch=jacobian,
            factors=(r, s, group_vector(first_reps, 1)[:, None],
                     first_reps[-1], None))
        x = out["solutions"]
        return np.where(np.isfinite(x).all(axis=0), x, mid)

    coef, xi_r, xi_s = _fit_surrogate(grid.r, grid.s, solve_nodes,
                                      config.tolerance)
    # inner cells per s-cell: s is the outermost inner factor
    s_stride = inner_count // grid.s.n_cells

    kept = {"solutions": np.empty((n, m)), "weights": np.empty(n),
            "residuals": np.empty(n),
            "iterations": np.empty(n, dtype=np.int64)} if keep_cells else {}
    acc = RunningMoments(m)
    flagged = 0
    worst = 0.0
    # a chunk is nb whole r-blocks, or at most _CHUNK cells of one
    nb = max(1, _CHUNK // inner_count)
    lo = 0
    while lo < n:
        b0, i0 = divmod(lo, inner_count)
        cb, cl = min(nb, grid.r.n_cells - b0), min(_CHUNK, inner_count - i0)
        inner = np.arange(i0, i0 + cl)
        blocks = np.arange(b0, b0 + cb)
        factors, upper, w = cell_factors(np.tile(inner, cb),
                                         np.repeat(blocks, cl))
        x = _seeds(coef, xi_r[blocks], xi_s[inner // s_stride])
        # clip(x, lower, upper) as np.clip computes it, NaN kept
        np.maximum(x, lower, out=x)
        np.minimum(x, upper, out=x)
        if not np.isfinite(x).all():
            np.copyto(x, 0.5 * (lower + upper),
                      where=~np.isfinite(x).all(axis=0))

        # screen the chunk, then solve its misses from their seeds
        F = evaluate(x, *factors)
        res = residual_rows(x, F, lower, upper)
        its = np.zeros(res.size, dtype=np.int64)
        # a NaN residual misses too
        miss = np.flatnonzero(~(res <= config.tolerance))
        if miss.size:
            out = solve_box_vi_batch(
                evaluate, lower, _columns(upper, miss), config,
                x.take(miss, axis=1), jacobian_batch=jacobian,
                values=F.take(miss, axis=1), residuals=res.take(miss),
                factors=[_columns(v, miss) for v in factors])
            x[:, miss] = out["solutions"]
            res[miss] = out["residuals"]
            its[miss] = out["iterations"]
            if not out["converged"].all():
                bad = out["residuals"][~out["converged"]]
                flagged += bad.size
                # a non-finite residual must not vanish from the report
                worst = max(worst, float(
                    np.where(np.isfinite(bad), bad, np.inf).max()))
        acc.add(w, x.T)
        if kept:
            for stored, v in zip(kept.values(), (x.T, w, res, its)):
                stored[lo:lo + res.size] = v
        lo += res.size

    report = fold_moments(acc)
    if flagged > max_flagged_fraction * n:
        raise FlaggedCellsError(flagged, n, worst)
    if abs(report.total_weight - 1.0) > 1e-9:
        raise RuntimeError(
            f"cell weights sum to {report.total_weight!r}, not 1")
    return StepSolution(grid=grid, report=report, solver_config=config,
                        n_cells=n, flagged_cells=flagged, **kept)


def _chebyshev(xi, n):
    """T_0 .. T_{n-1} at the points xi, as an (n, xi.size) array."""
    out = np.empty((n, xi.size))
    out[0] = 1.0
    if n > 1:
        out[1] = xi
    twice = xi + xi
    for k in range(2, n):
        np.multiply(twice, out[k - 1], out=out[k])
        np.subtract(out[k], out[k - 2], out=out[k])
    return out


def _fit_surrogate(r_part, s_part, solve, tolerance):
    """Fit u*(r, s) by a tensor Chebyshev interpolant over the supports.

    A factor with one cell (a constant among them) gets one node, its
    representative. Every other factor starts at _NODES[0] Chebyshev
    points of the first kind over its support and doubles, up to
    _NODES[-1], while its coefficient tail exceeds _TAIL_FRACTION *
    tolerance; the tail is the largest coefficient of its two highest
    degrees, over the firms and the other factor's degrees. solve(r, s)
    returns the (m, k) solutions at k node pairs.

    Returns:
        (coef, xi_r, xi_s): the (m, n_r, n_s) coefficients, and each
        factor's representatives mapped onto [-1, 1].
    """
    parts = (r_part, s_part)
    counts = [1 if p.n_cells == 1 else _NODES[0] for p in parts]
    # each factor's support [mid - half, mid + half]; a one-cell factor's
    # is its representative alone, which it maps to 0
    spans = [(p.representatives[0], 0.0) if p.n_cells == 1 else
             (0.5 * (p.breakpoints[0] + p.breakpoints[-1]),
              0.5 * (p.breakpoints[-1] - p.breakpoints[0])) for p in parts]
    while True:
        angles = [np.pi * (np.arange(k) + 0.5) / k for k in counts]
        nodes = [mid + half * np.cos(t) for (mid, half), t in
                 zip(spans, angles)]
        values = solve(np.repeat(nodes[0], counts[1]),
                       np.tile(nodes[1], counts[0]))
        # the discrete cosine transform of each axis: coefficient j is
        # (2 / k) sum_i value_i cos(j t_i), halved at j = 0
        br, bs = (np.cos(np.arange(k)[:, None] * t) * (2.0 / k)
                  for k, t in zip(counts, angles))
        br[0] *= 0.5
        bs[0] *= 0.5
        values = values.reshape(len(values), *counts)
        coef = (br[:, :, None] * values[:, None]).sum(axis=2)
        coef = (coef[:, :, None] * bs).sum(axis=3)
        tails = [np.abs(coef[:, -2:]).max(), np.abs(coef[:, :, -2:]).max()]
        grow = [1 < k < _NODES[-1] and not tail <= _TAIL_FRACTION * tolerance
                for k, tail in zip(counts, tails)]
        if not any(grow):
            break
        counts = [2 * k if g else k for k, g in zip(counts, grow)]
    xi = [np.zeros(1) if p.n_cells == 1 else (p.representatives - mid) / half
          for p, (mid, half) in zip(parts, spans)]
    return coef, xi[0], xi[1]


def _seeds(coef, xi_r, xi_s):
    """The surrogate at every (r, s) pair of xi_r x xi_s, as (m, nr * ns).

    Sums the series in r for each r-point, then in s for each pair, by
    elementwise multiply-adds.
    """
    tr = _chebyshev(xi_r, coef.shape[1])
    ts = _chebyshev(xi_s, coef.shape[2])
    # a[f, j, b]: the series in r of s-degree j at r-point b
    a = coef[:, 0, :, None] * tr[0]
    for i in range(1, len(tr)):
        a += coef[:, i, :, None] * tr[i]
    x = a[:, 0, :, None] * ts[0]
    term = np.empty_like(x)
    for j in range(1, len(ts)):
        np.multiply(a[:, j, :, None], ts[j], out=term)
        np.add(x, term, out=x)
    return x.reshape(len(x), -1)


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
