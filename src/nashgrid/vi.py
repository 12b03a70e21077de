"""Finite-dimensional variational inequalities over box constraint sets.

The problem solved here: find x* in K = [lower, upper] such that

    <F(x*), z - x*> >= 0   for all z in K.

The solver is the extragradient method (two projected operator
evaluations per iteration) with backtracking step adaptation, which
converges for continuous monotone operators without a known Lipschitz
constant (Facchinei & Pang 2003, ch. 12). solve_box_vi_batch is the one
implementation: it iterates many independent VIs as the columns of a
firm-major (m, n) batch, so every elementwise step runs an n-long inner
loop, and solve_vi is its one-column call for one operator and BoxSet;
F holds any constant shift itself. Termination uses the natural residual

    ||x - P_K(x - F(x))||_2

which vanishes exactly at solutions. Any positive multiple of F in
this map has the same zeros (Facchinei & Pang 2003, sec. 1.5), so the
unit multiple is the only one used.

Given the operator's Jacobian, the batch solver first tries a
semismooth Newton step on that natural map (Qi & Sun 1993; Facchinei &
Pang 2003, ch. 7-9) in every iteration and falls back to the
extragradient step for rows where it does not cut the residual enough.
The Jacobian comes as a diagonal plus a rank-one term, diag(diag) +
col 1^T, so each Newton direction costs O(m) by Sherman-Morrison.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Backtracking acceptance ratio: a trial step tau is kept when
# tau * ||F(x) - F(y)|| <= _BACKTRACK_RATIO * ||x - y||.
_BACKTRACK_RATIO = 0.9

# Factor that shrinks a trial step failing the backtracking test.
_STEP_SHRINK = 0.5

# A semismooth Newton point is taken when its natural residual is at
# most this fraction of the current one.
_NEWTON_DECREASE = 0.5


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box {x : lower_i <= x_i <= upper_i}."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("box bounds must be finite")
        if np.any(lower > upper):
            raise ValueError("box requires lower_i <= upper_i")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self):
        return self.lower.size

    def midpoint(self):
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-8
    max_iterations: int = 1000
    initial_step: float = 1.0

    def __post_init__(self):
        # the ``not (x > 0)`` form refuses NaN as well
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        # a float count would fail in the solver's loop, so it is refused
        if not (isinstance(self.max_iterations, (int, np.integer))
                and self.max_iterations >= 1):
            raise ValueError("max_iterations must be an integer >= 1")
        if not self.initial_step > 0:
            raise ValueError("initial_step must be > 0")


@dataclass
class SolveReport:
    iterations: int
    residual: float
    converged: bool
    backtracks: int = 0


class NonConvergenceError(RuntimeError):
    """Raised when max_iterations is hit with the residual above tolerance.

    Carries the last iterate (.point) and the iteration report (.report)
    so callers can inspect or resume.
    """

    def __init__(self, point, report):
        super().__init__(
            f"no convergence after {report.iterations} iterations "
            f"(residual {report.residual:.3e})"
        )
        self.point = point
        self.report = report


def project(point, box):
    """Euclidean projection onto the box: componentwise clamping.

    Takes one (m,) point or a firm-major (m, B) batch of B points.
    """
    x = np.asarray(point, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != box.dim:
        raise ValueError("dimension mismatch between point and box")
    if x.ndim == 1:
        return np.clip(x, box.lower, box.upper)
    return np.clip(x, box.lower[:, None], box.upper[:, None])


def _warm_heap():
    """Allocate and free one 4 MiB array, so large arrays reuse the heap.

    glibc serves blocks above its mmap threshold (128 KiB at start) from
    fresh mapped pages, and trims the heap top past its trim threshold.
    Freeing a mapped block raises the mmap threshold to the block's size
    and the trim threshold to twice that (mallopt(3)), so afterwards the
    sweep's and the oracle's arrays of up to 4 MiB reuse heap pages
    instead of faulting in new ones every round.
    """
    np.empty(1 << 19)


def _sum_firms(a):
    """Sum over the firm axis 0 left to right from +0.0, for any batch."""
    # numpy's axis-0 sum turns pairwise on a one-column batch from m = 8
    out = np.zeros(a.shape[1:])
    for row in a:
        out += row
    return out


def _norm_rows(d):
    return np.sqrt(_sum_firms(d ** 2))


def residual_rows(x, fx, lower, upper):
    """Natural residual of each column of x (m, n), given fx = F(x).

    ||x - clip(x - fx, lower, upper)||_2 per column. The clip would hide
    an infinite F, so a column whose fx is not finite gets NaN. This is
    the one natural-residual expression: the solver's convergence and
    Newton tests, natural_residual, and callers that screen points
    before solving all use it, so their residuals agree bitwise.
    """
    # the clip as np.clip computes it, min(max(., lower), upper), in one
    # buffer; the ufunc pair can differ from np.clip only in the sign of
    # a zero, which the square drops
    d = x - fx
    np.maximum(d, lower, out=d)
    np.minimum(d, upper, out=d)
    res = _norm_rows(np.subtract(x, d, out=d))
    if not np.isfinite(fx).all():
        res[~np.isfinite(fx).all(axis=0)] = np.nan
    return res


def natural_residual(operator, box, point):
    """||x - P_box(x - operator(x))||_2; zero exactly at solutions.

    NaN where operator(x) is not finite, which the projection would hide.
    """
    x = np.asarray(point, dtype=float)
    if x.shape != (box.dim,):
        raise ValueError("dimension mismatch between point and box")
    fx = np.array(operator(x), dtype=float)
    return float(residual_rows(x[:, None], fx[:, None], box.lower[:, None],
                               box.upper[:, None])[0])


def solve_vi(operator, box, config=None, warm_start=None):
    """Solve one box VI: a one-column call of solve_box_vi_batch.

    Args:
        operator: continuous monotone F, a callable (m,) -> (m,).
        box: the BoxSet K.
        config: SolverConfig; defaults are used when omitted.
        warm_start: optional start point, projected onto the box first
            (an infinite component lands on its bound). Defaults to the
            box midpoint.

    Returns:
        (solution, SolveReport). The solution satisfies
        natural_residual(operator, box, solution) <= config.tolerance.

    Raises:
        ValueError: if warm_start has a NaN component; the operator is
            not called.
        FloatingPointError: if the operator returns NaN/Inf.
        NonConvergenceError: if max_iterations is exhausted; the error
            carries the last iterate and its report.
    """
    config = config or SolverConfig()
    seed = box.midpoint() if warm_start is None else project(warm_start, box)
    if np.isnan(seed).any():
        raise ValueError("warm_start must not contain NaN")
    out = solve_box_vi_batch(
        lambda x: np.array(operator(x[:, 0]), dtype=float)[:, None],
        box.lower, box.upper, config, seed[:, None])
    x = out["solutions"][:, 0]
    report = SolveReport(*(out[key][0].item() for key in (
        "iterations", "residuals", "converged", "backtracks")))
    if np.isnan(report.residual):
        raise FloatingPointError("operator returned NaN/Inf during solve")
    if not report.converged:
        raise NonConvergenceError(x, report)
    return x, report


def _newton_direction(diag, col, free, rhs):
    """Solve (diag(dv) + uv 1^T) d = rhs per column by Sherman-Morrison, O(m).

    dv = where(free, diag, 1), uv = where(free, col, 0); with a = rhs/dv
    and c = uv/dv, d = a - c sum(a)/(1 + sum(c)). A column with a
    non-finite dv or uv gets NaN, and a singular one a non-finite one.
    """
    dv = np.where(free, diag, 1.0)
    uv = np.where(free, col, 0.0)
    with np.errstate(all="ignore"):
        a = rhs / dv
        c = uv / dv
        d = a - c * (_sum_firms(a) / (1.0 + _sum_firms(c)))
    d[:, ~(np.isfinite(dv) & np.isfinite(uv)).all(axis=0)] = np.nan
    return d


def _take(a, idx):
    """Entries idx of a's last axis, a sorted subset: a itself if it has all.

    A sorted subset of arange(n) with n entries is arange(n), so the
    gather would copy a unchanged; the caller must not write into it.
    """
    return a if idx.size == a.shape[-1] else a.take(idx, axis=-1)


def _put(a, idx, v):
    """a[:, idx] = v, for idx a sorted subset of a's columns."""
    if idx.size == a.shape[1]:
        np.copyto(a, v)
    else:
        a[:, idx] = v


def _columns(a, idx):
    """Columns idx of one batch input, by the rule solve_box_vi_batch states.

    So a per-firm input shared by the batch is (m, 1), never (m,).
    """
    # getattr, not the slower np.ndim: this runs in every solver iteration
    return _take(a, idx) if getattr(a, "ndim", 0) and a.shape[-1] > 1 else a


def _frozen(fn, factors):
    """fn(x, *factors) as op(x, rows), each factor at rows by _columns."""
    def operator(x, rows):
        return fn(x, *[_columns(v, rows) for v in factors])
    return operator


def _newton_trial(op, jac, xa, la, ua, fx, res, rows):
    """One semismooth Newton step on Phi(x) = x - P_K(x - F(x)) per column.

    The generalized Jacobian of Phi takes row i of J = diag(diag) +
    col 1^T for components the projection leaves free (lo < x - F < up)
    and the unit row e_i for clipped ones, which _newton_direction
    solves in closed form. A column whose Jacobian entries or direction
    are not finite, a singular one included, gets no trial point. A
    trial point, the Newton point projected onto the box, is taken when
    its natural residual is at most _NEWTON_DECREASE times the current
    one; one whose operator value is not finite has a NaN residual and
    is not taken. op and jac take (x, rows), as _frozen makes them.

    Returns:
        (take, x_new, f_new, res_new): a mask over the columns, and the
        taken points with their operator values and natural residuals,
        in column order.
    """
    z = xa - fx
    ref = np.clip(z, la, ua)
    free = (la < z) & (z < ua)
    d = _newton_direction(*jac(xa, rows), free, ref - xa)
    idx = np.flatnonzero(np.isfinite(d).all(axis=0))
    li, ui = _columns(la, idx), _columns(ua, idx)
    xn = np.clip(_take(xa, idx) + _take(d, idx), li, ui)
    # with no trial point the operator is not called
    fn = op(xn, rows[idx]) if idx.size else xn
    resn = residual_rows(xn, fn, li, ui)
    kept = np.flatnonzero(resn <= _NEWTON_DECREASE * res[idx])
    take = np.zeros(rows.size, dtype=bool)
    take[idx[kept]] = True
    return take, _take(xn, kept), _take(fn, kept), resn[kept]


def solve_box_vi_batch(operator_batch, lower, upper, config, seeds,
                       jacobian_batch=None, values=None, residuals=None,
                       factors=()):
    """Solve a batch of box VIs sharing one vectorized operator.

    Batches are firm-major: column i of ``seeds`` is an independent VI
    and uses column i of ``operator_batch(X, *cols)``, where ``cols``
    are the ``factors`` at X's columns. Columns are iterated with
    per-column steps and are frozen the moment their natural residual
    passes tolerance, so a column's result never depends on which other
    columns share the batch. A column whose operator value is
    non-finite, at its iterate or at its extragradient trial point, is
    frozen in that iteration as well: unconverged, with an all-NaN
    solution and a NaN residual. The operator is never called at a
    non-finite point the solver made.

    Without ``jacobian_batch`` every step is an extragradient step with
    backtracking. With it, every column first tries a semismooth Newton
    step on the natural map and keeps it when the natural residual falls
    to at most _NEWTON_DECREASE of its value; the other columns take the
    extragradient step. When every column keeps its Newton point, the
    operator values and residuals computed for the test are the next
    iteration's.

    One rule, ``_columns``, says which inputs follow the columns, for
    the bounds and the factors alike. A scalar, or an array with one
    entry on its last axis, is shared by every column and passed whole;
    any other array has one entry per column on its last axis and is
    gathered to the columns still iterating. While none has left, each
    such array is passed itself, not a copy.

    Args:
        operator_batch: callable (x: (m, B), *cols) -> (m, B).
        lower, upper: box bounds: a scalar, an (m, 1) column (an (m,)
            vector is taken as one) or (m, n), one column per VI.
        config: SolverConfig.
        seeds: (m, n) start points, projected onto the box first.
        jacobian_batch: optional callable (x: (m, B), *cols) -> (diag,
            col), each (m, B): the operator's Jacobian columnwise in
            aggregative form, J = diag(diag) + col 1^T.
        values: optional (m, n) operator values at the seeds projected
            onto the box; given, the operator is not called there again.
        residuals: optional (n,) natural residuals at the seeds
            projected onto the box, as residual_rows gives them with
            ``values``; given, they are not computed there again.
        factors: the operators' inputs after x, in the order they take
            them, each shared or per column by the rule above.

    Returns:
        dict with keys ``solutions`` (m, n), ``residuals`` (n,),
        ``iterations`` (n,), ``converged`` (n,) bool and ``backtracks``
        (n,), the number of extragradient step shrinks per column.

        A column's residual is its status. At most ``config.tolerance``:
        converged, and ``converged`` is exactly ``residuals <=
        config.tolerance``. Finite and above tolerance: the column ran
        out of iterations (``config.max_iterations``). Not finite: the
        column was frozen, with an all-NaN solution.
    """
    x = np.array(seeds, dtype=float, order="C")
    n = x.shape[1]
    lo, up = (np.asarray(b, dtype=float) for b in (lower, upper))
    lo, up = (b[:, None] if b.ndim == 1 else b for b in (lo, up))
    np.clip(x, lo, up, out=x)
    op = _frozen(operator_batch, factors)
    jac = None if jacobian_batch is None else _frozen(jacobian_batch, factors)

    iterations = np.zeros(n, dtype=np.int64)
    backtracks = np.zeros(n, dtype=np.int64)
    step = np.full(n, config.initial_step)
    active = np.arange(n)
    final = np.zeros(n)
    # the active columns' points, bounds, operator values and residuals;
    # None where they must be gathered or computed anew
    xa = None
    fx = None if values is None else np.asarray(values, dtype=float)
    res = None if residuals is None else np.asarray(residuals, dtype=float)

    for it in range(config.max_iterations + 1):
        if xa is None:
            xa = _take(x, active)
            la, ua = _columns(lo, active), _columns(up, active)
        if fx is None:
            # a batch emptied by trial-point freezes needs no call
            fx = op(xa, active) if active.size else xa
        if res is None:
            res = residual_rows(xa, fx, la, ua)
        lost = ~np.isfinite(res)
        # converged, non-finite and out-of-iterations columns all leave
        leave = ((res <= config.tolerance) | lost
                 | (it == config.max_iterations))
        if leave.any():
            idx = active[leave]
            final[idx] = res[leave]
            iterations[idx] = it
            x[:, active[lost]] = np.nan
            keep = np.flatnonzero(~leave)
            active = active[keep]
            xa, fx, res = _take(xa, keep), _take(fx, keep), res[keep]
            la, ua = _columns(lo, active), _columns(up, active)
        if active.size == 0:
            break
        rows = active
        if jac is not None:
            take, xn, fn, resn = _newton_trial(op, jac, xa, la, ua, fx, res,
                                               active)
            _put(x, active[take], xn)
            if take.all():
                # xn is a fresh array: x's write-backs never reach it
                xa, fx, res = xn, fn, resn
                continue
            eg = np.flatnonzero(~take)
            rows = active[eg]
            xa, fx = _take(xa, eg), _take(fx, eg)
            la, ua = _columns(lo, rows), _columns(up, rows)
        st = step[rows]
        while True:
            y = np.clip(xa - st * fx, la, ua)
            fy = op(y, rows)
            df = _norm_rows(fx - fy)
            dx = _norm_rows(xa - y)
            # a column whose F(y) is not finite never shrinks its step
            bad = ((st * df > _BACKTRACK_RATIO * dx) & (dx > 0.0)
                   & np.isfinite(df))
            if not bad.any():
                break
            st = np.where(bad, st * _STEP_SHRINK, st)
            backtracks[rows] += bad
        step[rows] = st
        _put(x, rows, np.clip(xa - st * fy, la, ua))
        xa = fx = res = None
        if not np.isfinite(fy).all():
            # never step to, or evaluate the operator at, a non-finite point
            idx = rows[~np.isfinite(fy).all(axis=0)]
            x[:, idx] = final[idx] = np.nan
            iterations[idx] = it
            active = active[~np.isin(active, idx)]

    return {"solutions": x, "residuals": final, "iterations": iterations,
            "converged": final <= config.tolerance,
            "backtracks": backtracks}


@dataclass
class MonotoneReport:
    min_ratio: float
    passed: bool
    num_pairs: int
    skipped_pairs: int = 0


def check_monotone(operator, set, num_pairs, seed):
    """Empirical strict-monotonicity check on a box.

    Samples num_pairs point pairs (q, q') uniformly in the box and
    computes <F(q) - F(q'), q - q'> / ||q - q'||^2. Returns the minimum
    ratio and a pass flag for strict positivity. A NaN ratio makes the
    minimum NaN, so the check fails. Pairs with q = q' (possible on
    degenerate boxes) are skipped and counted.
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    span = set.upper - set.lower
    min_ratio = np.inf
    skipped = 0
    for _ in range(num_pairs):
        q = set.lower + span * rng.random(set.dim)
        qp = set.lower + span * rng.random(set.dim)
        d = q - qp
        nd2 = float(d @ d)
        if nd2 == 0.0:
            skipped += 1
            continue
        ratio = float((np.asarray(operator(q)) - np.asarray(operator(qp))) @ d) / nd2
        # np.minimum propagates NaN, where min() would drop it
        min_ratio = float(np.minimum(min_ratio, ratio))
    if skipped == num_pairs:
        min_ratio = np.nan
    return MonotoneReport(min_ratio=min_ratio, passed=min_ratio > 0.0,
                          num_pairs=num_pairs, skipped_pairs=skipped)
