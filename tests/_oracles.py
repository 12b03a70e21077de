"""Independent reference implementations used to verify library results.

Everything here is deliberately primitive: bisection, adaptive and
Gauss-Legendre quadrature, central differences, brute-force active-set
enumeration, a one-problem extragradient loop, and best-response
iteration written with the math module.
None of it uses the package under test, so agreement between the two
is meaningful evidence; the spec of the cell masses and means reads a
factor's kind and params, nothing else. The one exception is the
executable spec of the grid sweep at the end: it pins the sweep's cell
order, seed rule and fold order, so it solves and folds each cell with
the package's own one-column solver and moment accumulator.

FROZEN_* constants were produced by the functions in this file; tests
assert both that the oracle still reproduces them (guards environment
drift) and that the library agrees with them.
"""

import itertools
import math
from collections import namedtuple

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

# the sweep spec alone uses these
from nashgrid import cournot
from nashgrid.aggregate import RunningMoments, fold_moments
from nashgrid.discretize import StepSolution
from nashgrid.vi import solve_box_vi_batch


# ---------------------------------------------------------------------------
# truncated normal facts by adaptive quadrature (no scipy.special)

def _normal_pdf(x, mu, sigma):
    z = (x - mu) / sigma
    return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def quad_truncnorm_cdf(x, mu, sigma, lo, hi):
    """CDF of a normal conditioned on [lo, hi], integrated numerically."""
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    mass, _ = quad(_normal_pdf, lo, hi, args=(mu, sigma), epsabs=1e-14)
    part, _ = quad(_normal_pdf, lo, x, args=(mu, sigma), epsabs=1e-14)
    return part / mass


def quad_cell_probability(mu, sigma, lo, hi, a, b):
    return (quad_truncnorm_cdf(b, mu, sigma, lo, hi)
            - quad_truncnorm_cdf(a, mu, sigma, lo, hi))


def quad_cell_mean(mu, sigma, lo, hi, a, b):
    """E[X | X in [a,b)] for the truncated normal, by quadrature."""
    a_ = max(a, lo)
    b_ = min(b, hi)
    num, _ = quad(lambda t: t * _normal_pdf(t, mu, sigma), a_, b_,
                  epsabs=1e-14)
    den, _ = quad(_normal_pdf, a_, b_, args=(mu, sigma), epsabs=1e-14)
    return num / den


def quad_conditional_mean_fn(fn, pdf, a, b):
    """E[fn(X) | X in [a,b)] against an arbitrary density, by quadrature."""
    num, _ = quad(lambda t: fn(t) * pdf(t), a, b, epsabs=1e-13, limit=200)
    den, _ = quad(pdf, a, b, epsabs=1e-13, limit=200)
    if den == 0.0:
        return 0.0
    return num / den


# ---------------------------------------------------------------------------
# an executable spec of the cell masses and conditional means, one cell at
# a time: the scalar formulas the distributions module evaluated per cell
# before it worked on whole partitions, operation for operation. They read
# a factor's kind and params only, and take the standard normal CDF from
# scipy.special.ndtr, which nashgrid._normal matches bit for bit.

_SPEC_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _spec_anchor(za):
    return ndtr(-za) if za >= 0 else ndtr(za)


def _spec_normal_mass(za, zb, anchor):
    return anchor - ndtr(-zb) if za >= 0 else ndtr(zb) - anchor


def _spec_tn(factor):
    """(mu, sigma, za, zb, mass, anchor) of a truncated normal factor."""
    mu, sigma, lo, hi = factor.params
    za, zb = (lo - mu) / sigma, (hi - mu) / sigma
    anchor = _spec_anchor(za)
    return mu, sigma, za, zb, _spec_normal_mass(za, zb, anchor), anchor


def spec_cdf(factor, x):
    """The factor's CDF at the scalar x."""
    x = np.asarray(x, dtype=float)
    if factor.kind == "constant":
        out = np.where(x >= factor.params[0], 1.0, 0.0)
    elif factor.kind == "uniform":
        lo, hi = factor.params
        out = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    else:
        mu, sigma, za, zb, mass, anchor = _spec_tn(factor)
        z = (x - mu) / sigma
        out = np.clip(_spec_normal_mass(za, z, anchor) / mass, 0.0, 1.0)
        lo, hi = factor.params[2:]
        out = np.where(x <= lo, 0.0, out)
        out = np.where(x >= hi, 1.0, out)
    return float(out)


def spec_cell_probability(factor, a, b):
    """P(a <= X < b): 1 or 0 for a constant, else cdf(b) - cdf(a)."""
    if not a < b:
        raise ValueError("cell requires a < b")
    if factor.kind == "constant":
        return 1.0 if a <= factor.params[0] < b else 0.0
    return max(spec_cdf(factor, b) - spec_cdf(factor, a), 0.0)


def spec_cell_conditional_mean(factor, a, b):
    """E[X | X in [a, b)]; cells of probability zero get the midpoint."""
    if not a < b:
        raise ValueError("cell requires a < b")
    if spec_cell_probability(factor, a, b) == 0.0:
        return 0.5 * (a + b)
    if factor.kind == "constant":
        return factor.params[0]
    lo, hi = factor.params[-2:]
    ca, cb = max(a, lo), min(b, hi)
    if factor.kind == "uniform":
        return 0.5 * (ca + cb)
    mu, sigma, za, zb, mass, anchor = _spec_tn(factor)
    zca = max((ca - mu) / sigma, za)
    zcb = min((cb - mu) / sigma, zb)
    phi_a = np.exp(-0.5 * zca * zca) / _SPEC_SQRT_2PI
    phi_b = np.exp(-0.5 * zcb * zcb) / _SPEC_SQRT_2PI
    mean = mu + sigma * (phi_a - phi_b) / _spec_normal_mass(
        zca, zcb, _spec_anchor(zca))
    # clamped into the cell's part of the support, which rounding or a
    # subnormal mass can leave
    return min(max(mean, ca), cb)


# ---------------------------------------------------------------------------
# finite differences

def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_jacobian(F, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(F(x), dtype=float)
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        J[:, j] = (np.asarray(F(x + e)) - np.asarray(F(x - e))) / (2.0 * h)
    return J


def dense_jacobian(diag, col):
    """Assemble J = diag(diag) + col 1^T from its aggregative form, rowwise.

    diag and col have shape (..., m); J has shape (..., m, m). The
    diagonal is placed by np.where, so an infinite entry does not turn
    its row's off-diagonal zeros into NaN.
    """
    diag = np.asarray(diag, dtype=float)
    col = np.asarray(col, dtype=float)
    eye = np.eye(diag.shape[-1], dtype=bool)
    return np.where(eye, diag[..., :, None], 0.0) + col[..., :, None]


# ---------------------------------------------------------------------------
# affine box VI by active-set enumeration

def active_set_box_vi(M, d, lo, hi, slack=1e-9):
    """Solve VI(x -> Mx+d, [lo,hi]) for strongly monotone M by trying all
    3^m lower/free/upper patterns and checking feasibility + KKT signs.
    """
    M = np.asarray(M, dtype=float)
    d = np.asarray(d, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    m = d.size
    for pattern in itertools.product((-1, 0, 1), repeat=m):
        pattern = np.array(pattern)
        free = pattern == 0
        x = np.where(pattern < 0, lo, hi).astype(float)
        if free.any():
            rhs = -(d[free] + M[np.ix_(free, ~free)] @ x[~free])
            x[free] = np.linalg.solve(M[np.ix_(free, free)], rhs)
            if (x[free] < lo[free] - slack).any():
                continue
            if (x[free] > hi[free] + slack).any():
                continue
        f = M @ x + d
        if (f[pattern < 0] < -slack).any():
            continue
        if (f[pattern > 0] > slack).any():
            continue
        return np.clip(x, lo, hi)
    raise RuntimeError("no active-set pattern satisfied the KKT conditions")


# ---------------------------------------------------------------------------
# box VI by the extragradient method, one problem at a time

def _distance(u, v):
    d = u - v
    return float(np.sqrt((d ** 2).sum()))


def extragradient_box_vi(F, lo, hi, start, tolerance, max_iterations,
                         initial_step=1.0, step_shrink=0.5, gamma=1.0):
    """Solve VI(F, [lo, hi]) by Korpelevich's extragradient method.

    F maps an (m,) point to its (m,) value. Each iteration shrinks the
    step by step_shrink until step * ||F(x) - F(y)|| <= 0.9 * ||x - y||
    at the trial point y = clip(x - step F(x)), then moves to
    clip(x - step F(y)). It stops once the natural residual
    ||x - clip(x - gamma F(x))|| is at most tolerance, or after
    max_iterations steps.

    Returns:
        (x, residual, iterations, backtracks); the residual exceeds the
        tolerance only when the iterations ran out.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x = np.clip(np.asarray(start, dtype=float), lo, hi)
    step = initial_step
    backtracks = 0
    for it in range(max_iterations + 1):
        fx = F(x)
        res = _distance(x, np.clip(x - gamma * fx, lo, hi))
        if res <= tolerance or it == max_iterations:
            return x, res, it, backtracks
        while True:
            y = np.clip(x - step * fx, lo, hi)
            fy = F(y)
            dx = _distance(x, y)
            if dx == 0.0 or step * _distance(fx, fy) <= 0.9 * dx:
                break
            step *= step_shrink
            backtracks += 1
        x = np.clip(x - step * fy, lo, hi)


# ---------------------------------------------------------------------------
# one compensated-summation step as one expression


def compensated_step(total, comp, term):
    """One TwoSum step on fresh arrays: the new (total, comp).

    comp gains the exact rounding error of total + term. This is the
    single step the package's stacked fold must repeat, term by term.
    """
    t = total + term
    z = t - total
    return t, comp + ((total - (t - z)) + (term - z))


# ---------------------------------------------------------------------------
# the operator kernel as one numpy expression

def operator_expression(instance, q, r, s, beta=None, alpha=0.0, s_pow=None):
    """The Cournot operator written as one numpy expression.

    Reads the instance's coefficient arrays and evaluates
    (c + marginal + a s^a q/(dens Qe) - s^a/dens) + (r - alpha) with a
    fresh temporary per operation, firm-major: q is (m,) or (m, B), the
    per-firm terms are columns. The library kernel runs the same
    operations in the same order into one buffer, so the two must agree
    bit for bit, in value and in broadcast shape.
    """
    q = np.asarray(q, dtype=float)
    point = q.ndim == 1 and np.ndim(beta) < 2 and not (
        np.ndim(r) or np.ndim(s) or np.ndim(alpha))
    q = q.reshape(len(q), -1)
    beta = 1.0 if beta is None else np.asarray(beta, dtype=float).reshape(
        len(q), -1)
    a = instance.a
    sa = s ** a if s_pow is None else s_pow
    total = np.zeros(q.shape[1:])
    for j in range(q.shape[0]):
        total = total + q[j]
    Qe = np.asarray(total + instance.e)
    dens = Qe ** a
    marginal = beta * instance._cost_scale * np.power(q, instance._inv_b)
    base = (instance._c + marginal
            + np.asarray(a * sa) * q / (dens * Qe)
            - (sa / dens))
    shift = np.asarray(r, dtype=float) - alpha
    out = base + shift
    return out[:, 0] if point else out


# ---------------------------------------------------------------------------
# the oligopoly model recomputed with the math module

def market_price(q, s, a, e):
    return s ** a / (sum(q) + e) ** a


def firm_cost(qi, c, k, b, r, beta=1.0):
    return (c + r) * qi + beta * (b / (b + 1.0)) * k ** (-1.0 / b) \
        * qi ** ((b + 1.0) / b)


def firm_welfare(i, q, firms, r, s, a, e, beta=None, alpha=0.0):
    """(price + alpha) * q_i - cost_i, all scalar math."""
    c, k, b = firms[i]
    bi = 1.0 if beta is None else beta[i]
    return (market_price(q, s, a, e) + alpha) * q[i] \
        - firm_cost(q[i], c, k, b, r, bi)


def marginal_map(i, q, firms, r, s, a, e, beta=None, alpha=0.0):
    """-d(welfare_i)/d(q_i) written out term by term."""
    c, k, b = firms[i]
    bi = 1.0 if beta is None else beta[i]
    Q = sum(q) + e
    sa = s ** a
    return (c + r + bi * k ** (-1.0 / b) * q[i] ** (1.0 / b)
            + a * sa * q[i] / Q ** (a + 1.0) - sa / Q ** a - alpha)


def bisect_best_response(i, q, firms, r, s, a, e, q_bar,
                         beta=None, alpha=0.0, tol=1e-13):
    """Firm i's optimal output with the others frozen, by bisection
    on the (strictly increasing) marginal map."""
    q = list(q)

    def f(t):
        q[i] = t
        return marginal_map(i, q, firms, r, s, a, e, beta, alpha)

    if f(0.0) >= 0.0:
        return 0.0
    if f(q_bar) <= 0.0:
        return q_bar
    lo_t, hi_t = 0.0, q_bar
    while hi_t - lo_t > tol * max(1.0, hi_t):
        mid = 0.5 * (lo_t + hi_t)
        if f(mid) > 0.0:
            hi_t = mid
        else:
            lo_t = mid
    return 0.5 * (lo_t + hi_t)


def best_response_equilibrium(firms, r, s, a, e, q_bar,
                              beta=None, alpha=0.0, sweeps=400):
    """Gauss-Seidel best-response iteration; converges for this model."""
    m = len(firms)
    q = [0.5 * q_bar] * m
    for _ in range(sweeps):
        delta = 0.0
        for i in range(m):
            new = bisect_best_response(i, q, firms, r, s, a, e, q_bar,
                                       beta, alpha)
            delta = max(delta, abs(new - q[i]))
            q[i] = new
        if delta < 1e-12:
            break
    return q


def best_unilateral_deviation(i, q, firms, r, s, a, e, q_bar,
                              beta=None, alpha=0.0, n_grid=2001):
    """Best welfare firm i can reach by deviating alone (dense scan)."""
    best = -math.inf
    trial = list(q)
    for t in np.linspace(0.0, q_bar, n_grid):
        trial[i] = float(t)
        best = max(best, firm_welfare(i, trial, firms, r, s, a, e,
                                      beta, alpha))
    return best


# ---------------------------------------------------------------------------
# expected equilibrium by tensor Gauss-Legendre quadrature

def truncnorm_gauss_legendre(mu, sigma, lo, hi, n):
    """n-point Gauss-Legendre rule on [lo, hi] for E[g(X)], X a normal
    conditioned on [lo, hi]: (node, weight) pairs whose weights carry the
    normalized density."""
    root2 = math.sqrt(2.0)
    mass = 0.5 * (math.erf((hi - mu) / (sigma * root2))
                  - math.erf((lo - mu) / (sigma * root2)))
    half = 0.5 * (hi - lo)
    ts, ws = np.polynomial.legendre.leggauss(n)
    rule = []
    for t, w in zip(ts, ws):
        x = lo + half * (1.0 + float(t))
        rule.append((x, half * float(w) * _normal_pdf(x, mu, sigma) / mass))
    return rule


def quadrature_expected_equilibrium(firms, r_law, s_law, a, e, q_bar,
                                    n_r, n_s):
    """E[u*(r, s)] for independent truncated-normal r and s, each law given
    as (mu, sigma, lo, hi): an n_r x n_s tensor Gauss-Legendre rule with one
    best-response equilibrium per node. The equilibrium is smooth in (r, s)
    while every firm stays interior, so the rule converges spectrally."""
    terms = [[] for _ in firms]
    for r, wr in truncnorm_gauss_legendre(*r_law, n_r):
        for s, ws in truncnorm_gauss_legendre(*s_law, n_s):
            q = best_response_equilibrium(firms, r, s, a, e, q_bar)
            for i, qi in enumerate(q):
                terms[i].append(wr * ws * qi)
    return tuple(math.fsum(t) for t in terms)


# ---------------------------------------------------------------------------
# frozen oracle outputs (produced by the functions above)

TABLE_FIRMS = ((10.0, 5.0, 1.2), (8.0, 5.0, 1.1), (6.0, 5.0, 1.0),
               (4.0, 5.0, 0.9), (2.0, 5.0, 0.8))
MODEL_A = 1.0 / 1.1
MODEL_E = 1e-4

# best_response_equilibrium(TABLE_FIRMS, r=0, s=5000, a=MODEL_A, e=MODEL_E,
#                           q_bar=100)
FROZEN_EQUILIBRIUM_R0_S5000 = (
    36.93249676198462,
    41.81813030823349,
    43.70656946148728,
    42.659232610616016,
    39.17894704863585,
)

# best_response_equilibrium at r=0.31, s=4975.3 (an off-center cell)
FROZEN_EQUILIBRIUM_R031_S49753 = (
    35.992455297018466,
    40.95112853559186,
    42.976616543309376,
    42.0993038047456,
    38.78708268061786,
)

# bisect_best_response for a single firm alone in the market:
# firm (c,k,b)=(6,5,1.0), q_bar=100, r=-0.2, s=5000 -> interior optimum
FROZEN_SINGLE_FIRM_INTERIOR = 25.723524440157775

# same firm with q_bar=20: the cap binds and the solution sits on it
FROZEN_SINGLE_FIRM_AT_BOUND = 20.0

# quad_truncnorm_cdf(5010, 5000, 10, 4950, 5050)
FROZEN_TN_CDF_5010 = 0.8413449417626613

# quad_cell_probability(0, 0.25, -0.5, 0.5, 0.0, 0.25)
FROZEN_TN_PROB_0_025 = 0.357616386005453

# quad_cell_mean(0, 0.25, -0.5, 0.5, 0.0, 0.25)
FROZEN_TN_MEAN_0_025 = 0.11496555732160663

# quad_cell_mean(5000, 10, 4950, 5050, 4990.0, 4995.0)
FROZEN_TN_MEAN_4990_4995 = 4992.654595411586

# quadrature_expected_equilibrium(TABLE_FIRMS, r_law=(0, 0.25, -0.5, 0.5),
#     s_law=(5000, 10, 4950, 5050), a=MODEL_A, e=MODEL_E, q_bar=100,
#     n_r=14, n_s=40): the expected equilibrium of the randomized five-firm
# market. The 20 x 60 rule agrees to 4.2e-13, the 10 x 24 rule to 1.2e-8.
FROZEN_EXPECTED_EQUILIBRIUM = (
    36.937495520836066,
    41.821755428048434,
    43.70886052265082,
    42.660495718781235,
    39.17958051623474,
)


# ---------------------------------------------------------------------------
# an executable spec of the grid sweep, one cell at a time

Cell = namedtuple("Cell", "idx r s upper beta alpha weight")


def grid_cells(grid):
    """Every cell of the grid in lexicographic order, read off grid.parts().

    This is the tests' own enumeration, independent of the sweep: each
    cell carries its index tuple, its representatives and its weight,
    the per-factor probabilities multiplied in factor order.
    """
    parts = [p for _, p in grid.parts()]
    m = grid.m
    for idx in np.ndindex(grid.shape):
        reps = [float(p.representatives[i]) for p, i in zip(parts, idx)]
        weight = 1.0
        for p, i in zip(parts, idx):
            weight = weight * float(p.probabilities[i])
        yield Cell(idx, reps[0], reps[1], np.array(reps[2:2 + m]),
                   np.array(reps[2 + m:2 + 2 * m]), reps[-1], weight)


def cell_operator(inst, cell):
    """The cell's VI operator, F(q) with its factors frozen.

    The kernel is looked up in its module at each call, so a test that
    replaces cournot.operator_eval reaches this operator too.
    """
    return lambda q: cournot.operator_eval(inst, q, cell.r, cell.s,
                                           cell.beta, cell.alpha)


def reference_sweep(instance, grid, config):
    """solve_all(instance, grid, config, keep_cells=True), cell by cell.

    Each r-block is a chain over its inner cells in lexicographic order.
    The chain's first cell is seeded at its box midpoint, the second at
    the first solution, and every later one at clip(2 x1 - x0) of the
    two previous solutions; a non-finite seed becomes the box midpoint.
    Each cell is a one-column solve_box_vi_batch from its seed. Each block
    folds its cells, in chain order, into its own RunningMoments, and
    fold_moments merges the blocks in block order.
    """
    cells = list(grid_cells(grid))
    inner = len(cells) // grid.r.n_cells
    lo = np.zeros(grid.m)
    out = {"solutions": [], "weights": [], "residuals": [], "iterations": []}
    blocks = []
    for start in range(0, len(cells), inner):
        acc = RunningMoments(grid.m)
        x0 = x1 = None
        for j, cell in enumerate(cells[start:start + inner]):
            mid = 0.5 * (lo + cell.upper)
            if j == 0:
                seed = mid
            elif j == 1:
                seed = x1
            else:
                seed = np.clip(2.0 * x1 - x0, lo, cell.upper)
            if not np.isfinite(seed).all():
                seed = mid
            row = solve_box_vi_batch(cell_operator(instance, cell), lo,
                                     cell.upper, config, seed[:, None])
            x = row["solutions"][:, 0]
            acc.add([cell.weight], x[None])
            for key, v in (("solutions", x), ("weights", cell.weight),
                           ("residuals", row["residuals"][0]),
                           ("iterations", row["iterations"][0])):
                out[key].append(v)
            x0, x1 = x1, x
        blocks.append(acc)
    merged = RunningMoments(grid.m, lead=(len(blocks),))
    merged.total[:] = np.transpose([acc.total for acc in blocks])
    merged.comp[:] = np.transpose([acc.comp for acc in blocks])
    arrays = {key: np.array(v) for key, v in out.items()}
    flagged = int(np.count_nonzero(~(arrays["residuals"] <= config.tolerance)))
    return StepSolution(grid=grid, report=fold_moments(merged),
                        solver_config=config, n_cells=len(cells),
                        flagged_cells=flagged, **arrays)
