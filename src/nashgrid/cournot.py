"""Cournot oligopoly with randomly perturbed costs and demand price.

Firm i produces q_i at cost

    f_i(q_i) = (c_i + r) q_i + beta_i * (b_i/(b_i+1)) k_i^{-1/b_i} q_i^{(b_i+1)/b_i}

and the commodity sells at the scarcity-capped power-law price

    p(Q) = s^a / (Q + e)^a,        Q = sum_i q_i,  0 < a < 1,  e > 0,

possibly shifted by alpha. The scalars r, s, alpha and the vector beta
are realizations of bounded random factors. Firm welfare is revenue
minus cost, w_i = (p(Q) + alpha) q_i - f_i(q_i), and the Nash
equilibrium operator is the negative welfare gradient,

    F_i(q) = c_i + r + beta_i k_i^{-1/b_i} q_i^{1/b_i}
             + a s^a q_i/(Q+e)^{a+1} - s^a/(Q+e)^a - alpha.

F is strictly monotone on the nonnegative orthant for 0 < a < 1, which
makes every boxed equilibrium problem uniquely solvable.

One kernel, operator_eval, evaluates F at a point (m,) or a firm-major
batch (m, B) of B points, one per column, with each factor shared by
the batch or given per point as a (B,) vector (the grid sweep passes
every factor that varies over the grid per point; operator_eval_sampled
gives every factor per point). Per-firm constants act as (m, 1)
columns, so every operation on a batch runs a B-long loop. It runs the
same numpy expression sequence either way, so a batched solve and a
pointwise recheck with the same scalar factors produce bitwise-equal
values. operator_jacobian gives its closed-form derivative in q, with
the same argument shapes and input checks, as a diagonal plus a
rank-one term: F_i depends on q only through q_i and the total Q.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import RandomFactor, _float_if_0d
from .vi import _sum_firms


@dataclass(frozen=True)
class FirmParams:
    """One firm: linear cost c, scale k, curvature b, production bound."""

    c: float
    k: float
    b: float
    q_bar: RandomFactor

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "b", float(self.b))
        # checks in the ``not (x >= 0)`` form refuse NaN as well
        if not self.c >= 0:
            raise ValueError("linear cost coefficient c must be >= 0")
        if not self.k > 0:
            raise ValueError("cost scale k must be > 0")
        if not self.b > 0:
            raise ValueError("cost curvature b must be > 0")
        if not isinstance(self.q_bar, RandomFactor):
            raise TypeError("q_bar must be a RandomFactor")
        if not self.q_bar.support[0] >= 0:
            raise ValueError("production bound support must be nonnegative")


@dataclass(frozen=True)
class CournotInstance:
    """The full market: firms plus the random perturbation factors.

    r_factor shifts every linear cost, s_factor scales the price,
    beta_factors (default constant 1) modulate the power-law cost terms,
    alpha_factor (default constant 0) shifts the price additively.
    """

    firms: tuple
    a: float
    e: float
    r_factor: RandomFactor
    s_factor: RandomFactor
    beta_factors: Optional[tuple] = None
    alpha_factor: Optional[RandomFactor] = None

    def __post_init__(self):
        firms = tuple(self.firms)
        if not firms or not all(isinstance(f, FirmParams) for f in firms):
            raise ValueError("firms must be a nonempty sequence of FirmParams")
        object.__setattr__(self, "firms", firms)
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "e", float(self.e))
        if not 0.0 < self.a < 1.0:
            raise ValueError("price exponent a must lie in (0, 1)")
        if not self.e > 0:
            raise ValueError("price floor parameter e must be > 0")
        if not self.s_factor.support[0] > 0:
            raise ValueError("price scale factor support must be positive")
        betas = self.beta_factors
        if betas is None:
            betas = tuple(RandomFactor.constant(1.0) for _ in firms)
        else:
            betas = tuple(betas)
            if len(betas) != len(firms):
                raise ValueError("need one beta factor per firm")
            for bf in betas:
                if not bf.support[0] > 0:
                    raise ValueError("beta factor supports must be positive")
        object.__setattr__(self, "beta_factors", betas)
        if self.alpha_factor is None:
            object.__setattr__(self, "alpha_factor", RandomFactor.constant(0.0))
        # frozen (m, 1) coefficient columns for the firm-major operator
        object.__setattr__(self, "_c", np.array([[f.c] for f in firms]))
        b = np.array([[f.b] for f in firms])
        k = np.array([[f.k] for f in firms])
        object.__setattr__(self, "_inv_b", 1.0 / b)
        object.__setattr__(self, "_cost_scale", k ** (-1.0 / b))

    @property
    def m(self):
        return len(self.firms)


def cost(firm, q, r, beta=1.0):
    """Production cost (c+r)q + beta*(b/(b+1)) k^{-1/b} q^{(b+1)/b}.

    Vectorized in q. The power term vanishes at q=0 for every b > 0.
    """
    q = np.asarray(q, dtype=float)
    if not (q >= 0).all():
        raise ValueError("production quantity must be >= 0")
    if not beta > 0:
        raise ValueError("beta must be > 0")
    b = firm.b
    power = beta * (b / (b + 1.0)) * firm.k ** (-1.0 / b) * q ** ((b + 1.0) / b)
    out = (firm.c + r) * q + power
    return _float_if_0d(out)


def price(instance, Q, s):
    """Demand price s^a/(Q+e)^a; vectorized in Q, strictly decreasing."""
    Q = np.asarray(Q, dtype=float)
    if not (Q >= 0).all():
        raise ValueError("total quantity must be >= 0")
    if not s > 0:
        raise ValueError("price scale s must be > 0")
    out = s ** instance.a / (Q + instance.e) ** instance.a
    return _float_if_0d(out)


def price_part(instance, q, s):
    """The price-driven part of the operator, a s^a q/(Q+e)^{a+1} - s^a/(Q+e)^a.

    Accepts q of shape (m,) or (m, B).
    """
    q = np.asarray(q, dtype=float)
    a = instance.a
    sa = s ** a
    Qe = _sum_firms(q) + instance.e
    dens = Qe ** a
    return (a * sa) * q / (dens * Qe) - sa / dens


def _checked(instance, q, s, beta, *per_row):
    """The operator's input checks; returns q, beta and a point flag.

    q comes back as (m, n) and beta as 1.0 or (m, n), a vector as one
    column; the flag marks q and beta (m,) with scalar factors, whose
    value is one (m,) vector. The ``not (x >= 0).all()`` form of the
    checks rejects a NaN q, s or beta like a negative or zero one.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[:1] != (instance.m,) or q.ndim > 2:
        raise ValueError("q must have one component per firm")
    if not (q >= 0).all():
        raise ValueError("quantities must be >= 0")
    if not (np.asarray(s) > 0).all():
        raise ValueError("price scale s must be > 0")
    point = (q.ndim == 1 and np.ndim(beta) < 2
             and not any(np.ndim(v) for v in (s, *per_row)))
    if beta is None:
        return q.reshape(len(q), -1), 1.0, point
    beta = np.asarray(beta, dtype=float)
    if not (beta > 0).all():
        raise ValueError("beta must be > 0 componentwise")
    return q.reshape(len(q), -1), beta.reshape(len(q), -1), point


def operator_eval(instance, q, r, s, beta=None, alpha=0.0, *, s_pow=None):
    """Equilibrium operator F(q; r, s, beta, alpha), the negative welfare gradient.

    Args:
        q: quantities, shape (m,) or (m, B), componentwise >= 0.
        r: additive cost shift, scalar or shape (B,).
        s: price scale > 0, scalar or shape (B,).
        beta: per-firm cost multipliers > 0, shape (m,) or (m, B),
            default all ones.
        alpha: additive price shift, scalar or shape (B,).
        s_pow: internal, unchecked: s**a, scalar or shape (B,), used in
            place of the pow of s. The grid sweep, which evaluates a
            different s per point, passes the Python-float pow of each s
            here, so each point gets the bits of a call with that s as a
            Python float. A table that does not match s gives a wrong
            operator without an error.

    Returns:
        F, a fresh array: (m,) for q of shape (m,) with scalar factors
        and beta of shape (m,), else (m, B), one column per point. The
        random additive parts enter through one final addition of
        (r - alpha), so two calls differing only in (r, alpha) differ
        by a constant vector.
    """
    q, beta, point = _checked(instance, q, s, beta, r, alpha)
    a = instance.a
    # a scalar s stays a Python float and Qe stays an ndarray: Python's
    # pow, np.float64.__pow__ and the ndarray pow loop can round
    # transcendentals differently, and single-point evaluations must
    # agree bitwise with the batched sweep
    sa = s ** a if s_pow is None else s_pow
    Qe = _sum_firms(q) + instance.e
    dens = Qe ** a
    asa = np.asarray(a * sa)
    shift = np.asarray(r, dtype=float) - alpha
    # (c + beta k^(-1/b) q^(1/b) + a s^a q/(dens Qe) - s^a/dens) + shift,
    # each step in the order of that expression, into one fresh buffer
    # of the broadcast shape
    out = np.empty(np.broadcast(q, beta, asa, shift).shape)
    np.power(q, instance._inv_b, out=out)
    np.multiply(beta * instance._cost_scale, out, out=out)
    np.add(instance._c, out, out=out)
    slope = asa * q
    np.divide(slope, dens * Qe, out=slope)
    np.add(out, slope, out=out)
    np.subtract(out, sa / dens, out=out)
    np.add(out, shift, out=out)
    return out[:, 0] if point else out


def operator_eval_sampled(instance, q, r, s, beta, alpha):
    """Batched operator where every point has its own factor realization.

    operator_eval with q (m, B), r, s and alpha (B,) and beta (m, B),
    the shape of q checked; it computes s**a per point instead of taking
    s_pow, and returns (m, B) operator values.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != instance.m:
        raise ValueError("q must have shape (m, B)")
    return operator_eval(instance, q, r, np.asarray(s, dtype=float), beta,
                         alpha)


def _price_slopes(instance, q, s):
    """-p'(Q) = a s^a/(Q+e)^{a+1} and p''(Q) at q, (m,) or (m, B)."""
    a = instance.a
    Qe = _sum_firms(q) + instance.e
    g = a * np.asarray(s, dtype=float) ** a / Qe ** (a + 1.0)
    return g, (a + 1.0) * g / Qe


def operator_jacobian(instance, q, r, s, beta=None, alpha=0.0):
    """Closed-form Jacobian dF/dq of operator_eval as J = diag(diag) + col 1^T.

    Per row, diag_i = d_i + g and col_i = g - h q_i with
    g = a s^a/(Q+e)^{a+1}, h = (a+1) g/(Q+e) and
    d_i = beta_i k_i^{-1/b_i} (1/b_i) q_i^{1/b_i - 1}, so
    J = diag(d) + g (I + 11^T) - h q 1^T; its price part is
    -p'(Q)(I + 11^T) - p''(Q) q 1^T, the matrix jacobian_form_test
    evaluates. For b_i > 1, diag_i is +inf at q_i = 0.

    Takes the arguments and applies the checks of operator_eval; r and
    alpha shift F by a constant and do not enter J.

    Returns:
        (diag, col), each with the shape operator_eval returns.
    """
    q, beta, point = _checked(instance, q, s, beta, r, alpha)
    g, h = _price_slopes(instance, q, s)
    with np.errstate(divide="ignore"):
        slope = np.power(q, instance._inv_b - 1.0)
    d = beta * instance._cost_scale * instance._inv_b * slope
    diag, col = d + g, g - h * q
    return (diag[:, 0], col[:, 0]) if point else (diag, col)


def welfare(instance, i, q, r, s, beta=None, alpha=0.0):
    """Net revenue of firm i: (price(Q) + alpha) * q_i - cost_i(q_i)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (instance.m,):
        raise ValueError("q must be a vector with one component per firm")
    if not 0 <= i < instance.m:
        raise IndexError("firm index out of range")
    if not (q >= 0).all():
        raise ValueError("quantities must be >= 0")
    beta_i = 1.0 if beta is None else float(np.asarray(beta, dtype=float)[i])
    p = price(instance, float(_sum_firms(q)), s)
    return (p + alpha) * float(q[i]) - cost(instance.firms[i], float(q[i]), r, beta_i)


def jacobian_form_test(instance, q_point, h, s):
    """Quadratic form h^T J h of the price part's Jacobian at q_point.

    J = -p'(Q) (I + 11^T) - p''(Q) q 1^T with p' < 0 < p''; a positive
    value certifies local strict monotonicity of the price part.
    """
    q = np.asarray(q_point, dtype=float)
    h = np.asarray(h, dtype=float)
    if q.shape != h.shape or q.ndim != 1 or q.size != instance.m:
        raise ValueError("q_point and h must be vectors with one entry per firm")
    if not (np.isfinite(h).all() and np.any(h != 0.0)):
        raise ValueError("h must be finite and nonzero")
    if not (q >= 0).all():
        raise ValueError("quantities must be >= 0")
    if not s > 0:
        raise ValueError("price scale s must be > 0")
    slope, curvature = _price_slopes(instance, q, s)
    sh = float(h.sum())
    return float(slope * (sh * sh + float(h @ h))
                 - curvature * float(q @ h) * sh)
