"""Random factors and 1-d support partitions.

Three factor kinds cover the models in scope: point masses, uniforms,
and truncated normals. Factors expose their CDF, density and
inverse-CDF sampling. Partitions carve the support [lo, hi) into uniform
cells with one representative value and one probability weight per cell.

Cell masses and conditional means have one path, over all the cells of
a breakpoint array: _cell_masses and _cell_means, the latter by the
truncated normal's closed form mu + sigma (phi(z0) - phi(z1)) /
(Phi(z1) - Phi(z0)) (Johnson, Kotz and Balakrishnan 1994, ch. 13).
cell_probability and cell_conditional_mean are their one-cell calls.

The standard normal CDF and quantile are _normal's ports of the Cephes
ndtr and ndtri, bit-equal to scipy.special's, so truncated-normal
weights and samples depend on numpy's IEEE arithmetic and the C
library's exp and log, not on a scipy version.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._normal import ndtr, ndtri

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# each factor kind's parameter names, in RandomFactor.params order
FACTOR_PARAMS = {
    "constant": ("value",),
    "uniform": ("lo", "hi"),
    "truncated_normal": ("mu", "sigma", "lo", "hi"),
}
KINDS = tuple(FACTOR_PARAMS)
REPRESENTATIVE_RULES = ("lower_endpoint", "conditional_mean", "midpoint")


@dataclass(frozen=True)
class RandomFactor:
    """A scalar random factor with bounded support.

    params are named by FACTOR_PARAMS[kind]. A truncated_normal is the
    N(mu, sigma^2) density restricted to [lo, hi) and renormalized.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        names = FACTOR_PARAMS[self.kind]
        if len(params) != len(names):
            raise ValueError(f"{self.kind} factor takes ({', '.join(names)})")
        if not np.isfinite(params).all():
            raise ValueError(f"{self.kind} factor parameters must be finite")
        if self.kind == "truncated_normal" and not params[1] > 0:
            raise ValueError("truncated_normal requires sigma > 0")
        if self.kind != "constant" and not params[-2] < params[-1]:
            raise ValueError(f"{self.kind} factor requires lo < hi")
        if self.kind == "truncated_normal":
            mu, sigma, lo, hi = params
            za, zb = (lo - mu) / sigma, (hi - mu) / sigma
            anchor = float(_anchor(za))
            mass = float(_normal_mass(za, zb, anchor))
            if not mass > 0:
                raise ValueError("truncated_normal requires representable "
                                 "mass on [lo, hi)")
            # computed once for every cdf, pdf, ppf and cell mean; cdf
            # and ppf start from _anchor
            object.__setattr__(self, "_tn", (mu, sigma, za, zb, mass))
            object.__setattr__(self, "_anchor", anchor)

    @staticmethod
    def constant(value):
        return RandomFactor("constant", (value,))

    @staticmethod
    def uniform(lo, hi):
        return RandomFactor("uniform", (lo, hi))

    @staticmethod
    def truncated_normal(mu, sigma, lo, hi):
        return RandomFactor("truncated_normal", (mu, sigma, lo, hi))

    @property
    def is_constant(self):
        return self.kind == "constant"

    @property
    def support(self):
        """(lo, hi); degenerate (v, v) for constants."""
        if self.kind == "constant":
            v = self.params[0]
            return (v, v)
        if self.kind == "uniform":
            return self.params
        return self.params[2:]

    def mean(self):
        """Exact mean of the factor."""
        lo, hi = self.support
        return cell_conditional_mean(self, lo, np.nextafter(hi, np.inf))


def _float_if_0d(out):
    """A 0-d result (from scalar arguments) as a Python float, else out."""
    return float(out) if out.ndim == 0 else out


def _anchor(za):
    """The standard normal mass beyond za: above it where za >= 0, else below.

    Elementwise; taken from the tail on za's side, where it does not cancel.
    """
    return ndtr(np.where(za >= 0, -za, za))


def _normal_mass(za, zb, anchor):
    """P(za <= Z < zb) for standard normal Z, elementwise.

    anchor is _anchor(za). From the upper tail where za >= 0, where
    ndtr(zb) - ndtr(za) cancels.
    """
    upper = za >= 0
    tail = ndtr(np.where(upper, -zb, zb))
    return np.where(upper, anchor - tail, tail - anchor)


def cdf(factor, x):
    """Distribution function of the factor; vectorized in x.

    Equal to 0 at/below the support's lower end and 1 at/above its
    upper end (constants jump at their value).
    """
    x = np.asarray(x, dtype=float)
    if factor.kind == "constant":
        out = np.where(x >= factor.params[0], 1.0, 0.0)
    elif factor.kind == "uniform":
        lo, hi = factor.params
        out = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    else:
        mu, sigma, za, zb, mass = factor._tn
        z = (x - mu) / sigma
        out = np.clip(_normal_mass(za, z, factor._anchor) / mass, 0.0, 1.0)
        lo, hi = factor.support
        out = np.where(x <= lo, 0.0, out)
        out = np.where(x >= hi, 1.0, out)
    return _float_if_0d(out)


def pdf(factor, x):
    """Density of the factor (vectorized); zero outside the support.

    Constants have no density; requesting one is an error.
    """
    if factor.kind == "constant":
        raise ValueError("constant factors have no density")
    x = np.asarray(x, dtype=float)
    lo, hi = factor.support
    if factor.kind == "uniform":
        out = np.where((x >= lo) & (x < hi), 1.0 / (hi - lo), 0.0)
    else:
        mu, sigma, za, zb, mass = factor._tn
        z = (x - mu) / sigma
        out = np.exp(-0.5 * z * z) / (_SQRT_2PI * sigma * mass)
        out = np.where((x >= lo) & (x < hi), out, 0.0)
    return _float_if_0d(out)


def _cell_masses(factor, bp):
    """P(a <= X < b) for each cell [a, b) of the breakpoint array bp."""
    a, b = bp[:-1], bp[1:]
    if not (a < b).all():
        raise ValueError("cell requires a < b")
    if factor.is_constant:
        v = factor.params[0]
        return np.where((a <= v) & (v < b), 1.0, 0.0)
    d = np.diff(cdf(factor, bp))
    # max(d, 0.0) as Python computes it, which keeps a -0.0
    return np.where(d < 0.0, 0.0, d)


def _cell_means(factor, bp, masses):
    """E[X | a <= X < b] for each cell [a, b) of bp, given their masses.

    Cells of mass zero get their midpoint; a mean is clamped into the
    part of its cell inside the support.
    """
    a, b = bp[:-1], bp[1:]
    if factor.is_constant:
        inside = factor.params[0]
    else:
        lo, hi = factor.support
        ca, cb = np.maximum(a, lo), np.minimum(b, hi)
        if factor.kind == "uniform":
            inside = 0.5 * (ca + cb)
        else:
            mu, sigma, za, zb, mass = factor._tn
            zca = np.maximum((ca - mu) / sigma, za)
            zcb = np.minimum((cb - mu) / sigma, zb)
            phi_a = np.exp(-0.5 * zca * zca) / _SQRT_2PI
            phi_b = np.exp(-0.5 * zcb * zcb) / _SQRT_2PI
            # a zero-mass cell may divide 0 by 0; it takes the midpoint
            with np.errstate(divide="ignore", invalid="ignore"):
                inside = mu + sigma * (phi_a - phi_b) / _normal_mass(
                    zca, zcb, _anchor(zca))
            # rounding, or a subnormal mass, can put the quotient outside
            # the cell
            inside = np.minimum(np.maximum(inside, ca), cb)
    return np.where(masses == 0.0, 0.5 * (a + b), inside)


def cell_probability(factor, a, b):
    """P(a <= X < b): 1 or 0 for a constant, else cdf(b) - cdf(a)."""
    return float(_cell_masses(factor, np.array([a, b], dtype=float))[0])


def cell_conditional_mean(factor, a, b):
    """E[X | X in [a, b)]; cells of probability zero get the midpoint."""
    bp = np.array([a, b], dtype=float)
    return float(_cell_means(factor, bp, _cell_masses(factor, bp))[0])


def ppf(factor, u):
    """Inverse CDF; vectorized in u over [0, 1]."""
    u = np.asarray(u, dtype=float)
    if not ((u >= 0) & (u <= 1)).all():
        raise ValueError("ppf argument must lie in [0, 1]")
    if factor.kind == "constant":
        out = np.full_like(u, factor.params[0])
    elif factor.kind == "uniform":
        lo, hi = factor.params
        out = lo + u * (hi - lo)
    else:
        mu, sigma, za, zb, mass = factor._tn
        if za >= 0:
            out = mu - sigma * ndtri(factor._anchor - u * mass)
        else:
            out = mu + sigma * ndtri(factor._anchor + u * mass)
        lo, hi = factor.support
        out = np.clip(out, lo, hi)
    return _float_if_0d(out)


@dataclass(frozen=True)
class Partition1D:
    """Uniform cells over a factor support with representatives and weights.

    The checks use the ``not (...)`` form so that NaN breakpoints,
    representatives or probabilities are refused.
    """

    breakpoints: np.ndarray
    representatives: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        rep = np.asarray(self.representatives, dtype=float)
        pr = np.asarray(self.probabilities, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("breakpoints must be a 1-d array of length >= 2")
        if not np.isfinite(bp).all():
            raise ValueError("breakpoints must be finite")
        degenerate = bp.size == 2 and bp[0] == bp[1]
        if not (degenerate or (np.diff(bp) > 0).all()):
            raise ValueError("breakpoints must be strictly increasing")
        if rep.shape != (bp.size - 1,) or pr.shape != rep.shape:
            raise ValueError("need one representative and one probability per cell")
        if not (pr >= 0).all():
            raise ValueError("probabilities must be nonnegative")
        if not abs(pr.sum() - 1.0) <= 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        if not ((rep >= bp[:-1]).all() and (rep <= bp[1:]).all()):
            raise ValueError("each representative must lie within its cell")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "representatives", rep)
        object.__setattr__(self, "probabilities", pr)

    @property
    def n_cells(self):
        return self.representatives.size


def make_partition(factor, n_cells, representative_rule="lower_endpoint"):
    """Uniform partition of the factor support into n_cells cells.

    Representatives follow the rule: the cell's lower endpoint, its
    conditional mean, or its midpoint. Conditional means of cells with
    probability zero fall back to the midpoint (such cells carry weight
    zero and never contribute to aggregates). Constants always yield
    the single-cell partition regardless of n_cells.
    """
    if not (isinstance(n_cells, (int, np.integer)) and n_cells >= 1):
        raise ValueError("n_cells must be an integer >= 1")
    if representative_rule not in REPRESENTATIVE_RULES:
        raise ValueError(f"unknown representative rule {representative_rule!r}")
    if factor.is_constant:
        v = factor.params[0]
        return Partition1D(np.array([v, v]), np.array([v]), np.array([1.0]))
    lo, hi = factor.support
    bp = np.linspace(lo, hi, n_cells + 1)
    bp[0], bp[-1] = lo, hi
    probs = _cell_masses(factor, bp)
    if representative_rule == "lower_endpoint":
        reps = bp[:-1].copy()
    elif representative_rule == "midpoint":
        reps = 0.5 * (bp[:-1] + bp[1:])
    else:
        reps = _cell_means(factor, bp, probs)
    return Partition1D(bp, reps, probs)
