"""Whole-partition cell masses and means agree with the per-cell spec.

make_partition and the one-cell functions cell_probability and
cell_conditional_mean evaluate every cell of a breakpoint array at once.
They must give, bit for bit, what _oracles' scalar spec gives one cell at
a time, on seeded random truncated normals and on the edge cases: a
support straddling mu, supports wholly above or below it, far tails,
cells of zero mass, uniforms and constants. mean_truncation, which takes
its masses, nodes and density weights from the same arrays, is pinned by
the SHA-256 of its output.
"""
import hashlib

import numpy as np
import pytest

from nashgrid import (RandomFactor, cell_conditional_mean, cell_probability,
                      make_partition, mean_truncation)

import _oracles as o

TN = RandomFactor.truncated_normal
U = RandomFactor.uniform
C = RandomFactor.constant
N_CELLS = (1, 2, 7, 100)


def random_truncated_normals(n, seed):
    """n truncated normals of random location, scale, offset and width."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        mu, sigma = rng.uniform(-100.0, 100.0), 10.0 ** rng.uniform(-2, 2)
        za, width = rng.uniform(-14.0, 10.0), 10.0 ** rng.uniform(-2.0, 1.3)
        try:
            out.append(TN(mu, sigma, mu + sigma * za, mu + sigma * (za + width)))
        except ValueError:  # no representable mass on the support
            continue
    return out


EDGE_FACTORS = [
    # supports straddling mu; (0, 1, -1, 10) loses its upper cells' mass
    TN(0.0, 0.25, -0.5, 0.5), TN(5000.0, 10.0, 4950.0, 5050.0),
    TN(0.0, 1.0, -1.0, 10.0), TN(0.0, 1.0, -0.5, 3.0),
    # wholly above mu, one from za = 0 itself
    TN(0.0, 1.0, 8.0, 9.0), TN(0.0, 1.0, 9.0, 10.0), TN(0.0, 1.0, 0.0, 3.0),
    # wholly below mu, one up to zb = 0
    TN(0.0, 1.0, -10.0, -9.0), TN(0.0, 1.0, -3.0, 0.0),
    # far tails
    TN(0.0, 1.0, 30.0, 31.0), TN(0.0, 1.0, -37.0, -36.0),
    TN(1.0, 1e-3, 1.035, 1.036),
    # cells of zero mass at both ends
    TN(0.0, 0.01, -1.0, 1.0),
    U(0.0, 1.0), U(-2.0, 3.0), U(-1e-3, 5e3), U(-0.0, 1.0),
]
FACTORS = EDGE_FACTORS + random_truncated_normals(60, seed=2203)
CONSTANTS = [C(2.0), C(-0.0), C(0.0), C(-7.5)]


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    same = (got.view(np.int64) == want.view(np.int64)) | (
        np.isnan(got) & np.isnan(want))
    bad = np.flatnonzero(~same.ravel())
    assert bad.size == 0, (
        f"{bad.size} mismatches, first at {bad[0]}: "
        f"{got.ravel()[bad[0]]!r} != {want.ravel()[bad[0]]!r}")


def cells(bp):
    return list(zip(bp[:-1].tolist(), bp[1:].tolist()))


@pytest.mark.parametrize("rule", ["lower_endpoint", "midpoint",
                                  "conditional_mean"])
def test_make_partition_matches_the_per_cell_spec(rule):
    for f in FACTORS:
        for n in N_CELLS:
            part = make_partition(f, n, rule)
            bp = part.breakpoints
            assert_same_bits(part.probabilities,
                             [o.spec_cell_probability(f, a, b)
                              for a, b in cells(bp)])
            if rule == "conditional_mean":
                want = [o.spec_cell_conditional_mean(f, a, b)
                        for a, b in cells(bp)]
            elif rule == "midpoint":
                want = 0.5 * (bp[:-1] + bp[1:])
            else:
                want = bp[:-1]
            assert_same_bits(part.representatives, want)


def test_a_subnormal_cell_mass_keeps_its_mean_inside_the_cell():
    # at z = -37.7 the cell [-0.377, -0.3765) has mass 1.6e-310, and the
    # closed form's quotient of two subnormal differences is -0.3195,
    # outside the cell; clamped, it is the cell's upper end
    f = TN(0.0, 0.01, -1.0, 1.0)
    part = make_partition(f, 4000, "conditional_mean")
    bp, reps = part.breakpoints, part.representatives
    assert ((bp[:-1] <= reps) & (reps <= bp[1:])).all()
    assert 0.0 < part.probabilities[1246] < np.finfo(float).tiny
    assert reps[1246] == bp[1247]
    assert_same_bits(reps, [o.spec_cell_conditional_mean(f, a, b)
                            for a, b in cells(bp)])


def probe_cells(f, rng):
    """Cells of f's 7-cell partition, and cells partly or wholly outside
    its support, ending at signed zeros, or one ulp wide."""
    lo, hi = f.support
    w = max(hi - lo, 1.0)
    edges = np.sort(rng.uniform(lo - 0.5 * w, hi + 0.5 * w, (12, 2)), axis=1)
    out = cells(make_partition(f, 7).breakpoints) + edges.tolist()
    out += [(lo - w, lo), (hi, hi + w), (lo, np.nextafter(lo, np.inf)),
            (lo - 2.0 * w, lo - w), (-1.0, -0.0), (-0.0, 1.0), (-1.0, 0.0),
            (0.0, 1.0), (lo, np.nextafter(hi, np.inf))]
    return [(a, b) for a, b in out if a < b]


def test_one_cell_functions_match_the_per_cell_spec():
    rng = np.random.default_rng(7)
    for f in FACTORS + CONSTANTS:
        for a, b in probe_cells(f, rng):
            p = cell_probability(f, a, b)
            m = cell_conditional_mean(f, a, b)
            assert isinstance(p, float) and isinstance(m, float)
            assert_same_bits(p, o.spec_cell_probability(f, a, b))
            assert_same_bits(m, o.spec_cell_conditional_mean(f, a, b))


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0), (np.nan, 1.0),
                                  (0.0, np.nan)])
def test_one_cell_functions_refuse_what_the_spec_refuses(a, b):
    for f in (U(0.0, 3.0), TN(0.0, 1.0, -1.0, 2.0), C(1.0)):
        for fn in (cell_probability, cell_conditional_mean,
                   o.spec_cell_probability, o.spec_cell_conditional_mean):
            with pytest.raises(ValueError, match="a < b"):
                fn(f, a, b)


# the SHA-256 of mean_truncation's output bytes, recorded while every
# cell was taken one at a time
def two_factor_case():
    fs, fr = TN(5000.0, 10.0, 4950.0, 5050.0), TN(0.0, 1.0, -3.0, 3.0)
    return mean_truncation(lambda s, r: s + r, (fs, fr),
                           (make_partition(fs, 200), make_partition(fr, 100)))


def zero_mass_and_constant_case():
    narrow, c, u = TN(0.0, 0.01, -1.0, 1.0), C(2.0), U(-1.0, 2.0)
    parts = (make_partition(narrow, 12, "midpoint"), make_partition(c, 4),
             make_partition(u, 5))
    out = mean_truncation(lambda x, k, y: np.sin(30.0 * x) * k + y * y,
                          (narrow, c, u), parts)
    assert out.shape == (12, 1, 5) and (out == 0.0).sum() == 40
    return out


@pytest.mark.parametrize("case, digest", [
    (two_factor_case,
     "731828c736969c33cb23223b84586eae8fe70887aa6038c91ad650dbf6a3f68e"),
    (zero_mass_and_constant_case,
     "f4a740dff3da7ac18f65663bc69f2bc00b0aeabfbb3cbb5cdb56085508fd5028"),
], ids=["200x100", "zero_mass_and_constant"])
def test_mean_truncation_bytes_are_pinned(case, digest):
    assert hashlib.sha256(case().tobytes()).hexdigest() == digest
