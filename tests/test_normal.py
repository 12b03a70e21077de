"""The ported Cephes ndtr and ndtri agree with scipy.special bit for bit.

scipy.special evaluates the same Cephes algorithms, so it is the
reference: on arrays, over a million seeded inputs in every branch, at
every branch boundary and its neighbours, and at signed zeros,
subnormals, infinities, NaN and quantile arguments outside [0, 1]. Two
results agree when their bit patterns are equal, or when both are NaN.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from nashgrid._normal import ndtr, ndtri

SRC = Path(__file__).resolve().parents[1] / "src"
N_RANDOM = 1_000_000
SQRT2 = math.sqrt(2.0)
# |a| past which ndtr's erfc(|a| / sqrt(2)) underflows to 0 by the
# Cephes MAXLOG test
UNDERFLOW = math.sqrt(2.0 * 7.09782712893383996843e2)


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    same = (got.view(np.int64) == want.view(np.int64)) | (
        np.isnan(got) & np.isnan(want))
    bad = np.flatnonzero(~same.ravel())
    assert bad.size == 0, (
        f"{bad.size} mismatches, first at {bad[0]}: "
        f"{got.ravel()[bad[0]]!r} != {want.ravel()[bad[0]]!r}")


def check(fn, ref, x):
    """fn against ref on the array x."""
    assert_same_bits(fn(x), ref(x))


def signed(rng, magnitudes):
    return magnitudes * rng.choice([-1.0, 1.0], magnitudes.size)


def either_end(rng, y):
    """Each y or 1 - y at random: a tail of ndtri reached from both ends."""
    return np.where(rng.random(y.size) < 0.5, y, 1.0 - y)


# ndtr's branches by |a|: erf, 1 - erf, erfc's P/Q and its R/S rationals
NDTR_REGIMES = {
    "erf": lambda rng: rng.uniform(-1.0, 1.0, N_RANDOM),
    "one_minus_erf": lambda rng: signed(rng, rng.uniform(1.0, SQRT2, N_RANDOM)),
    "erfc_pq": lambda rng: signed(rng, rng.uniform(SQRT2, 8 * SQRT2, N_RANDOM)),
    "erfc_rs": lambda rng: signed(rng, rng.uniform(8 * SQRT2, 40.0, N_RANDOM)),
    "log_spread": lambda rng: signed(rng, 10.0 ** rng.uniform(-300, 3, N_RANDOM)),
}

# ndtri's branches: the central rational and the two tail rationals, each
# tail reached from both ends of [0, 1]
NDTRI_REGIMES = {
    "central": lambda rng: rng.uniform(math.exp(-2), 1 - math.exp(-2),
                                       N_RANDOM),
    "tail_p1": lambda rng: either_end(
        rng, np.exp(-rng.uniform(2.0, 32.0, N_RANDOM))),
    # from the upper end, 1 - y rounds to 1 below y = exp(-36.7)
    "tail_p2": lambda rng: np.concatenate([
        np.exp(-rng.uniform(32.0, 745.0, N_RANDOM // 2)),
        1.0 - np.exp(-rng.uniform(32.0, 36.7, N_RANDOM // 2))]),
}


@pytest.mark.parametrize("regime", sorted(NDTR_REGIMES))
def test_ndtr_matches_scipy_on_random_inputs(regime):
    rng = np.random.default_rng(sorted(NDTR_REGIMES).index(regime))
    check(ndtr, scipy.special.ndtr, NDTR_REGIMES[regime](rng))


@pytest.mark.parametrize("regime", sorted(NDTRI_REGIMES))
def test_ndtri_matches_scipy_on_random_inputs(regime):
    rng = np.random.default_rng(100 + sorted(NDTRI_REGIMES).index(regime))
    check(ndtri, scipy.special.ndtri, NDTRI_REGIMES[regime](rng))


def neighbours(points, steps=4):
    """Each point, and `steps` floats on either side of it."""
    out = []
    for p in points:
        lo = hi = p
        out.append(p)
        for _ in range(steps):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
    return np.array(out)


TINY = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
        -2.2250738585072014e-308]
SPECIAL = [np.inf, -np.inf, np.nan, -np.nan]


def test_ndtr_matches_scipy_at_boundaries_and_special_values():
    edges = [1.0, SQRT2, 8 * SQRT2, 37.5, UNDERFLOW, 38.5]
    x = neighbours(edges + [-e for e in edges] + [0.5, 1e300])
    check(ndtr, scipy.special.ndtr, np.concatenate([x, TINY, SPECIAL]))


def test_ndtri_matches_scipy_at_boundaries_and_special_values():
    edges = [math.exp(-2), 1 - math.exp(-2), math.exp(-32), 1 - math.exp(-32),
             0.5, 1.0 - 2.0 ** -53, 1.0]
    outside = [-1.0, 2.0, -5e-324, 1.0 + 2.0 ** -52, 1e300, -1e300]
    y = np.concatenate([neighbours(edges), TINY, SPECIAL, outside])
    check(ndtri, scipy.special.ndtri, y)


@settings(max_examples=500, deadline=None)
@given(st.floats())
def test_ndtr_matches_scipy_on_any_float(a):
    assert_same_bits(ndtr(a), scipy.special.ndtr(a))
    assert_same_bits(ndtr(np.array([a])), scipy.special.ndtr([a]))


@settings(max_examples=500, deadline=None)
@given(st.floats())
def test_ndtri_matches_scipy_on_any_float(y):
    assert_same_bits(ndtri(y), scipy.special.ndtri(y))
    assert_same_bits(ndtri(np.array([y])), scipy.special.ndtri([y]))


@pytest.mark.parametrize("fn", [ndtr, ndtri], ids=["ndtr", "ndtri"])
@pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 3), (2, 0, 4)])
def test_arrays_keep_their_shape(fn, shape):
    x = np.full(shape, 0.25)
    out = fn(x)
    assert isinstance(out, np.ndarray) and out.shape == shape
    assert out.dtype == np.float64
    assert_same_bits(out, np.full(shape, fn(0.25)))


def test_floats_give_0d_arrays_and_lists_give_arrays():
    for fn, x in ((ndtr, 0.0), (ndtr, np.float64(0.0)), (ndtri, 0.5)):
        out = fn(x)
        assert isinstance(out, np.ndarray) and out.shape == ()
    assert ndtr(0.0) == 0.5 and ndtri(0.5) == 0.0
    assert_same_bits(ndtr([0.0, 1.0]), scipy.special.ndtr([0.0, 1.0]))
    assert_same_bits(ndtri([0.5, 1.0]), scipy.special.ndtri([0.5, 1.0]))


def test_importing_the_cli_loads_no_scipy():
    # nor the forked fold, its mmap and its fcntl, which a sweep imports
    # on first use at parallelism >= 2
    code = ("import sys, nashgrid.cli; "
            "print(sorted(m for m in sys.modules "
            "if m in ('scipy', 'mmap', 'fcntl', 'nashgrid._forkfold') "
            "or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
