import math

import numpy as np
import pytest
from scipy.special import ndtr

from nashgrid import (Partition1D, RandomFactor, cdf, cell_conditional_mean,
                      cell_probability, make_partition, pdf, ppf)

import _oracles as o


def tn_r():
    return RandomFactor.truncated_normal(0.0, 0.25, -0.5, 0.5)


def tn_s():
    return RandomFactor.truncated_normal(5000.0, 10.0, 4950.0, 5050.0)


def test_factor_constructors_validate():
    with pytest.raises(ValueError):
        RandomFactor.uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        RandomFactor.truncated_normal(0.0, -1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        RandomFactor.truncated_normal(0.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        RandomFactor("weibull", (1.0,))
    # non-finite parameters are refused, whatever their place
    for bad in (RandomFactor.constant, lambda v: RandomFactor.uniform(0.0, v),
                lambda v: RandomFactor.truncated_normal(v, 1.0, 0.0, 1.0),
                lambda v: RandomFactor.truncated_normal(0.0, v, 0.0, 1.0)):
        for v in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                bad(v)
    with pytest.raises(ValueError, match="finite"):
        RandomFactor.uniform(-math.inf, 0.0)
    # the normal mass on [lo, hi) rounds to 0.0: the mean would be NaN,
    # and every sample would land on one endpoint
    with pytest.raises(ValueError, match="mass"):
        RandomFactor.truncated_normal(0.0, 1.0, 40.0, 41.0)


@pytest.mark.parametrize("lo, hi", [(8.0, 9.0), (9.0, 10.0)])
def test_upper_tail_truncated_normal_mirrors_lower_tail(lo, hi):
    # above the mean, ndtr(hi) - ndtr(lo) would cancel: the mass of
    # (0, 1, 9, 10) to zero and that of (0, 1, 8, 9) to a few digits
    up = RandomFactor.truncated_normal(0.0, 1.0, lo, hi)
    down = RandomFactor.truncated_normal(0.0, 1.0, -hi, -lo)
    assert up.mean() == pytest.approx(-down.mean(), rel=1e-12)
    assert ppf(up, 0.5) == pytest.approx(-ppf(down, 0.5), rel=1e-12)
    x = lo + (hi - lo) * np.array([0.01, 0.25, 0.5, 0.9])
    np.testing.assert_allclose(cdf(up, x), 1.0 - cdf(down, -x), rtol=1e-12)


def test_cell_mean_above_the_mean_mirrors_lower_tail():
    # a cell whose lower end lies above the mean of a wider support
    wide = RandomFactor.truncated_normal(0.0, 1.0, -1.0, 10.0)
    want = -RandomFactor.truncated_normal(0.0, 1.0, -9.0, -8.0).mean()
    assert cell_conditional_mean(wide, 8.0, 9.0) == pytest.approx(
        want, rel=1e-12)


@pytest.mark.xfail(strict=True, reason=(
    "cell probabilities are cdf differences, which cancel for cells far "
    "above the mean of a support that straddles it; the fix moves the "
    "pinned grid's weights, so it comes with its own re-pin"))
def test_upper_tail_cell_probability_of_a_straddling_support():
    f = RandomFactor.truncated_normal(0.0, 1.0, -1.0, 10.0)
    # P(-1 <= Z < 10) and P(9 <= Z < 10), each from the upper tail
    mass = ndtr(1.0) - ndtr(-10.0)
    want = (ndtr(-9.0) - ndtr(-10.0)) / mass
    # today 0.0 against 1.34e-19
    assert cell_probability(f, 9.0, 10.0) == pytest.approx(want, rel=1e-12)
    assert make_partition(f, 11).probabilities[-1] > 0.0


def test_truncated_normal_with_tiny_lower_tail_mass_still_works():
    f = RandomFactor.truncated_normal(0.0, 1.0, -10.0, -9.0)
    assert 0.0 < f._tn[-1] < 1e-18
    assert -10.0 < f.mean() < -9.0
    x = ppf(f, np.linspace(0.0, 1.0, 11))
    assert np.isfinite(x).all()
    assert (np.diff(x) >= 0).all()
    assert x[0] == -10.0 and x[-1] == -9.0


def test_support_and_means():
    assert RandomFactor.constant(3.0).support == (3.0, 3.0)
    assert RandomFactor.constant(2.5).mean() == 2.5
    assert RandomFactor.uniform(0.0, 2.0).mean() == 1.0
    # symmetric truncation keeps the normal mean
    assert abs(tn_r().mean()) < 1e-15
    assert abs(tn_s().mean() - 5000.0) < 1e-9
    # asymmetric truncation shifts it toward the kept side
    skew = RandomFactor.truncated_normal(0.0, 1.0, -0.5, 3.0)
    assert skew.mean() > 0.0


def test_uniform_cdf_is_linear():
    u = RandomFactor.uniform(0.0, 1.0)
    assert cdf(u, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert cdf(u, -1.0) == 0.0
    assert cdf(u, 2.0) == 1.0


def test_truncnorm_cdf_symmetry_point():
    assert cdf(tn_r(), 0.0) == pytest.approx(0.5, abs=1e-14)


def test_truncnorm_cdf_matches_quadrature():
    got = cdf(tn_s(), 5010.0)
    assert got == pytest.approx(o.FROZEN_TN_CDF_5010, abs=1e-8)
    # oracle self-check against its own frozen output
    again = o.quad_truncnorm_cdf(5010.0, 5000.0, 10.0, 4950.0, 5050.0)
    assert again == pytest.approx(o.FROZEN_TN_CDF_5010, abs=1e-12)


def test_cell_probability_basics():
    u = RandomFactor.uniform(0.0, 1.0)
    assert cell_probability(u, 0.2, 0.5) == pytest.approx(0.3, abs=1e-15)
    assert cell_probability(tn_r(), -0.5, 0.0) == pytest.approx(0.5, abs=1e-14)
    got = cell_probability(tn_r(), 0.0, 0.25)
    assert got == pytest.approx(o.FROZEN_TN_PROB_0_025, abs=1e-9)


def test_cell_conditional_mean_uniform_is_midpoint():
    u = RandomFactor.uniform(0.0, 1.0)
    assert cell_conditional_mean(u, 0.2, 0.6) == pytest.approx(0.4, abs=1e-12)


def test_cell_conditional_mean_constant():
    c = RandomFactor.constant(7.0)
    assert cell_conditional_mean(c, 6.0, 8.0) == 7.0


def test_cell_conditional_mean_matches_quadrature():
    got = cell_conditional_mean(tn_r(), 0.0, 0.25)
    assert got == pytest.approx(o.FROZEN_TN_MEAN_0_025, abs=1e-10)
    got = cell_conditional_mean(tn_s(), 4990.0, 4995.0)
    assert got == pytest.approx(o.FROZEN_TN_MEAN_4990_4995, abs=1e-8)


def test_cell_conditional_mean_zero_probability_cell():
    # far tail of the truncated support carries no mass: midpoint fallback
    f = RandomFactor.truncated_normal(0.0, 0.01, -1.0, 1.0)
    assert cell_probability(f, 0.9, 1.0) == 0.0
    assert cell_conditional_mean(f, 0.9, 1.0) == pytest.approx(0.95)


def test_pdf_integrates_to_cell_probability():
    f = tn_r()
    xs = np.linspace(-0.1, 0.3, 20001)
    trapz = np.trapezoid(pdf(f, xs), xs)
    assert trapz == pytest.approx(cell_probability(f, -0.1, 0.3), abs=1e-8)
    with pytest.raises(ValueError):
        pdf(RandomFactor.constant(1.0), 1.0)


def test_ppf_inverts_cdf():
    for f in (RandomFactor.uniform(-2.0, 3.0), tn_r(), tn_s()):
        for u in (0.01, 0.25, 0.5, 0.9, 0.999):
            x = ppf(f, u)
            assert cdf(f, x) == pytest.approx(u, abs=1e-10)
    lo, hi = tn_r().support
    assert ppf(tn_r(), 0.0) == lo
    assert ppf(tn_r(), 1.0) == hi


def test_ppf_refuses_nan_for_every_kind():
    for f in (RandomFactor.constant(3.0), RandomFactor.uniform(0.0, 1.0),
              tn_r()):
        for u in (math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                ppf(f, u)
        assert ppf(f, [0.0, 1.0]).shape == (2,)


def test_make_partition_needs_an_integer_cell_count():
    f = tn_r()
    for n in (2.0, np.float64(2.0), 2.5, "2", None):
        with pytest.raises(ValueError, match="integer"):
            make_partition(f, n)
    for n in (0, np.int64(0), -3):
        with pytest.raises(ValueError, match=">= 1"):
            make_partition(f, n)
    assert make_partition(f, np.int64(3)).n_cells == 3
    assert make_partition(RandomFactor.constant(1.0), np.int64(3)).n_cells == 1


def test_make_partition_breakpoints_and_weights():
    part = make_partition(tn_r(), 4)
    assert part.n_cells == 4
    assert part.breakpoints[0] == -0.5 and part.breakpoints[-1] == 0.5
    assert np.allclose(np.diff(part.breakpoints), 0.25)
    assert math.fsum(part.probabilities) == pytest.approx(1.0, abs=1e-12)
    # symmetric distribution, symmetric weights
    assert part.probabilities[0] == pytest.approx(part.probabilities[3], abs=1e-12)


def test_make_partition_representative_rules():
    f = RandomFactor.uniform(0.0, 1.0)
    lower = make_partition(f, 4, "lower_endpoint")
    assert lower.representatives.tolist() == [0.0, 0.25, 0.5, 0.75]
    mid = make_partition(f, 4, "midpoint")
    assert mid.representatives.tolist() == [0.125, 0.375, 0.625, 0.875]
    cm = make_partition(f, 4, "conditional_mean")
    assert np.allclose(cm.representatives, mid.representatives, atol=1e-12)
    with pytest.raises(ValueError):
        make_partition(f, 4, "upper_endpoint")
    with pytest.raises(ValueError):
        make_partition(f, 0)


def test_make_partition_conditional_mean_reps_stay_inside_cells():
    part = make_partition(tn_s(), 10, "conditional_mean")
    for i in range(10):
        a, b = part.breakpoints[i], part.breakpoints[i + 1]
        assert a < part.representatives[i] < b


def test_make_partition_constant_factor_single_cell():
    part = make_partition(RandomFactor.constant(5.0), 7)
    assert part.n_cells == 1
    assert part.representatives.tolist() == [5.0]
    assert part.probabilities.tolist() == [1.0]


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition1D(np.array([0.0, 1.0, 0.5]), np.array([0.1, 0.6]),
                    np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Partition1D(np.array([0.0, 1.0]), np.array([2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Partition1D(np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.7]),
                    np.array([0.9, 0.9]))
    # NaN anywhere is refused, not waved through by a NaN comparison
    nan = math.nan
    for pr in ([nan, nan], [nan, 1.0]):
        with pytest.raises(ValueError, match="nonnegative"):
            Partition1D(np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.7]),
                        np.array(pr))
    with pytest.raises(ValueError, match="sum to 1"):
        Partition1D(np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.7]),
                    np.array([math.inf, 0.0]))
    with pytest.raises(ValueError, match="within its cell"):
        Partition1D(np.array([0.0, 0.5, 1.0]), np.array([nan, 0.7]),
                    np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="within its cell"):
        Partition1D(np.array([2.0, 2.0]), np.array([nan]), np.array([1.0]))
    for bp in ([0.0, nan, 1.0], [nan, nan], [0.0, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            Partition1D(np.array(bp), np.full(len(bp) - 1, 0.0),
                        np.full(len(bp) - 1, 1.0 / (len(bp) - 1)))


def test_constant_factor_cells_and_argument_checks():
    f = RandomFactor.constant(2.0)
    assert cdf(f, np.array([1.0, 2.0, 3.0])).tolist() == [0.0, 1.0, 1.0]
    assert cell_probability(f, 1.5, 2.5) == 1.0
    assert cell_probability(f, 2.5, 3.0) == 0.0
    # cells are [a, b): the value belongs to the cell it opens
    assert cell_probability(f, 1.0, 2.0) == 0.0
    assert cell_probability(f, 2.0, 3.0) == 1.0
    assert cell_conditional_mean(f, 2.0, 3.0) == 2.0
    assert cell_conditional_mean(f, 1.5, 2.5) == 2.0
    # a cell that misses the value gets its midpoint
    assert cell_conditional_mean(f, 3.0, 5.0) == 4.0
    f = RandomFactor.uniform(0.0, 2.0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ppf(f, 1.5)
    with pytest.raises(ValueError, match="a < b"):
        cell_probability(f, 1, 1)


def test_a_factor_with_the_wrong_parameter_count_is_refused():
    with pytest.raises(ValueError,
                       match=r"^uniform factor takes \(lo, hi\)$"):
        RandomFactor("uniform", (0.0, 1.0, 2.0))


def test_a_partition_needs_at_least_two_breakpoints():
    with pytest.raises(ValueError, match="^breakpoints must be a 1-d array "
                                         "of length >= 2$"):
        Partition1D(np.array([0.0]), np.array([]), np.array([]))


def test_a_partition_needs_one_representative_per_cell():
    with pytest.raises(ValueError, match="^need one representative and one "
                                         "probability per cell$"):
        Partition1D(np.array([0.0, 0.5, 1.0]), np.array([0.25]),
                    np.array([0.5, 0.5]))
