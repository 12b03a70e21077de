import itertools

import numpy as np
import pytest

from nashgrid import (BoxSet, CournotInstance, FirmParams, RandomFactor,
                      SolverConfig, check_monotone, cost,
                      jacobian_form_test, operator_eval, operator_eval_sampled,
                      operator_jacobian, price, price_part, solve_box_vi_batch,
                      solve_vi, vi, welfare)

import _oracles as o
from conftest import five_firm_instance


def test_firm_params_validation():
    ok = RandomFactor.constant(10.0)
    with pytest.raises(ValueError):
        FirmParams(c=-1.0, k=5.0, b=1.0, q_bar=ok)
    with pytest.raises(ValueError):
        FirmParams(c=1.0, k=0.0, b=1.0, q_bar=ok)
    with pytest.raises(ValueError):
        FirmParams(c=1.0, k=5.0, b=-0.5, q_bar=ok)
    # NaN fails every check, not just the ones it compares false against
    nan = float("nan")
    with pytest.raises(ValueError, match="c must be"):
        FirmParams(c=nan, k=5.0, b=1.0, q_bar=ok)
    with pytest.raises(ValueError, match="k must be"):
        FirmParams(c=1.0, k=nan, b=1.0, q_bar=ok)
    with pytest.raises(ValueError, match="b must be"):
        FirmParams(c=1.0, k=5.0, b=nan, q_bar=ok)


def test_instance_validation():
    firms = (FirmParams(c=1.0, k=5.0, b=1.0, q_bar=RandomFactor.constant(10.0)),)
    r = RandomFactor.constant(0.0)
    s = RandomFactor.constant(100.0)
    with pytest.raises(ValueError):
        CournotInstance(firms=firms, a=1.5, e=1e-4, r_factor=r, s_factor=s)
    with pytest.raises(ValueError):
        CournotInstance(firms=firms, a=0.5, e=0.0, r_factor=r, s_factor=s)
    with pytest.raises(ValueError):
        CournotInstance(firms=firms, a=0.5, e=1e-4, r_factor=r,
                        s_factor=RandomFactor.uniform(-1.0, 100.0))
    with pytest.raises(ValueError):
        CournotInstance(firms=firms, a=0.5, e=1e-4, r_factor=r, s_factor=s,
                        beta_factors=(RandomFactor.uniform(-0.5, 1.0),))
    with pytest.raises(ValueError):
        CournotInstance(firms=firms, a=0.5, e=1e-4, r_factor=r, s_factor=s,
                        beta_factors=(RandomFactor.constant(1.0),) * 2)
    with pytest.raises(ValueError, match="e must be"):
        CournotInstance(firms=firms, a=0.5, e=float("nan"), r_factor=r,
                        s_factor=s)


def test_price_and_cost_match_reference_formulas():
    inst = five_firm_instance()
    q = np.array([10.0, 20.0, 5.0, 0.0, 40.0])
    assert price(inst, float(q.sum()), 5000.0) == pytest.approx(
        o.market_price(q, 5000.0, inst.a, inst.e), rel=1e-14)
    for i, (c, k, b) in enumerate(o.TABLE_FIRMS):
        got = cost(inst.firms[i], 13.0, r=0.2, beta=1.1)
        want = o.firm_cost(13.0, c, k, b, 0.2, beta=1.1)
        assert got == pytest.approx(want, rel=1e-14)


def test_operator_matches_reference_marginal_map():
    inst = five_firm_instance()
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = rng.uniform(0.0, 100.0, 5)
        r = rng.uniform(-0.5, 0.5)
        s = rng.uniform(4950.0, 5050.0)
        alpha = rng.uniform(0.0, 0.3)
        beta = rng.uniform(0.5, 1.5, 5)
        got = operator_eval(inst, q, r, s, beta=beta, alpha=alpha)
        want = [o.marginal_map(i, list(q), o.TABLE_FIRMS, r, s, inst.a,
                               inst.e, beta, alpha) for i in range(5)]
        np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("entry", ["operator_eval", "operator_eval_sampled",
                                   "operator_jacobian"])
def test_operator_rejects_bad_inputs(entry):
    inst = five_firm_instance()
    if entry == "operator_eval":
        def call(q=np.full(5, 10.0), s=5000.0, beta=None):
            return operator_eval(inst, q, 0.0, s, beta=beta)

        bad = [(dict(q=np.full(5, -1.0)), "quantities"),
               (dict(q=np.array([np.nan, 10.0, 10.0, 10.0, 10.0])),
                "quantities"),
               (dict(s=0.0), "price scale"),
               (dict(s=np.nan), "price scale"),
               (dict(beta=np.zeros(5)), "beta"),
               (dict(beta=np.full(5, np.nan)), "beta")]
    else:
        B = 4
        fn = (operator_eval_sampled if entry == "operator_eval_sampled"
              else operator_jacobian)

        def call(q=np.full((B, 5), 10.0), s=np.full(B, 5000.0),
                 beta=np.ones((B, 5))):
            return fn(inst, q.T, np.zeros(B), s, beta.T, np.zeros(B))

        q = np.full((B, 5), 10.0)
        q[2, 3] = -1.0
        q_nan = np.full((B, 5), 10.0)
        q_nan[1, 0] = np.nan
        s = np.full(B, 5000.0)
        s[1] = 0.0
        s_nan = np.full(B, 5000.0)
        s_nan[2] = np.nan
        beta = np.ones((B, 5))
        beta[3] = 0.0
        beta_nan = np.ones((B, 5))
        beta_nan[0, 4] = np.nan
        bad = [(dict(q=q), "quantities"),
               (dict(q=q_nan), "quantities"),
               (dict(s=s), "price scale"),
               (dict(s=s_nan), "price scale"),
               (dict(beta=beta), "beta"),
               (dict(beta=beta_nan), "beta")]
        if entry == "operator_eval_sampled":
            bad.append((dict(q=np.full(5, 10.0)), "shape"))
    assert np.isfinite(call()).all()
    for kwargs, message in bad:
        with pytest.raises(ValueError, match=message):
            call(**kwargs)


def _central_difference_jacobian(inst, q, r, s, beta, alpha, h=1e-5):
    # column j of dF/dq from F(q + h e_j) - F(q - h e_j), rowwise
    J = np.zeros(q.shape + (q.shape[-1],))
    beta = np.transpose(beta)
    for j in range(q.shape[-1]):
        e = np.zeros(q.shape[-1])
        e[j] = h
        J[..., j] = (operator_eval(inst, (q + e).T, r, s, beta, alpha)
                     - operator_eval(inst, (q - e).T, r, s, beta, alpha)
                     ).T / (2 * h)
    return J


def test_jacobian_matches_central_differences():
    inst = five_firm_instance()
    rng = np.random.default_rng(21)
    B = 16
    q = rng.uniform(5.0, 95.0, (B, 5))
    r = rng.uniform(-0.5, 0.5, B)
    s = rng.uniform(4950.0, 5050.0, B)
    beta = rng.uniform(0.5, 1.5, (B, 5))
    alpha = rng.uniform(0.0, 0.3, B)
    diag, col = (v.T for v in operator_jacobian(inst, q.T, r, s, beta.T,
                                                  alpha))
    assert diag.shape == col.shape == (B, 5)
    J = o.dense_jacobian(diag, col)
    assert J.shape == (B, 5, 5)
    np.testing.assert_allclose(
        J, _central_difference_jacobian(inst, q, r, s, beta, alpha),
        rtol=1e-6, atol=1e-8)
    for i in (0, 7):
        one = o.dense_jacobian(*operator_jacobian(
            inst, q[i], float(r[i]), float(s[i]), beta=beta[i],
            alpha=float(alpha[i])))
        assert one.shape == (5, 5)
        np.testing.assert_allclose(
            one, _central_difference_jacobian(inst, q[i], float(r[i]),
                                              float(s[i]), beta[i],
                                              float(alpha[i])),
            rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(one, J[i], rtol=1e-14, atol=0.0)


def test_jacobian_price_part_reproduces_quadratic_form():
    # h^T J h minus the marginal-cost diagonal is h^T J_price h
    inst = five_firm_instance()
    rng = np.random.default_rng(23)
    scale = np.array([k ** (-1 / b) / b for _, k, b in o.TABLE_FIRMS])
    expo = np.array([1 / b - 1 for _, _, b in o.TABLE_FIRMS])
    for _ in range(10):
        q = rng.uniform(5.0, 95.0, 5)
        h = rng.standard_normal(5)
        s = rng.uniform(4950.0, 5050.0)
        beta = rng.uniform(0.5, 1.5, 5)
        J = o.dense_jacobian(*operator_jacobian(inst, q, 0.0, s, beta=beta))
        d = beta * scale * q ** expo
        got = float(h @ J @ h) - float(d @ (h * h))
        assert got == pytest.approx(jacobian_form_test(inst, q, h, s),
                                    rel=1e-11)


def test_jacobian_at_zero_output_routes_to_extragradient(monkeypatch):
    # firms 1 and 2 have b > 1, so their marginal-cost slope is infinite
    # at q_i = 0
    inst = five_firm_instance()
    J = o.dense_jacobian(*operator_jacobian(inst, np.zeros(5), 0.0, 5000.0))
    diag = np.diag(J)
    assert np.isposinf(diag[:2]).all()
    assert np.isfinite(diag[2:]).all()
    assert np.isfinite(J[~np.eye(5, dtype=bool)]).all()

    # from (0, 40, 40, 40, 40) firm 1 wants to produce but not past its
    # bound, so its component is free and its generalized Jacobian row
    # infinite: the first step must be the extragradient one, and
    # Newton points are taken after it
    seed = np.array([[0.0, 40.0, 40.0, 40.0, 40.0]]).T
    assert 0.0 < -operator_eval(inst, seed[:, 0], 0.0, 5000.0)[0] < 100.0
    taken = []
    real_trial = vi._newton_trial

    def trial(*args):
        out = real_trial(*args)
        taken.append(bool(out[0][0]))
        return out

    monkeypatch.setattr(vi, "_newton_trial", trial)

    def solve(jac):
        seen = []

        def op(x):
            seen.append(x.copy())
            return operator_eval(inst, x, 0.0, 5000.0)

        out = solve_box_vi_batch(op, np.zeros(5), np.full(5, 100.0),
                                 SolverConfig(initial_step=1.4), seed,
                                 jacobian_batch=jac)
        return out, seen

    newton, seen_n = solve(lambda x: operator_jacobian(inst, x, 0.0, 5000.0))
    plain, seen_p = solve(None)
    assert np.array_equal(seen_n[1], seen_p[1])
    assert taken[0] is False and any(taken[1:])
    assert newton["converged"][0] and plain["converged"][0]
    np.testing.assert_allclose(newton["solutions"], plain["solutions"],
                               atol=1e-7)


def test_operator_finite_at_zero_output():
    # q_i^(1/b) has infinite slope at 0 for b > 1 but the value is 0
    inst = five_firm_instance()
    out = operator_eval(inst, np.zeros(5), 0.0, 5000.0)
    assert np.all(np.isfinite(out))
    sa = 5000.0 ** inst.a
    want0 = 10.0 - sa / inst.e ** inst.a
    assert out[0] == pytest.approx(want0, rel=1e-12)


def test_operator_kernel_matches_its_expression_bitwise():
    # every argument shape the operator_eval docstring allows, against
    # the expression the kernel writes into one buffer
    inst = five_firm_instance()
    rng = np.random.default_rng(17)
    B = 7
    q_rows = rng.uniform(0.0, 60.0, (B, 5))
    q_rows[2, 1] = 0.0  # q^(1/b) at 0 for b > 1 and b < 1
    q_rows[4, 4] = 0.0
    shapes = {
        "q": (q_rows[3], q_rows.T),
        "r": (0.17, rng.uniform(-0.5, 0.5, B)),
        "s": (5003.5, rng.uniform(4950.0, 5050.0, B)),
        "alpha": (0.04, rng.uniform(-0.1, 0.1, B)),
        "beta": (None, rng.uniform(0.5, 1.5, 5),
                 rng.uniform(0.5, 1.5, (B, 5)).T),
    }
    for q, r, s, alpha, beta in itertools.product(*shapes.values()):
        s_pows = [None, s ** inst.a if np.ndim(s) == 0
                  else np.array([float(v) ** inst.a for v in s])]
        for s_pow in s_pows:
            got = operator_eval(inst, q, r, s, beta, alpha, s_pow=s_pow)
            want = o.operator_expression(inst, q, r, s, beta, alpha,
                                         s_pow=s_pow)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, q)
    # q (m,) with per-row factors broadcasts to (m, B)
    assert operator_eval(inst, q_rows[0], shapes["r"][1], 5000.0).shape \
        == (5, B)


def test_demand_shift_enters_as_constant_vector():
    # moving (r, alpha) adds (r - alpha) to every component exactly
    inst = five_firm_instance()
    q = np.array([30.0, 40.0, 35.0, 20.0, 10.0])
    base = operator_eval(inst, q, 0.0, 5000.0)
    shifted = operator_eval(inst, q, 0.31, 5000.0, alpha=0.11)
    np.testing.assert_allclose(shifted - base, np.full(5, 0.2), atol=5e-13)


def test_beta_scales_only_the_production_term():
    inst = five_firm_instance()
    q = np.array([30.0, 40.0, 35.0, 20.0, 10.0])
    b1 = operator_eval(inst, q, 0.0, 5000.0)
    b2 = operator_eval(inst, q, 0.0, 5000.0, beta=np.full(5, 2.0))
    inv_b = np.array([1 / b for _, _, b in o.TABLE_FIRMS])
    scale = np.array([k ** (-1 / b) for _, k, b in o.TABLE_FIRMS])
    np.testing.assert_allclose(b2 - b1, scale * q ** inv_b, rtol=1e-12)


def test_sampled_operator_matches_frozen_factor_version():
    inst = five_firm_instance()
    rng = np.random.default_rng(5)
    B = 32
    q = rng.uniform(0.0, 100.0, (B, 5))
    r = rng.uniform(-0.5, 0.5, B)
    s = rng.uniform(4950.0, 5050.0, B)
    beta = rng.uniform(0.5, 1.5, (B, 5))
    alpha = rng.uniform(0.0, 0.2, B)
    got = operator_eval_sampled(inst, q.T, r, s, beta.T, alpha)
    for i in range(B):
        want = operator_eval(inst, q[i], float(r[i]), float(s[i]),
                             beta=beta[i], alpha=float(alpha[i]))
        np.testing.assert_allclose(got[:, i], want, rtol=1e-13, atol=1e-13)


def test_welfare_matches_reference_and_validates():
    inst = five_firm_instance()
    q = np.array([30.0, 40.0, 35.0, 20.0, 10.0])
    for i in range(5):
        got = welfare(inst, i, q, 0.1, 5000.0, alpha=0.05)
        want = o.firm_welfare(i, list(q), o.TABLE_FIRMS, 0.1, 5000.0,
                              inst.a, inst.e, alpha=0.05)
        assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(IndexError):
        welfare(inst, 5, q, 0.0, 5000.0)
    # NaN inputs raise instead of returning NaN
    nan = float("nan")
    for i in (0, 1):
        with pytest.raises(ValueError, match="quantities"):
            welfare(inst, i, [nan, 10.0, 10.0, 10.0, 10.0], 0.0, 5000.0)
    with pytest.raises(ValueError, match="quantity"):
        cost(inst.firms[0], nan, 0.0)
    with pytest.raises(ValueError, match="beta"):
        cost(inst.firms[0], 1.0, 0.0, beta=nan)
    with pytest.raises(ValueError, match="total quantity"):
        price(inst, nan, 5000.0)
    with pytest.raises(ValueError, match="price scale"):
        price(inst, 10.0, nan)


def test_operator_is_minus_welfare_gradient():
    inst = five_firm_instance()
    rng = np.random.default_rng(9)
    for _ in range(20):
        q = rng.uniform(5.0, 95.0, 5)
        r = rng.uniform(-0.5, 0.5)
        s = rng.uniform(4950.0, 5050.0)
        F = operator_eval(inst, q, r, s)
        for i in range(5):
            def own(t, i=i):
                trial = q.copy()
                trial[i] = t
                return welfare(inst, i, trial, r, s)
            h = 1e-4 * max(1.0, abs(q[i]))
            fd = (own(q[i] + h) - own(q[i] - h)) / (2 * h)
            assert fd == pytest.approx(-F[i], rel=1e-6, abs=1e-8)


def test_quadratic_form_matches_fd_jacobian_of_price_part():
    inst = five_firm_instance()
    rng = np.random.default_rng(13)
    for _ in range(10):
        q = rng.uniform(5.0, 95.0, 5)
        h = rng.standard_normal(5)
        s = rng.uniform(4950.0, 5050.0)
        J = o.fd_jacobian(lambda x: price_part(inst, x, s), q, h=1e-5)
        want = float(h @ J @ h)
        got = jacobian_form_test(inst, q, h, s)
        assert got == pytest.approx(want, rel=1e-5)
        assert got > 0.0
    nan = float("nan")
    q = np.array([nan, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="quantities"):
        jacobian_form_test(inst, q, np.ones(5), 5000.0)
    with pytest.raises(ValueError, match="h must be"):
        jacobian_form_test(inst, np.ones(5), q, 5000.0)
    with pytest.raises(ValueError, match="price scale"):
        jacobian_form_test(inst, np.ones(5), np.ones(5), nan)


def test_operator_is_strictly_monotone_on_the_box():
    inst = five_firm_instance()
    box = BoxSet(np.zeros(5), np.full(5, 100.0))
    rep = check_monotone(lambda x: operator_eval(inst, x, 0.0, 5000.0),
                         box, num_pairs=500, seed=2)
    assert rep.passed
    assert rep.min_ratio > 0.0


def test_equilibrium_matches_best_response_oracle():
    inst = five_firm_instance()
    box = BoxSet(np.zeros(5), np.full(5, 100.0))
    for (r, s), frozen in (
            ((0.0, 5000.0), o.FROZEN_EQUILIBRIUM_R0_S5000),
            ((0.31, 4975.3), o.FROZEN_EQUILIBRIUM_R031_S49753)):
        x, report = solve_vi(
            lambda x, r=r, s=s: operator_eval(inst, x, r, s), box,
            SolverConfig(tolerance=1e-10))
        assert report.converged
        np.testing.assert_allclose(x, frozen, atol=1e-8)


def test_single_firm_solutions_match_bisection_oracle():
    firm = FirmParams(c=6.0, k=5.0, b=1.0, q_bar=RandomFactor.constant(100.0))
    for q_bar, frozen in ((100.0, o.FROZEN_SINGLE_FIRM_INTERIOR),
                          (20.0, o.FROZEN_SINGLE_FIRM_AT_BOUND)):
        inst = CournotInstance(
            firms=(FirmParams(c=6.0, k=5.0, b=1.0,
                              q_bar=RandomFactor.constant(q_bar)),),
            a=1 / 1.1, e=1e-4,
            r_factor=RandomFactor.constant(-0.2),
            s_factor=RandomFactor.constant(5000.0))
        x, _ = solve_vi(lambda x: operator_eval(inst, x, -0.2, 5000.0),
                        BoxSet(np.zeros(1), np.array([q_bar])),
                        SolverConfig(tolerance=1e-10))
        assert x[0] == pytest.approx(frozen, abs=1e-8)


def test_no_profitable_unilateral_deviation_at_equilibrium():
    inst = five_firm_instance()
    box = BoxSet(np.zeros(5), np.full(5, 100.0))
    q, _ = solve_vi(lambda x: operator_eval(inst, x, 0.0, 5000.0), box,
                    SolverConfig(tolerance=1e-10))
    for i in range(5):
        own = welfare(inst, i, q, 0.0, 5000.0)
        best = o.best_unilateral_deviation(i, list(q), o.TABLE_FIRMS, 0.0,
                                           5000.0, inst.a, inst.e, 100.0)
        assert own >= best - 1e-6


def test_model_input_checks():
    with pytest.raises(TypeError, match="q_bar"):
        FirmParams(c=1.0, k=5.0, b=1.0, q_bar=100.0)
    with pytest.raises(ValueError, match="nonnegative"):
        FirmParams(c=1.0, k=5.0, b=1.0,
                   q_bar=RandomFactor.uniform(-1.0, 5.0))
    with pytest.raises(ValueError, match="nonempty"):
        CournotInstance(firms=(), a=0.5, e=1e-4,
                        r_factor=RandomFactor.constant(0.0),
                        s_factor=RandomFactor.constant(5000.0))
    with pytest.raises(ValueError, match="one component per firm"):
        operator_eval(five_firm_instance(), np.ones(3), 0.0, 5000.0)


def test_welfare_refuses_q_of_the_wrong_shape():
    inst = five_firm_instance()
    for q in (np.ones(4), np.ones((5, 1))):
        with pytest.raises(ValueError, match="^q must be a vector with one "
                                             "component per firm$"):
            welfare(inst, 0, q, 0.0, 5000.0)


def test_jacobian_form_test_refuses_q_and_h_of_different_shapes():
    with pytest.raises(ValueError, match="^q_point and h must be vectors "
                                         "with one entry per firm$"):
        jacobian_form_test(five_firm_instance(), np.ones(5), np.ones(4),
                           5000.0)
