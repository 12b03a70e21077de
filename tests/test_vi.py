from dataclasses import asdict

import numpy as np
import pytest

from nashgrid import (BoxSet, CournotInstance, FirmParams, NonConvergenceError,
                      RandomFactor, SolverConfig, check_monotone,
                      natural_residual, operator_eval, operator_jacobian,
                      project, solve_vi, solve_box_vi_batch)
from nashgrid import vi
from nashgrid.vi import (_columns, _frozen, _newton_direction, _newton_trial,
                         residual_rows)

from _oracles import active_set_box_vi, dense_jacobian, extragradient_box_vi
from conftest import five_firm_instance


def affine_problem(M, d, lo, hi):
    """(F, box) with F(x) = M x + d on the box [lo, hi]."""
    M = np.asarray(M, dtype=float)
    d = np.asarray(d, dtype=float)
    return (lambda x: x @ M.T + d,
            BoxSet(np.asarray(lo, float), np.asarray(hi, float)))


def random_spd(rng, m, strength=0.5):
    A = rng.standard_normal((m, m))
    return A @ A.T + strength * np.eye(m)


def random_aggregative(rng, m):
    """(delta, c) with M = diag(delta) + c 1^T strongly monotone."""
    while True:
        delta = rng.uniform(0.5, 3.0, m)
        c = rng.uniform(-1.0, 1.0, m)
        M = np.diag(delta) + c[:, None]
        if np.linalg.eigvalsh(0.5 * (M + M.T))[0] > 0.1:
            return delta, c


def test_box_set_validation():
    with pytest.raises(ValueError):
        BoxSet(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        BoxSet(np.array([0.0, np.nan]), np.array([1.0, 1.0]))
    box = BoxSet(np.zeros(3), np.ones(3))
    assert box.dim == 3


def test_project_clips_componentwise():
    box = BoxSet(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    out = project(np.array([2.0, -3.0]), box)
    assert out.tolist() == [1.0, -1.0]
    inside = np.array([0.5, 0.0])
    assert project(inside, box).tolist() == inside.tolist()


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    # a non-integral count is refused, not left to fail inside a solve
    for bad in (0, 2.5, 3.0):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(max_iterations=bad)
    assert SolverConfig(max_iterations=np.int64(3)).max_iterations == 3
    for key in ("tolerance", "initial_step"):
        with pytest.raises(ValueError, match=key):
            SolverConfig(**{key: float("nan")})


def test_scalar_quadratic_solution_clipped():
    # F(x) = x - t on [0, 1]: solution is t clipped to the box
    for t, expect in ((0.4, 0.4), (-2.0, 0.0), (5.0, 1.0)):
        op, box = affine_problem([[1.0]], [-t], [0.0], [1.0])
        x, report = solve_vi(op, box, SolverConfig())
        assert report.converged
        assert abs(x[0] - expect) < 1e-8


def test_constant_shift_moves_solution():
    # a shift lives in the operator: F(x) = x - 3.25 solves x = 3.25
    x, _ = solve_vi(lambda x: x - 3.25, BoxSet([-10.0], [10.0]))
    assert abs(x[0] - 3.25) < 1e-8


def test_residual_rows_match_the_np_clip_expression_bitwise():
    # signed zeros, exact bound hits, equal bounds and non-finite values
    rng = np.random.default_rng(9)
    n, m = 400, 4
    pick = [0.0, -0.0, 1.0, 2.5, np.nan, np.inf, -np.inf]
    x = np.where(rng.random((n, m)) < 0.3, -0.0, rng.uniform(0.0, 3.0, (n, m)))
    x[rng.random((n, m)) < 0.2] = 2.5
    fx = rng.standard_normal((n, m))
    fx[rng.random((n, m)) < 0.3] = 0.0
    fx[rng.random((n, m)) < 0.2] = -0.0
    fx[:20] = rng.choice(pick, (20, m))
    x[:20] = np.where(np.isfinite(x[:20]), x[:20], 0.0)
    lower = np.zeros(m)
    for upper in (np.array([2.5, 2.5, 0.0, 3.0]),
                  rng.uniform(0.0, 3.0, (n, m))):
        want = np.sqrt(((x - np.clip(x - fx, lower, upper)) ** 2).sum(axis=-1))
        want[~np.isfinite(fx).all(axis=1)] = np.nan
        got = residual_rows(x.T, fx.T, lower[:, None], np.atleast_2d(upper).T)
        assert got.tobytes() == want.tobytes()


def test_natural_residual_zero_at_solution_and_positive_off():
    op, box = affine_problem([[2.0, 0.3], [0.3, 1.0]], [-1.0, 0.5],
                             [0.0, 0.0], [1.0, 1.0])
    x, _ = solve_vi(op, box)
    assert natural_residual(op, box, x) <= 1e-8
    assert natural_residual(op, box, x + 0.1) > 1e-3


def test_natural_residual_is_nan_where_the_operator_is_not_finite():
    # at x = 1 the clip maps x - (-inf) back onto x, which would read 0.0
    assert np.isnan(natural_residual(lambda x: np.full(1, -np.inf),
                                     BoxSet(np.zeros(1), np.ones(1)),
                                     np.ones(1)))


def test_newton_point_with_non_finite_value_is_not_taken():
    # F(x) = x - 0.5 on [0, 1] except F(1) = -inf; the understated
    # Jacobian sends the Newton step from 0 to the clipped point 1, where
    # the clip would hide the -inf. The extragradient step solves it.
    def op(x, rows):
        return np.where(x == 1.0, -np.inf, x - 0.5)

    out = solve_box_vi_batch(op, 0.0, 1.0, SolverConfig(), np.zeros((1, 1)),
                             jacobian_batch=lambda x, rows: (
                                 np.full((1, len(rows)), 0.1),
                                 np.zeros((1, len(rows)))),
                             factors=(np.arange(1),))
    assert bool(out["converged"][0]) is True
    np.testing.assert_allclose(out["solutions"][:, 0], 0.5, atol=1e-8)


def test_affine_solutions_match_active_set_enumeration():
    rng = np.random.default_rng(7)
    cfg = SolverConfig(tolerance=1e-10)
    for _ in range(25):
        m = int(rng.integers(1, 5))
        delta, c = random_aggregative(rng, m)
        M = np.diag(delta) + c[:, None]
        d = rng.standard_normal(m) * 3.0
        lo = rng.uniform(-2.0, 0.0, m)
        hi = lo + rng.uniform(0.5, 3.0, m)
        x, report = solve_vi(*affine_problem(M, d, lo, hi), cfg)
        ref = active_set_box_vi(M, d, lo, hi)
        assert report.converged
        assert np.abs(x - ref).max() < 1e-8
        newton = solve_box_vi_batch(
            lambda x: M @ x + d[:, None], lo, hi, cfg,
            seeds=(0.5 * (lo + hi))[:, None],
            jacobian_batch=lambda x: (
                np.broadcast_to(delta[:, None], x.shape),
                np.broadcast_to(c[:, None], x.shape)))
        assert newton["converged"][0]
        assert np.abs(newton["solutions"][:, 0] - ref).max() < 1e-8


def test_backtracking_handles_stiff_operator():
    # badly scaled rows: the initial step must shrink, not diverge
    M = np.diag([1.0, 50.0])
    op, box = affine_problem(M, [-1.0, -25.0], [0.0, 0.0], [10.0, 10.0])
    cfg = SolverConfig(initial_step=1.0, max_iterations=5000)
    x, res, _, backtracks = extragradient_box_vi(
        op, box.lower, box.upper, box.midpoint(), **asdict(cfg))
    assert res <= cfg.tolerance
    assert np.abs(x - np.array([1.0, 0.5])).max() < 1e-7
    # the batch solver counts the same shrinks, per row; the second row
    # starts at its solution and never steps
    out = solve_box_vi_batch(lambda x: M @ x - [[1.0], [25.0]],
                             [0.0, 0.0], [10.0, 10.0], cfg,
                             seeds=[[5.0, 1.0], [5.0, 0.5]])
    assert out["converged"].all()
    np.testing.assert_allclose(out["solutions"][:, 0], [1.0, 0.5], atol=1e-7)
    assert out["backtracks"].tolist() == [backtracks, 0]
    assert backtracks > 0


def test_nonconvergence_raises_with_report():
    op, box = affine_problem([[1.0]], [-0.9], [0.0], [1.0])
    with pytest.raises(NonConvergenceError) as exc:
        solve_vi(op, box, SolverConfig(max_iterations=1, initial_step=1e-6))
    assert exc.value.report.converged is False
    assert exc.value.report.iterations == 1
    assert exc.value.point.shape == (1,)


def test_warm_start_is_used():
    op, box = affine_problem([[1.0, 0.0], [0.0, 1.0]], [-0.3, -0.7],
                             [0.0, 0.0], [1.0, 1.0])
    x_cold, rep_cold = solve_vi(op, box)
    x_warm, rep_warm = solve_vi(op, box, warm_start=x_cold)
    assert rep_warm.iterations <= 1
    assert np.abs(x_warm - x_cold).max() < 1e-10


def test_nan_warm_start_is_refused_before_any_operator_call():
    calls = []

    def op(x):
        calls.append(np.array(x))
        return x - np.array([0.3, 0.7])

    box = BoxSet(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="warm_start"):
        solve_vi(op, box, warm_start=[np.nan, 0.5])
    assert calls == []
    # an infinite component still projects onto its bound
    x, _ = solve_vi(op, box, warm_start=[np.inf, -np.inf])
    assert calls[0].tolist() == [1.0, 0.0]
    assert np.abs(x - [0.3, 0.7]).max() < 1e-8


def test_nan_from_operator_raises():
    box = BoxSet(np.zeros(1), np.ones(1))
    with pytest.raises(FloatingPointError):
        solve_vi(lambda x: x * np.nan, box)
    # an infinite value clips to a finite residual; it must raise too
    with pytest.raises(FloatingPointError):
        solve_vi(lambda x: np.full(1, np.inf), box, warm_start=[0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_trial_value_raises(bad):
    # F(x) = 10 (x - 0.2) on [0, 1] is non-finite below 0.5: from 0.9
    # the first trial point is 0, where it is NaN or infinite
    def op(x):
        if not np.isfinite(x).all():
            raise ValueError("operator called at a non-finite point")
        return np.where(x < 0.5, bad, 10.0 * (x - 0.2))

    with pytest.raises(FloatingPointError):
        solve_vi(op, BoxSet(np.zeros(1), np.ones(1)), warm_start=[0.9])


def test_batch_matches_sequential_scalar_solves():
    rng = np.random.default_rng(11)
    m = 3
    M = random_spd(rng, m)
    shifts = rng.standard_normal((40, m))
    lo = np.zeros(m)
    hi = np.full(m, 2.0)
    cfg = SolverConfig()

    def op_batch(x, rows):
        return M @ x + shifts[rows].T

    out = solve_box_vi_batch(op_batch, np.tile(lo, (40, 1)).T,
                             np.tile(hi, (40, 1)).T, cfg,
                             seeds=np.full((m, 40), 1.0),
                             factors=(np.arange(40),))
    assert out["converged"].all()
    for i in range(40):
        op, box = affine_problem(M, shifts[i], lo, hi)
        x, res, _, _ = extragradient_box_vi(op, lo, hi, np.full(m, 1.0),
                                            **asdict(cfg))
        assert res <= cfg.tolerance
        assert np.abs(out["solutions"][:, i] - x).max() < 1e-7
        assert natural_residual(op, box, out["solutions"][:, i]) \
            <= cfg.tolerance


def test_batch_rows_converge_independently():
    # one row per outcome, and the residual alone tells them apart: row
    # 0 is accepted at its seed, row 1 converges later, row 2 runs out
    # of iterations, row 3's operator is NaN at its iterate and row 4's
    # at its first trial point (NaN below 0.5, as in the test below)
    def op(x, rows):
        if not np.isfinite(x).all():
            raise ValueError("operator called at a non-finite point")
        r = rows
        return np.select([r == 0, r == 1, r == 2, r == 3],
                         [x - 0.9, 0.5 * (x - 0.3), 1e-3 * (x - 0.5),
                          x + np.nan],
                         np.where(x < 0.5, np.nan, 10.0 * (x - 0.2)))

    cfg = SolverConfig(max_iterations=100)
    out = solve_box_vi_batch(op, 0.0, 1.0, cfg, seeds=np.full((1, 5), 0.9),
                             factors=(np.arange(5),))
    res, its, sol = out["residuals"], out["iterations"], out["solutions"][0]
    assert out["converged"].tolist() == (res <= cfg.tolerance).tolist()
    assert out["converged"].tolist() == [True, True, False, False, False]
    assert its.tolist() == [0, 60, cfg.max_iterations, 0, 0]
    assert res[0] == 0.0 and sol[0] == 0.9
    assert 0.0 < res[1] <= cfg.tolerance
    assert abs(sol[1] - 0.3) < 1e-7
    assert cfg.tolerance < res[2] < np.inf
    assert 0.5 < sol[2] < 0.9
    assert np.isnan(res[3:]).all() and np.isnan(sol[3:]).all()
    # each row keeps the bits it has alone
    for i in range(5):
        alone = solve_box_vi_batch(op, 0.0, 1.0, cfg,
                                   seeds=np.full((1, 1), 0.9),
                                   factors=(np.array([i]),))
        for key in out:
            assert out[key][..., i].tobytes() == \
                alone[key][..., 0].tobytes(), (i, key)


def test_batch_freezes_non_finite_rows():
    # row 0's operator is NaN everywhere; row 1 is affine and solvable
    calls = []

    def op(x, rows):
        calls.append(rows.size)
        return np.where(rows == 0, np.nan, x - 0.3)

    cfg = SolverConfig()
    out = solve_box_vi_batch(op, np.zeros((2, 2)), np.ones((2, 2)), cfg,
                             seeds=np.full((2, 2), 0.9),
                             factors=(np.arange(2),))
    assert out["iterations"][0] == 0
    assert bool(out["converged"][0]) is False
    assert np.isnan(out["residuals"][0])
    assert np.isnan(out["solutions"][:, 0]).all()
    assert bool(out["converged"][1]) is True
    assert out["residuals"][1] <= cfg.tolerance
    np.testing.assert_allclose(out["solutions"][:, 1], 0.3, atol=1e-8)
    assert calls[0] == 2 and set(calls[1:]) == {1}
    assert len(calls) < 2 * cfg.max_iterations


def test_batch_freezes_rows_whose_trial_value_is_non_finite():
    # row 0: F(x) = 10 (x - 0.2) on [0, 1], NaN below 0.5, so from 0.9
    # the first trial point 0 has a NaN value; row 1 is the same F
    # without the NaN. Like the market operator, op refuses non-finite
    # points, so stepping row 0 to its NaN image would raise.
    def op(x, rows):
        if not np.isfinite(x).all():
            raise ValueError("operator called at a non-finite point")
        return np.where((rows == 0) & (x < 0.5), np.nan,
                        10.0 * (x - 0.2))

    cfg = SolverConfig()
    out = solve_box_vi_batch(op, 0.0, 1.0, cfg, seeds=np.full((1, 2), 0.9),
                             factors=(np.arange(2),))
    assert bool(out["converged"][0]) is False
    assert out["iterations"][0] == 0
    assert np.isnan(out["residuals"][0])
    assert np.isnan(out["solutions"][:, 0]).all()
    # the finite row keeps the bits it has alone
    alone = solve_box_vi_batch(lambda x: 10.0 * (x - 0.2), 0.0, 1.0,
                               cfg, seeds=np.full((1, 1), 0.9))
    assert bool(out["converged"][1]) is True
    for key in ("solutions", "residuals", "iterations", "backtracks"):
        assert out[key][..., 1].tobytes() == \
            alone[key][..., 0].tobytes(), key


def test_newton_rows_do_not_depend_on_their_neighbours():
    # F(x) = diag(delta) x + c sum(x) + x**3 + d is strictly monotone
    # with Jacobian diag(delta + 3 x**2) + c 1^T. Row 0 is the Newton
    # row under test; row 1's operator is NaN, row 2's Jacobian is NaN
    # so it only takes extragradient steps and runs out of iterations,
    # and row 3's Jacobian is zero, so its Newton matrix is singular.
    # sum(x) is taken firm by firm: an axis sum may round a 1-column
    # and a 4-column batch differently.
    delta = np.array([2.0, 1.5, 1.0])
    c = np.array([0.5, -0.3, 0.2])
    d = np.array([[-3.0, 0.5, -1.0], [1.0, 1.0, 1.0], [-4.0, -2.0, 3.0],
                  [-1.0, -1.0, 0.5]])

    def op(x, rows):
        total = x[0] + x[1] + x[2]
        out = delta[:, None] * x + c[:, None] * total + x ** 3 + d[rows].T
        return np.where(rows == 1, np.nan, out)

    def jac(x, rows):
        diag = np.where(rows == 2, np.nan, delta[:, None] + 3.0 * x ** 2)
        zero = rows == 3
        return np.where(zero, 0.0, diag), np.where(zero, 0.0, c[:, None])

    cfg = SolverConfig(max_iterations=12, tolerance=1e-12)
    lo, hi = np.full(3, -2.0), np.full(3, 2.0)
    seeds = np.full((3, 4), 1.5)
    batch = solve_box_vi_batch(op, lo, hi, cfg, seeds, jacobian_batch=jac,
                               factors=(np.arange(4),))
    alone = solve_box_vi_batch(op, lo, hi, cfg, seeds[:, :1],
                               jacobian_batch=jac, factors=(np.arange(1),))
    # from 1.5 row 0 rejects some Newton points and backtracks
    assert bool(batch["converged"][0]) is True
    assert batch["iterations"][0] < cfg.max_iterations
    assert batch["backtracks"][0] > 0
    assert bool(batch["converged"][1]) is False
    assert np.isnan(batch["solutions"][:, 1]).all()
    assert bool(batch["converged"][2]) is False
    assert batch["iterations"][2] == cfg.max_iterations
    for key in ("solutions", "residuals", "iterations", "converged",
                "backtracks"):
        assert batch[key][..., 0].tobytes() == \
            alone[key][..., 0].tobytes(), key


def recording_operator(factors):
    """A frozen operator that records the factors it gets."""
    seen = []

    def fn(x, *got):
        seen.append(got)
        return x
    return _frozen(fn, factors), seen


def test_frozen_passes_the_factor_objects_when_rows_cover_every_column():
    factors = (np.arange(4.0), 2.0, np.ones((3, 4)), np.ones((3, 1)))
    op, seen = recording_operator(factors)
    op(np.zeros((3, 4)), np.arange(4))
    assert len(seen) == 1
    assert all(got is v for got, v in zip(seen[0], factors))


def test_frozen_gathers_per_column_factors_and_keeps_shared_ones_whole():
    rng = np.random.default_rng(5)
    r, beta = rng.random(6), rng.random((3, 6))
    shared = (2.0, np.float64(3.0), np.array(4.0), np.ones(1),
              np.ones((3, 1)))
    op, seen = recording_operator((r, beta, *shared))
    rows = np.array([1, 2, 5])
    op(np.zeros((3, 3)), rows)
    got_r, got_beta, *got_shared = seen[0]
    assert got_r.tolist() == r[rows].tolist()
    assert got_beta.tobytes() == beta[:, rows].tobytes()
    assert all(got is v for got, v in zip(got_shared, shared))
    # the bounds follow the same rule
    assert _columns(beta, rows).tobytes() == beta[:, rows].tobytes()
    assert _columns(shared[-1], rows) is shared[-1]


def test_frozen_operator_with_as_many_columns_as_firms():
    # five firms, five columns: a shared (m,) beta could not be told from
    # a per-column one, so shared per-firm inputs are (m, 1) columns
    inst = five_firm_instance()
    rng = np.random.default_rng(11)
    q = rng.uniform(5.0, 95.0, (5, 5))
    r = rng.uniform(-0.5, 0.5, 5)
    s = rng.uniform(4950.0, 5050.0, 5)
    beta = rng.uniform(0.5, 1.5, (5, 1))
    alpha = 0.25
    op = _frozen(lambda x, *f: operator_eval(inst, x, *f),
                 (r, s, beta, alpha))
    rows = np.array([0, 2])
    got = op(q[:, rows], rows)
    for j, row in enumerate(rows):
        one = [row]
        want = operator_eval(inst, q[:, one], r[one], s[one], beta, alpha)
        assert got[:, j].tobytes() == want[:, 0].tobytes()
    # an (m,) vector here would be gathered as if it had one entry a column
    assert _columns(beta[:, 0], rows).shape == (2,)


@pytest.mark.parametrize("newton", [False, True])
def test_screened_residuals_give_the_bits_of_a_call_without_them(
        newton, monkeypatch):
    # F(x) = diag(delta)(x - t) + c sum(x - t) + (x - t)**3 vanishes at
    # t. Column 0 is seeded at its t, so it leaves at iteration 0;
    # column 1's operator is NaN; column 2 is an ordinary miss
    delta, c = np.array([[2.0], [1.5]]), np.array([[0.5], [-0.3]])
    t = np.array([[0.4, 0.0, 1.0], [0.3, 0.0, -0.5]])

    def op(x, rows):
        u = x - t[:, rows]
        out = delta * u + c * (u[0] + u[1]) + u ** 3
        return np.where(rows == 1, np.nan, out)

    def jac(x, rows):
        return delta + 3.0 * (x - t[:, rows]) ** 2, c + 0.0 * x

    lo, hi = np.full((2, 1), -2.0), np.full((2, 1), 2.0)
    seeds = np.array([[0.4, 1.5, -1.5], [0.3, 1.5, 1.5]])
    values = op(seeds, np.arange(3))
    screened = residual_rows(seeds, values, lo, hi)
    assert screened[0] == 0.0 and np.isnan(screened[1]) and screened[2] > 1
    calls = []

    def counted(*args):
        calls.append(args[0].shape[1])
        return residual_rows(*args)

    monkeypatch.setattr(vi, "residual_rows", counted)
    cfg = SolverConfig(tolerance=1e-12)
    kwargs = {"jacobian_batch": jac if newton else None, "values": values,
              "factors": (np.arange(3),)}
    plain = solve_box_vi_batch(op, lo, hi, cfg, seeds, **kwargs)
    n_plain = len(calls)
    given = solve_box_vi_batch(op, lo, hi, cfg, seeds, residuals=screened,
                               **kwargs)
    # the given residuals stand in for the seeds' one call
    assert calls[0] == 3 and calls[n_plain:] == calls[1:n_plain]
    assert plain["iterations"].tolist()[:2] == [0, 0]
    assert plain["iterations"][2] > 0 and plain["converged"][2]
    for key in plain:
        assert given[key].tobytes() == plain[key].tobytes(), key


def test_newton_direction_matches_dense_solve():
    # random markets at random points, with random free masks: the
    # closed form solves the assembled generalized Jacobian
    rng = np.random.default_rng(31)
    B = 64
    for _ in range(20):
        m = int(rng.integers(1, 7))
        firms = tuple(FirmParams(c=rng.uniform(0.0, 30.0),
                                 k=rng.uniform(0.5, 10.0),
                                 b=rng.uniform(0.6, 1.4),
                                 q_bar=RandomFactor.constant(100.0))
                      for _ in range(m))
        inst = CournotInstance(firms=firms, a=rng.uniform(0.2, 0.95),
                               e=rng.uniform(1e-4, 1.0),
                               r_factor=RandomFactor.constant(0.0),
                               s_factor=RandomFactor.constant(5000.0))
        q = rng.uniform(0.1, 100.0, (B, m))
        diag, col = operator_jacobian(inst, q.T, np.zeros(B),
                                      rng.uniform(10.0, 5000.0, B),
                                      rng.uniform(0.5, 1.5, (B, m)).T,
                                      np.zeros(B))
        diag, col = diag.T, col.T
        free = rng.random((B, m)) < 0.6
        rhs = rng.standard_normal((B, m)) * rng.uniform(0.01, 100.0, (B, 1))
        d = _newton_direction(diag.T, col.T, free.T, rhs.T).T
        V = dense_jacobian(np.where(free, diag, 1.0), np.where(free, col, 0.0))
        want = np.linalg.solve(V, rhs[..., None])[..., 0]
        err = np.linalg.norm(d - want, axis=1)
        assert (err <= 1e-12 * np.linalg.norm(want, axis=1)).all()

    # one trial over four rows of a two-firm box [0, 1]^2 with constant F
    xa = np.array([[0.25, 0.75], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    fx = np.array([[5.0, -5.0], [0.1, 0.1], [0.1, 0.2], [0.1, 0.2]])
    # row 0 is clipped in both components, where an infinite diag does
    # not enter; row 1 is free with an infinite diag; row 2 is free with
    # the singular V = I - 0.5 11^T; row 3 is free with V = I
    diag = np.array([[np.inf, 2.0], [np.inf, 1.0], [1.0, 1.0], [1.0, 1.0]])
    col = np.array([[1.0, 1.0], [0.0, 0.0], [-0.5, -0.5], [0.0, 0.0]])
    called = []

    def op(x, rows):
        called.extend(rows.tolist())
        return fx[rows].T

    lo, up = np.zeros((2, 4)), np.ones((2, 4))
    rows = np.arange(4)
    take, xn, fn, resn = _newton_trial(
        op, lambda x, r: (diag[r].T, col[r].T), xa.T, lo, up, fx.T,
        residual_rows(xa.T, fx.T, lo, up), rows)
    # row 0 steps to its projection, where the constant F is solved;
    # rows 1 and 2 get no trial point; row 3's does not halve its residual
    assert called == [0, 3]
    assert take.tolist() == [True, False, False, False]
    assert xn.T.tolist() == [[0.0, 1.0]]
    assert fn.T.tolist() == [[5.0, -5.0]]
    assert resn.tolist() == [0.0]


def test_check_monotone_classifies_operators():
    box = BoxSet(np.zeros(2), np.ones(2))
    good = check_monotone(lambda x: x, box, num_pairs=200, seed=1)
    assert good.passed
    assert good.min_ratio > 0.9
    # a rotation is monotone but not strictly: ratio identically zero
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rotation = check_monotone(lambda x: x @ skew.T, box, num_pairs=200, seed=1)
    assert not rotation.passed
    assert abs(rotation.min_ratio) < 1e-12
    bad = check_monotone(lambda x: -x, box, num_pairs=200, seed=1)
    assert not bad.passed
    assert bad.min_ratio < -0.9
    # a NaN ratio fails the check, also when finite ratios come after it
    nan = check_monotone(lambda x: x * np.nan, box, num_pairs=10, seed=1)
    assert np.isnan(nan.min_ratio) and not nan.passed
    partly = check_monotone(lambda x: x if x[0] < 0.5 else x * np.nan, box,
                            num_pairs=200, seed=1)
    assert np.isnan(partly.min_ratio) and not partly.passed


def test_input_checks_of_boxes_and_the_monotonicity_check():
    with pytest.raises(ValueError, match="equal length"):
        BoxSet(np.zeros(2), np.ones(3))
    box = BoxSet(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        project(np.zeros(3), box)
    with pytest.raises(ValueError, match="dimension mismatch"):
        natural_residual(lambda x: x, box, np.zeros(3))
    with pytest.raises(ValueError, match="num_pairs"):
        check_monotone(lambda x: x, box, num_pairs=0, seed=1)
    # on a one-point box every sampled pair coincides: no ratio, no pass
    point = BoxSet(np.full(2, 0.5), np.full(2, 0.5))
    rep = check_monotone(lambda x: x, point, num_pairs=5, seed=1)
    assert rep.skipped_pairs == rep.num_pairs == 5
    assert np.isnan(rep.min_ratio) and not rep.passed
