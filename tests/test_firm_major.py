"""The firm-major batch contract.

Every batch is (m, B): one row per firm, one column per problem. A sum
over the firms adds the rows left to right from +0.0 for every m and
every batch size. That is numpy's order for row sums of fewer than 8
items; from 8 on numpy blocks its sums pairwise, so these tests run
m = 5, 8, 9 and 16. A column of a batch then keeps the bits of the same
problem evaluated or solved alone.
"""
import numpy as np
import pytest

from nashgrid import (BoxSet, CournotInstance, FirmParams, RandomFactor,
                      SolverConfig, operator_eval, operator_jacobian, project,
                      solve_box_vi_batch)
from nashgrid.vi import _norm_rows, residual_rows

FIRM_COUNTS = [5, 8, 9, 16]


def left_to_right(a):
    """The rows of a summed one at a time, from +0.0."""
    total = np.zeros(a.shape[1:])
    for row in a:
        total = total + row
    return total


def spread(rng, shape):
    """Signed values over 16 decades, where the summation order shows."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)


def random_market(rng, m):
    firms = tuple(FirmParams(c=rng.uniform(0.0, 12.0), k=rng.uniform(2.0, 8.0),
                             b=rng.uniform(0.8, 1.2),
                             q_bar=RandomFactor.constant(100.0))
                  for _ in range(m))
    return CournotInstance(firms=firms, a=1 / 1.1, e=1e-4,
                           r_factor=RandomFactor.constant(0.0),
                           s_factor=RandomFactor.constant(5000.0))


@pytest.mark.parametrize("m", FIRM_COUNTS)
def test_norms_and_residuals_sum_the_firms_left_to_right(m):
    rng = np.random.default_rng(m)
    B = 3200
    d = spread(rng, (m, B))
    want = np.sqrt(left_to_right(d ** 2))
    assert _norm_rows(d).tobytes() == want.tobytes()
    # one-column batches, where numpy's own axis-0 sum goes pairwise
    for b in range(8):
        assert _norm_rows(d[:, b:b + 1]).tobytes() == want[b:b + 1].tobytes()

    x = rng.uniform(0.0, 3.0, (m, B))
    fx = spread(rng, (m, B))
    upper = rng.uniform(1.0, 3.0, (m, 1))
    want = np.sqrt(left_to_right((x - np.clip(x - fx, 0.0, upper)) ** 2))
    assert residual_rows(x, fx, 0.0, upper).tobytes() == want.tobytes()
    for b in range(8):
        got = residual_rows(x[:, b:b + 1], fx[:, b:b + 1], 0.0, upper)
        assert got.tobytes() == want[b:b + 1].tobytes()


def test_batch_columns_keep_the_bits_of_one_point_calls():
    # nine firms, every factor per column, against one call per column
    m, B = 9, 40
    rng = np.random.default_rng(2014)
    inst = random_market(rng, m)
    q = rng.uniform(0.0, 60.0, (m, B))
    q[rng.random((m, B)) < 0.1] = 0.0
    r = rng.uniform(-0.5, 0.5, B)
    s = rng.uniform(4950.0, 5050.0, B)
    beta = rng.uniform(0.5, 1.5, (m, B))
    alpha = rng.uniform(0.0, 0.3, B)
    # the sweep's s**a table: each column gets the pow of a Python float
    s_pow = np.array([float(v) ** inst.a for v in s])

    def column(i):
        return float(r[i]), float(s[i]), beta[:, i], float(alpha[i])

    F = operator_eval(inst, q, r, s, beta, alpha, s_pow=s_pow)
    J = operator_jacobian(inst, q, r, s, beta, alpha)
    for i in range(B):
        one = operator_eval(inst, q[:, i], *column(i))
        assert F[:, i].tobytes() == one.tobytes()
        for got, want in zip(J, operator_jacobian(inst, q[:, i], *column(i))):
            assert got[:, i].tobytes() == want.tobytes()

    upper = rng.uniform(20.0, 60.0, (m, B))
    seeds = 0.5 * upper
    cfg = SolverConfig(initial_step=1.4, max_iterations=400)

    def op(x, rows):
        return operator_eval(inst, x, r[rows], s[rows],
                             beta.take(rows, axis=1), alpha[rows],
                             s_pow=s_pow[rows])

    def jac(x, rows):
        return operator_jacobian(inst, x, r[rows], s[rows],
                                 beta.take(rows, axis=1), alpha[rows])

    for jacobian in (None, jac):
        batch = solve_box_vi_batch(op, 0.0, upper, cfg, seeds,
                                   jacobian_batch=jacobian,
                                   factors=(np.arange(B),))
        assert batch["converged"].all()
        for i in range(B):
            alone = solve_box_vi_batch(op, 0.0, upper[:, i:i + 1],
                                       cfg, seeds[:, i:i + 1],
                                       jacobian_batch=jacobian,
                                       factors=(np.array([i]),))
            for key in batch:
                assert batch[key][..., i].tobytes() == \
                    alone[key][..., 0].tobytes(), (i, key)


def test_project_clips_each_column_of_a_batch():
    box = BoxSet(np.zeros(2), np.array([1.0, 2.0]))
    # three firm-major points, each clipped against the (m,) bounds
    assert project(np.full((2, 3), 3.0), box).tolist() == [[1.0] * 3,
                                                           [2.0] * 3]
    assert project(np.array([-1.0, 1.5]), box).tolist() == [0.0, 1.5]
    # the row-major transpose has three firms, not two
    with pytest.raises(ValueError, match="dimension mismatch"):
        project(np.full((3, 2), 3.0), box)
    with pytest.raises(ValueError, match="dimension mismatch"):
        project(np.float64(3.0), box)
