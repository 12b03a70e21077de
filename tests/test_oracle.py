import csv
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nashgrid import (CournotInstance, FirmParams, RandomFactor, SolverConfig,
                      monte_carlo_mean, oracle, vi)
from nashgrid.cli import load_config
from nashgrid.oracle import CHUNK_SIZE, write_oracle_csv

from conftest import five_firm_instance, randomized_instance
import _oracles as o

ROOT = Path(__file__).resolve().parent.parent


def solve_both_ways(instance, n_samples, seed, config):
    """Run the oracle; solve each chunk with and without the Jacobian.

    Returns the report and, per chunk, the Newton and the plain
    extragradient outputs plus the Jacobian callable of the whole chunk.
    """
    chunks = []
    real = oracle.solve_box_vi_batch

    def both(op, lower, upper, cfg, seeds, jacobian_batch, factors):
        plain = real(op, lower, upper, cfg, seeds, factors=factors)
        newton = real(op, lower, upper, cfg, seeds,
                      jacobian_batch=jacobian_batch, factors=factors)
        chunks.append((newton, plain,
                       lambda x: jacobian_batch(x, *factors)))
        return newton

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "solve_box_vi_batch", both)
        report = monte_carlo_mean(instance, n_samples, seed, config)
    return report, chunks


def solution_gap_bound(J1, J2, x1, x2, res1, res2, gamma):
    """Per-row bound on ||x1 - x2|| for two approximate solutions of one box VI.

    Derivation. Let x* solve the VI, r = x - P_K(x - gamma F(x)) and
    y = x - r. The projection inequality at y with z = x*, plus the VI
    at x* tested with y, give <r, x* - y> <= gamma <F(x) - F(x*), x* - y>.
    Writing x* - y = (x* - x) + r and using strong monotonicity (mu) and
    Lipschitz continuity (L) of F between x and x*:

        gamma mu ||x - x*||^2 <= (1 + gamma L) ||r|| ||x - x*||,

    so ||x - x*|| <= (1 + gamma L)/(gamma mu) ||r||, and the triangle
    inequality bounds ||x1 - x2|| by that factor times ||r1|| + ||r2||.

    mu and L are read off the closed-form Jacobians J1, J2 at the two
    points: the smallest eigenvalue of the symmetric part and the
    spectral norm, halved and doubled to cover how J moves along the
    short segments to x*. Only the components in which x1 and x2 differ
    enter, on the premise that x* shares the components the two agree
    on (a firm clipped at the same bound in both); this keeps the
    infinite slope of a b > 1 firm sitting at 0 out of L.
    """
    bound = np.zeros(len(x1))
    for i in range(len(x1)):
        moving = x1[i] != x2[i]
        if not moving.any():
            continue
        mu = min(np.linalg.eigvalsh(0.5 * (J + J.T))[0]
                 for J in (J1[i][np.ix_(moving, moving)],
                           J2[i][np.ix_(moving, moving)]))
        L = max(np.linalg.norm(J[i][:, moving], 2) for J in (J1, J2))
        mu, L = 0.5 * mu, 2.0 * L
        bound[i] = (1.0 + gamma * L) / (gamma * mu) * (res1[i] + res2[i])
    return bound


def assert_newton_matches_extragradient(newton, plain, jac, config):
    assert newton["converged"].all() and plain["converged"].all()
    assert (newton["residuals"] <= config.tolerance).all()
    # one sample per row
    x1, x2 = newton["solutions"].T, plain["solutions"].T
    J1, J2 = (o.dense_jacobian(*(v.T for v in jac(x.T))) for x in (x1, x2))
    bound = solution_gap_bound(J1, J2, x1, x2, newton["residuals"],
                               plain["residuals"], 1.0)
    gap = np.linalg.norm(x1 - x2, axis=1)
    assert (gap <= bound).all(), (gap / np.where(bound > 0, bound, 1)).max()


def test_constant_factors_give_the_deterministic_solution_exactly():
    # 64 identical samples, power-of-two count: the sample mean is the
    # per-sample solution bit for bit and the spread is exactly zero
    inst = five_firm_instance()
    rep = monte_carlo_mean(inst, 64, seed=0)
    assert rep.n_samples == 64
    assert rep.failed_solves == 0
    np.testing.assert_allclose(rep.mean, o.FROZEN_EQUILIBRIUM_R0_S5000,
                               atol=1e-7)
    assert rep.standard_error.tolist() == [0.0] * 5
    rep2 = monte_carlo_mean(inst, 64, seed=123)
    assert rep2.mean.tolist() == rep.mean.tolist()


def test_same_seed_reproduces_bitwise():
    inst = randomized_instance()
    a = monte_carlo_mean(inst, 500, seed=42)
    b = monte_carlo_mean(inst, 500, seed=42)
    assert a.mean.tolist() == b.mean.tolist()
    assert a.standard_error.tolist() == b.standard_error.tolist()


def test_chunks_run_in_the_calling_thread(monkeypatch):
    # the oracle starts no thread: every kernel call of a three-chunk
    # run happens in the thread that called monte_carlo_mean
    idents = []
    real = oracle.operator_eval_sampled

    def recording(*args):
        idents.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(oracle, "operator_eval_sampled", recording)
    rep = monte_carlo_mean(randomized_instance(), 3 * CHUNK_SIZE, seed=7)
    assert rep.failed_solves == 0
    assert len(idents) >= 3
    assert set(idents) == {threading.get_ident()}


def test_different_seeds_differ():
    inst = randomized_instance()
    a = monte_carlo_mean(inst, 500, seed=0)
    b = monte_carlo_mean(inst, 500, seed=1)
    assert a.mean.tolist() != b.mean.tolist()


def test_estimate_approaches_truth_with_more_samples():
    # the sampled r has mean 0 and the sampled s mean 5000, so the MC
    # mean should approach the deterministic equilibrium at those values
    inst = randomized_instance()
    rep = monte_carlo_mean(inst, 4096, seed=3)
    ref = np.array(o.FROZEN_EQUILIBRIUM_R0_S5000)
    assert np.abs(rep.mean - ref).max() < 5.0 * rep.standard_error.max() + 0.05
    assert rep.standard_error.max() < 0.02


def test_single_sample_has_zero_standard_error():
    inst = randomized_instance()
    rep = monte_carlo_mean(inst, 1, seed=11)
    assert rep.n_samples == 1
    assert rep.standard_error.tolist() == [0.0] * 5


def test_failed_solves_are_counted():
    inst = randomized_instance()
    starved = SolverConfig(max_iterations=1, initial_step=1e-9)
    rep = monte_carlo_mean(inst, 50, seed=5, solver_config=starved)
    assert rep.failed_solves == 50


def test_validation():
    inst = randomized_instance()
    for n_samples in (0, 2.5):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            monte_carlo_mean(inst, n_samples, seed=0)
    # seeds are integers in [0, 2**128), Philox's key range; a float is
    # refused rather than cut to an int
    for seed in (-1, -0.5, 1.5, 2.0, 2 ** 128):
        with pytest.raises(ValueError, match="seed must be an integer"):
            monte_carlo_mean(inst, 10, seed=seed)
    # numpy integers are integers, and the top of the key range runs
    rep = monte_carlo_mean(inst, 10, seed=np.uint64(3))
    assert rep.seed == 3 and type(rep.seed) is int
    assert monte_carlo_mean(inst, 10, seed=2 ** 128 - 1).seed == 2 ** 128 - 1


def test_oracle_csv_round_trip(tmp_path):
    inst = randomized_instance()
    rep = monte_carlo_mean(inst, 200, seed=9)
    path = write_oracle_csv(rep, tmp_path / "oracle.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["component"] for r in rows] == [f"u_{i}" for i in range(1, 6)]
    for i, row in enumerate(rows):
        assert float(row["mc_mean"]) == rep.mean[i]
        assert float(row["std_error"]) == rep.standard_error[i]
        assert int(row["n_samples"]) == 200
        assert int(row["seed"]) == 9


def test_newton_and_extragradient_agree_on_a_shipped_chunk():
    # chunk 0 of configs/monte_carlo.json; the measured worst gap is
    # 1.6e-8 against per-sample bounds of 1.9e-7 and more
    cfg = load_config(ROOT / "configs" / "monte_carlo.json")
    report, chunks = solve_both_ways(cfg.instance, CHUNK_SIZE, cfg.run.seed,
                                     cfg.solver)
    assert report.failed_solves == 0
    (newton, plain, jac), = chunks
    assert_newton_matches_extragradient(newton, plain, jac, cfg.solver)
    assert newton["iterations"].max() < plain["iterations"].min()


def test_a_full_shipped_chunk_does_each_residual_once_and_no_gather(
        monkeypatch):
    # chunk 0 of configs/monte_carlo.json, whose 4096 samples all take
    # their Newton point in every iteration and converge together
    cfg = load_config(ROOT / "configs" / "monte_carlo.json")
    residuals, kernels, outs = [], [], []
    real_residual_rows = vi.residual_rows
    real_solve = oracle.solve_box_vi_batch

    def residual_rows(x, *args):
        residuals.append(x.shape)
        return real_residual_rows(x, *args)

    def recording(real):
        def kernel(instance, x, *sampled):
            kernels.append((x.shape, sampled))
            return real(instance, x, *sampled)
        return kernel

    def solve(*args, **kwargs):
        outs.append(real_solve(*args, **kwargs))
        return outs[-1]

    monkeypatch.setattr(vi, "residual_rows", residual_rows)
    for name in ("operator_eval_sampled", "operator_jacobian"):
        monkeypatch.setattr(oracle, name, recording(getattr(oracle, name)))
    monkeypatch.setattr(oracle, "solve_box_vi_batch", solve)
    report = monte_carlo_mean(cfg.instance, CHUNK_SIZE, cfg.run.seed,
                              cfg.solver)
    assert report.failed_solves == 0
    (out,) = outs
    assert (out["iterations"] == 4).all()
    # the seeds' residuals, then one per Newton iteration at its trial
    # points, which the next iteration reuses
    assert residuals == [(5, CHUNK_SIZE)] * 5
    # a Jacobian and an operator call per iteration, each on the whole
    # chunk and given the drawn factor arrays themselves, not copies
    assert [shape for shape, _ in kernels] == [(5, CHUNK_SIZE)] * 9
    first = kernels[0][1]
    assert all(v is w for _, sampled in kernels for v, w in zip(sampled, first))


def _uniform(draw, lo, hi, width):
    low = draw(st.floats(lo, hi))
    return RandomFactor.uniform(low, low + draw(st.floats(*width)))


@st.composite
def random_markets(draw):
    """Markets within the config schema; capacities narrow and low enough
    that firms sit at capacity, and linear costs high enough that some
    sit at 0."""
    m = draw(st.integers(1, 4))
    firms = tuple(
        FirmParams(c=draw(st.floats(0.0, 30.0)), k=draw(st.floats(0.5, 10.0)),
                   b=draw(st.floats(0.6, 1.4)),
                   q_bar=_uniform(draw, 0.5, 60.0, (0.01, 5.0)))
        for _ in range(m))
    betas = tuple(_uniform(draw, 0.5, 1.5, (0.01, 0.5)) for _ in range(m))
    return CournotInstance(
        firms=firms, a=draw(st.floats(0.2, 0.95)), e=draw(st.floats(1e-4, 1.0)),
        r_factor=_uniform(draw, -1.0, 0.5, (0.01, 0.5)),
        s_factor=_uniform(draw, 10.0, 5000.0, (0.01, 100.0)),
        beta_factors=betas,
        alpha_factor=_uniform(draw, 0.0, 0.5, (0.01, 0.2)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(instance=random_markets(), seed=st.integers(0, 2 ** 32 - 1))
def test_newton_path_on_random_markets(instance, seed):
    config = SolverConfig(max_iterations=20000)
    report, chunks = solve_both_ways(instance, 32, seed, config)
    assert report.failed_solves == 0
    (newton, plain, jac), = chunks
    assert_newton_matches_extragradient(newton, plain, jac, config)
