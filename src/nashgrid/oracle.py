"""Monte Carlo cross-check of the discretized expectations.

Draws i.i.d. realizations of all random factors, solves the pointwise
equilibrium problem per sample, and reports the sample mean with
standard errors. This estimator shares only the operator kernel and the
VI solver with the cell discretization, not its partitions,
representatives, warm starts or moment accumulators, so agreement
between the two is a meaningful check of the discretization.

Each sample is solved from its box midpoint by semismooth Newton steps
with the closed-form Jacobian (cournot.operator_jacobian, a diagonal
plus a rank-one term, so each Newton direction costs O(m)), falling
back to extragradient steps where a Newton step does not pay; on the
shipped market that takes 4 iterations per sample where extragradient
alone takes about 175. The grid sweep finishes the cells that miss at
their surrogate seeds the same way.

Sampling is counter-based: sample i lives in chunk i // 4096, and each
chunk draws from its own Philox stream keyed by (seed, chunk index).
A chunk's samples are therefore a pure function of the seed, and the
chunks run one after another in the calling thread, their sums merged in
chunk order, so the report is bit-identical across runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregate import _fmt, neumaier_add, write_csv
from .cournot import operator_eval_sampled, operator_jacobian
from .distributions import ppf
from .vi import SolverConfig, _warm_heap, solve_box_vi_batch

CHUNK_SIZE = 4096


@dataclass
class OracleReport:
    """Sample mean of the equilibrium with per-component standard errors."""

    mean: np.ndarray
    standard_error: np.ndarray
    n_samples: int
    seed: int
    failed_solves: int = 0


def _chunk_rng(seed, chunk):
    return np.random.Generator(np.random.Philox(key=seed).jumped(chunk))


def monte_carlo_mean(instance, n_samples, seed, solver_config=None):
    """Estimate E(u) by sample averaging over factor draws.

    Args:
        instance: the market model.
        n_samples: number of i.i.d. factor realizations, an integer >= 1.
        seed: integer in [0, 2**128) keying the sample stream.
        solver_config: SolverConfig for the per-sample solves.

    Returns:
        OracleReport. standard_error is sample stddev / sqrt(n);
        failed_solves counts samples whose solve did not converge
        (their last iterates still enter the average, and callers
        should treat any failure as disqualifying).
    """
    if not (isinstance(n_samples, (int, np.integer)) and n_samples >= 1):
        raise ValueError("n_samples must be an integer >= 1")
    # refused, not cut to an int: a float seed, and keys Philox refuses
    if not (isinstance(seed, (int, np.integer)) and 0 <= int(seed) < 2 ** 128):
        raise ValueError("seed must be an integer in [0, 2**128)")
    seed = int(seed)
    config = solver_config or SolverConfig()
    _warm_heap()
    m = instance.m
    # one draw per factor slot, in fixed order, constants included,
    # so the stream layout does not depend on which factors are random
    factors = ([instance.r_factor, instance.s_factor]
               + list(f.q_bar for f in instance.firms)
               + list(instance.beta_factors) + [instance.alpha_factor])
    # chunk partials merge in chunk order as each chunk is done, compensated
    sums, comp = np.zeros((2, 2, m))
    failed = 0
    for chunk in range((n_samples + CHUNK_SIZE - 1) // CHUNK_SIZE):
        nc = min(CHUNK_SIZE, n_samples - chunk * CHUNK_SIZE)
        rng = _chunk_rng(seed, chunk)
        draws = [ppf(fac, rng.random(nc)) for fac in factors]
        upper = np.stack(draws[2:2 + m])
        # r, s, beta and alpha, one entry per sample
        sample = (draws[0], draws[1], np.stack(draws[2 + m:2 + 2 * m]),
                  draws[-1])
        out = solve_box_vi_batch(
            lambda x, *f: operator_eval_sampled(instance, x, *f),
            0.0, upper, config, seeds=0.5 * upper,
            jacobian_batch=lambda x, *f: operator_jacobian(instance, x, *f),
            factors=sample)
        sols = out["solutions"]
        failed += int(nc - out["converged"].sum())
        # a memoryview yields each value as a Python float, which fsum
        # takes faster than numpy scalars or a list of floats built first;
        # the chunk's sums are a stack of one term
        neumaier_add(sums, comp,
                     np.array([[[math.fsum(memoryview(row)) for row in v]
                                for v in (sols, sols ** 2)]]))
    s1, s2 = sums + comp

    mean = s1 / n_samples
    if n_samples > 1:
        var = np.maximum((s2 - s1 ** 2 / n_samples) / (n_samples - 1), 0.0)
        se = np.sqrt(var / n_samples)
    else:
        se = np.zeros(m)
    return OracleReport(mean=mean, standard_error=se, n_samples=n_samples,
                        seed=seed, failed_solves=failed)


def write_oracle_csv(report, path):
    """Write (component, mc_mean, std_error, n_samples, seed) rows."""
    return write_csv(
        path, ["component", "mc_mean", "std_error", "n_samples", "seed"],
        ([f"u_{i + 1}", _fmt(mean), _fmt(se), report.n_samples, report.seed]
         for i, (mean, se) in enumerate(zip(report.mean,
                                            report.standard_error))))
