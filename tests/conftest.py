import os
import signal
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from nashgrid import CournotInstance, FirmParams, RandomFactor

TABLE_COSTS = (10.0, 8.0, 6.0, 4.0, 2.0)
TABLE_EXPONENTS = (1.2, 1.1, 1.0, 0.9, 0.8)


def five_firm_instance(r_factor=None, s_factor=None, q_bar=100.0, **kwargs):
    firms = tuple(
        FirmParams(c=c, k=5.0, b=b, q_bar=RandomFactor.constant(q_bar))
        for c, b in zip(TABLE_COSTS, TABLE_EXPONENTS))
    return CournotInstance(
        firms=firms, a=1 / 1.1, e=1e-4,
        r_factor=r_factor or RandomFactor.constant(0.0),
        s_factor=s_factor or RandomFactor.constant(5000.0),
        **kwargs)


def randomized_instance():
    """The five-firm market with random demand shift and price scale."""
    return five_firm_instance(
        r_factor=RandomFactor.truncated_normal(0.0, 0.25, -0.5, 0.5),
        s_factor=RandomFactor.truncated_normal(5000.0, 10.0, 4950.0, 5050.0))


def random_bounds_instance():
    """The random five-firm market with firms 3 and 4 capped at U[30, 50].

    Its Monte Carlo batches shrink while they are solved: of the 4096
    samples of seed 1, 1073 converge at iteration 3 and the rest at 4.
    """
    base = randomized_instance()
    cap = RandomFactor.uniform(30.0, 50.0)
    firms = tuple(replace(f, q_bar=cap) if i in (2, 3) else f
                  for i, f in enumerate(base.firms))
    return replace(base, firms=firms)


def nine_firm_config(**run):
    """A nine-firm market drawn from a fixed stream, as a config document.

    Nine firms put every sum over the firms past 8 items, where numpy's
    own sums switch to pairwise blocking. r and s are the shipped
    market's truncated normals; run holds the run block.
    """
    rng = np.random.default_rng(2014)
    firms = [{"c": float(c), "k": float(k), "b": float(b),
              "q_bar": {"kind": "constant", "value": float(q)}}
             for c, k, b, q in zip(rng.uniform(0.0, 12.0, 9),
                                   rng.uniform(2.0, 8.0, 9),
                                   rng.uniform(0.8, 1.2, 9),
                                   rng.uniform(20.0, 60.0, 9))]
    return {
        "model": {"firms": firms, "a": 1 / 1.1, "e": 1e-4},
        "factors": {
            "r": {"kind": "truncated_normal", "mu": 0.0, "sigma": 0.25,
                  "lo": -0.5, "hi": 0.5},
            "s": {"kind": "truncated_normal", "mu": 5000.0, "sigma": 10.0,
                  "lo": 4950.0, "hi": 5050.0}},
        "solver": {"initial_step": 1.4},
        "run": run,
    }


def assert_no_child_left():
    """The test process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def fails_if_it_hangs(seconds=60):
    """Raise TimeoutError in the block once it has run for seconds."""
    def hung(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def deterministic_instance():
    return five_firm_instance()


@pytest.fixture
def random_instance():
    return randomized_instance()


def assert_allclose(actual, desired, atol=0.0, rtol=1e-12):
    np.testing.assert_allclose(np.asarray(actual), np.asarray(desired),
                               atol=atol, rtol=rtol)
