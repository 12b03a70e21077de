import csv
import errno
import fcntl
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nashgrid import ConvergenceRow, MomentReport, _forkfold, aggregate
from nashgrid.aggregate import (SLOTS, RunningMoments, convergence_report,
                                fold_moments, neumaier_add,
                                write_summary_csv, write_convergence_csv)

import _oracles as o
from conftest import assert_no_child_left, fails_if_it_hangs


def test_compensated_add_survives_cancellation():
    total = np.zeros(1)
    comp = np.zeros(1)
    terms = np.array([[1.0], [1e100], [1.0], [-1e100]])
    total, comp = neumaier_add(total, comp, terms)
    assert (total + comp)[0] == 2.0  # plain summation returns 0.0 here


def test_running_moments_match_fsum():
    rng = np.random.default_rng(21)
    w = rng.random(500)
    w /= w.sum()
    x = rng.standard_normal((500, 3)) * 40.0
    acc = RunningMoments(3)
    for i in range(500):
        acc.add(w[i:i + 1], x[i:i + 1])
    rep = fold_moments(acc)
    for j in range(3):
        mean_ref = math.fsum(w[i] * x[i, j] for i in range(500))
        m2_ref = math.fsum(w[i] * x[i, j] ** 2 for i in range(500))
        assert rep.mean[j] == pytest.approx(mean_ref, abs=1e-13)
        assert rep.second_moment[j] == pytest.approx(m2_ref, abs=1e-12)
        var_ref = m2_ref - mean_ref ** 2
        assert rep.variance[j] == pytest.approx(var_ref, abs=1e-12)
    assert rep.total_weight == pytest.approx(1.0, abs=1e-14)


def test_stacked_add_equals_single_adds_bitwise():
    # k observations for each of 4 accumulators, stacked on a leading
    # axis; masked slots (weight 0, finite values) sit out
    rng = np.random.default_rng(5)
    k, lead, dim = 9, 4, 3
    w = rng.random((k, lead))
    x = (rng.standard_normal((k, lead, dim)) * 30.0).transpose(0, 2, 1)
    w[:, 0] *= 1e12  # a wide range of magnitudes exercises compensation
    mask = rng.random((k, lead)) < 0.3
    w[mask] = 0.0
    stacked = RunningMoments(dim, lead=(lead,))
    stacked.add(w[:4], x[:4])
    stacked.add(w[4:], x[4:])
    single = RunningMoments(dim, lead=(lead,))
    for j in range(k):
        single.add(w[j:j + 1], x[j:j + 1])
    assert stacked.total.tobytes() == single.total.tobytes()
    assert stacked.comp.tobytes() == single.comp.tobytes()
    # a masked slot is a no-op: each accumulator matches adds of its
    # unmasked observations alone
    for b in range(lead):
        alone = RunningMoments(dim)
        for j in np.flatnonzero(~mask[:, b]):
            alone.add(w[j:j + 1, b], x[j:j + 1, :, b])
        assert alone.total.tobytes() == stacked.total[:, b].tobytes()
        assert alone.comp.tobytes() == stacked.comp[:, b].tobytes()


def _reference_add(total, comp, w, x):
    """k single-slot steps on copies, each term built as its own array."""
    total, comp = total.copy(), comp.copy()
    for wj, xj in zip(w, x):
        wx = wj[None] * xj
        term = np.concatenate([wj[None], wx, wx * xj], axis=0)
        total, comp = o.compensated_step(total, comp, term)
    return total, comp


def test_neumaier_add_in_place_matches_the_expression():
    rng = np.random.default_rng(3)
    total = rng.standard_normal((4, 7)) * 1e8
    comp = rng.standard_normal((4, 7)) * 1e-9
    term = rng.standard_normal((4, 7)) * np.logspace(-8, 8, 7)
    want = o.compensated_step(total, comp, term)
    for work in (None, np.empty((3, 2, 4, 7))):
        got_total, got_comp = total.copy(), comp.copy()
        kept = term.copy()
        out = neumaier_add(got_total, got_comp, term[None], work)
        assert out[0] is got_total and out[1] is got_comp
        assert got_total.tobytes() == want[0].tobytes()
        assert got_comp.tobytes() == want[1].tobytes()
        assert term.tobytes() == kept.tobytes()


# stack heights around the fold's batch of SLOTS terms
HEIGHTS = st.sampled_from([0, 1, 2, SLOTS - 1, SLOTS, SLOTS + 1, 3 * SLOTS])
# any float, with signed zeros, subnormals, infinities and NaN often
FOLD_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, math.inf, -math.inf,
     math.nan])


def _stack(data, k, width):
    """k rows of width floats; with a coin, the odd rows cancel the even."""
    terms = np.array(data.draw(st.lists(
        FOLD_FLOATS, min_size=k * width, max_size=k * width))).reshape(k, width)
    if k > 1 and data.draw(st.booleans()):
        terms[1::2] = -terms[:k // 2 * 2:2]
    return terms


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_folded_stack_equals_k_single_steps_bitwise(data):
    k, width = data.draw(HEIGHTS), 3
    terms = _stack(data, k, width)
    start = _stack(data, 2, width)
    want = start[0], start[1]
    with np.errstate(all="ignore"):
        for term in terms:
            want = o.compensated_step(*want, term)
    kept = terms.copy()
    # the default scratch, one of SLOTS terms and one of 2 terms
    for batch in (None, SLOTS, 2):
        work = None if batch is None else np.empty((3, batch + 1, width))
        total, comp = start[0].copy(), start[1].copy()
        with np.errstate(all="ignore"):
            out = neumaier_add(total, comp, terms, work)
        assert out[0] is total and out[1] is comp
        assert total.tobytes() == want[0].tobytes()
        assert comp.tobytes() == want[1].tobytes()
        assert terms.tobytes() == kept.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_stacked_add_with_zero_weights_equals_k_steps_bitwise(data):
    # adds fold SLOTS observations at a time; zero weights sit out
    k, lead, dim = data.draw(HEIGHTS), 3, 2
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.random((k, lead)) * np.logspace(-8, 8, lead)
    w[rng.random(w.shape) < 0.4] = 0.0
    x = rng.standard_normal((k, dim, lead)) * 1e3
    acc = RunningMoments(dim, lead=(lead,))
    acc.total[...] = rng.standard_normal(acc.total.shape) * 1e3
    want = _reference_add(acc.total, acc.comp, w, x)
    acc.add(w, x)
    assert acc.total.tobytes() == want[0].tobytes()
    assert acc.comp.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("case", ["zero_weights", "nan_values", "lead_free"])
def test_one_stacked_add_equals_k_compensated_steps_bitwise(case):
    rng = np.random.default_rng(11)
    k, lead, dim = 6, (3, 4), 2
    w = rng.random((k,) + lead) * np.logspace(-6, 6, 4)
    x = rng.standard_normal((k,) + lead + (dim,)) * 50.0
    if case == "zero_weights":
        # sitting-out slots, some with negative values (terms of -0.0)
        w[rng.random(w.shape) < 0.4] = 0.0
    elif case == "nan_values":
        x[2, 1, 3] = np.nan
        x[4, 0, 0, 1] = np.nan
    elif case == "lead_free":
        lead = ()
        w, x = w[:, 0, 0], x[:, 0, 0]
    x = np.moveaxis(x, -1, 1)
    acc = RunningMoments(dim, lead=lead)
    acc.total[...] = rng.standard_normal(acc.total.shape) * 1e3
    acc.comp[...] = rng.standard_normal(acc.comp.shape) * 1e-13
    w_in, x_in = np.array(w), np.array(x)
    w_copy, x_copy = w_in.copy(), x_in.copy()
    want = _reference_add(acc.total, acc.comp, w_in, x_in)
    acc.add(w_in, x_in)
    assert acc.total.tobytes() == want[0].tobytes()
    assert acc.comp.tobytes() == want[1].tobytes()
    if case == "nan_values":
        assert np.isnan(acc.total[1:, 1, 3]).all()
        assert np.isnan(acc.total[[2, 4], 0, 0]).all()
        assert np.isfinite(acc.total[:, 0, 1]).all()
    # the caller's arrays are read, never written
    assert w_in.tobytes() == w_copy.tobytes()
    assert x_in.tobytes() == x_copy.tobytes()


def test_add_refuses_an_unstacked_observation():
    # one observation per accumulator is a stack of k = 1; an unstacked
    # weight would otherwise spread over the sums' components
    acc = RunningMoments(2, lead=(3,))
    for w, x in ((0.25, np.array([1.5, -2.0])),
                 (np.full(3, 0.25), np.ones((3, 2)))):
        with pytest.raises(ValueError, match="weight must have shape"):
            acc.add(w, x)
    assert not acc.total.any() and not acc.comp.any()


def _random_adds(rng, lead, dim):
    """Adds of 0 to 7 observations, a NaN and zero weights among them."""
    adds = []
    for k in (3, 7, 1, 0, 5, 2, 6, 4):
        w = rng.random((k,) + lead) * np.logspace(-6, 6, lead[-1])
        w[rng.random(w.shape) < 0.3] = 0.0
        x = rng.standard_normal((k, dim) + lead) * 40.0
        adds.append((w, x))
    adds[4][1][2, 1, 0, 3] = np.nan
    # one add whose values broadcast over the accumulators
    adds.append((rng.random((3,) + lead), rng.standard_normal((3, dim, 1, 1))))
    return adds


@pytest.mark.parametrize("rows", [8, 2, 1])
def test_a_fold_in_a_child_equals_the_fold_in_process_bitwise(monkeypatch,
                                                               rows):
    # rows below an add's k make the child fold it over several reads
    monkeypatch.setattr(aggregate, "SLOTS", rows)
    rng = np.random.default_rng(17)
    lead, dim = (3, 4), 2
    adds = _random_adds(rng, lead, dim)
    here = RunningMoments(dim, lead=lead)
    there = RunningMoments(dim, lead=lead)
    start = rng.standard_normal(here.total.shape)
    for acc in (here, there):
        acc.total[...] = start
    for w, x in adds:
        here.add(w, x)
    with fails_if_it_hangs():
        with there.folded_in_child():
            for w, x in adds:
                there.add(w, x)
            with pytest.raises(ValueError, match="weight must have shape"):
                there.add(np.ones(3), np.ones((3, dim)))
    assert there.total.tobytes() == here.total.tobytes()
    assert there.comp.tobytes() == here.comp.tobytes()
    assert np.isnan(there.total[[2, 4], 0, 3]).all()
    assert_no_child_left()
    # the accumulator folds in-process again after the block
    for acc in (here, there):
        acc.add(*adds[0])
    assert there.total.tobytes() == here.total.tobytes()


def test_a_failing_fold_in_the_child_raises_in_the_caller(monkeypatch):
    def broken(*args):
        raise FloatingPointError("a fold step failed")

    # the child is forked inside the block, so it inherits the patch
    monkeypatch.setattr(aggregate, "neumaier_add", broken)
    monkeypatch.setattr(aggregate, "SLOTS", 1)
    monkeypatch.setattr(_forkfold, "PIPE_BYTES", 4096)
    acc = RunningMoments(2, lead=(3,))
    with fails_if_it_hangs():
        for n_adds in (1, 50):
            with pytest.raises(RuntimeError, match="child process"):
                with acc.folded_in_child():
                    for _ in range(n_adds):
                        acc.add(np.ones((2, 3)), np.ones((2, 2, 3)))
            assert_no_child_left()
    assert not acc.total.any() and not acc.comp.any()


def _assert_a_child_folds_bitwise(adds, dim, lead):
    """The adds, folded in a child, leave the in-process fold's bits."""
    here = RunningMoments(dim, lead=lead)
    there = RunningMoments(dim, lead=lead)
    for w, x in adds:
        here.add(w, x)
    with fails_if_it_hangs():
        with there.folded_in_child():
            for w, x in adds:
                there.add(w, x)
    assert_no_child_left()
    assert there.total.tobytes() == here.total.tobytes()
    assert there.comp.tobytes() == here.comp.tobytes()


def test_adds_larger_than_a_one_page_pipe_fold_bitwise(monkeypatch):
    # each add of 40 rows of 288 bytes overfills the pipe, so the caller
    # waits for the child in mid-write and the child reads cut rows
    monkeypatch.setattr(_forkfold, "PIPE_BYTES", 4096)
    if hasattr(fcntl, "F_GETPIPE_SZ"):
        fold = _forkfold.ForkedFold(RunningMoments(2, lead=(3, 4)))
        assert fcntl.fcntl(fold.fd, fcntl.F_GETPIPE_SZ) == 4096 < 40 * 288
        assert fold.reap() == 0
    rng = np.random.default_rng(23)
    _assert_a_child_folds_bitwise(
        [(rng.random((40, 3, 4)), rng.standard_normal((40, 2, 3, 4)))
         for _ in range(3)], 2, (3, 4))


def _refuse_the_pipe_size(monkeypatch, error):
    """Make fcntl.fcntl raise error for F_SETPIPE_SZ; return its calls."""
    real = fcntl.fcntl
    calls = []

    def refusing(fd, cmd, *args):
        if cmd == getattr(fcntl, "F_SETPIPE_SZ", None):
            calls.append(fd)
            raise error
        return real(fd, cmd, *args)

    monkeypatch.setattr(fcntl, "fcntl", refusing)
    return calls


def test_a_refused_pipe_size_keeps_the_default_pipe_and_the_bits(monkeypatch):
    calls = _refuse_the_pipe_size(
        monkeypatch, PermissionError(errno.EPERM, "pipe size refused"))
    rng = np.random.default_rng(29)
    _assert_a_child_folds_bitwise(_random_adds(rng, (3, 4), 2), 2, (3, 4))
    assert len(calls) == (1 if hasattr(fcntl, "F_SETPIPE_SZ") else 0)


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"),
                    reason="no F_SETPIPE_SZ to fail")
@pytest.mark.parametrize("fails", ["fcntl", "fork"])
def test_a_failing_start_raises_and_closes_both_pipe_ends(monkeypatch, fails):
    if fails == "fcntl":
        # an error other than a refusal is not swallowed
        _refuse_the_pipe_size(monkeypatch, ValueError("bad pipe size"))
        want = ValueError
    else:
        # a refused size is swallowed, then the fork fails
        _refuse_the_pipe_size(monkeypatch, PermissionError(errno.EPERM, ""))

        def no_fork():
            raise OSError(errno.EAGAIN, "no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        want = OSError
    acc = RunningMoments(1)
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(want):
        with acc.folded_in_child():
            acc.add([0.5], [[2.0]])
    assert len(os.listdir("/proc/self/fd")) == fds
    assert acc._child is None and not acc.total.any()
    assert_no_child_left()


def test_the_child_joins_rows_cut_over_writes_and_fails_on_a_cut_row():
    rng = np.random.default_rng(5)
    w, x = rng.random((2, 3)), rng.standard_normal((2, 2, 3))
    here = RunningMoments(2, lead=(3,))
    there = RunningMoments(2, lead=(3,))
    here.add(w, x)
    # the two rows of the add, as send writes them, one byte a write
    data = np.concatenate([w[:, None], x], axis=1).tobytes()
    with fails_if_it_hangs():
        with there.folded_in_child():
            for i in range(len(data)):
                os.write(there._child.fd, data[i:i + 1])
        assert there.total.tobytes() == here.total.tobytes()
        assert there.comp.tobytes() == here.comp.tobytes()
        # input that ends inside a row does not vanish: the child fails
        fold = _forkfold.ForkedFold(there)
        os.write(fold.fd, b"abc")
        assert fold.reap() != 0
        with pytest.raises(RuntimeError, match="child process failed"):
            with there.folded_in_child():
                os.write(there._child.fd, b"abc")
    assert_no_child_left()
    assert there.total.tobytes() == here.total.tobytes()
    assert there.comp.tobytes() == here.comp.tobytes()


def test_an_error_in_the_block_leaves_no_child():
    acc = RunningMoments(1)
    with fails_if_it_hangs():
        with pytest.raises(KeyError):
            with acc.folded_in_child():
                acc.add([0.5], [[2.0]])
                raise KeyError("in the block")
    assert_no_child_left()
    assert not acc.total.any()


def test_fold_moments_is_order_invariant_to_tolerance():
    rng = np.random.default_rng(8)
    w = rng.random(300)
    w /= w.sum()
    x = rng.standard_normal((300, 2)) * 25.0

    def run(split_points):
        # each row of one accumulator folds one contiguous run of cells
        bounds = [0] + split_points + [300]
        acc = RunningMoments(2, lead=(len(bounds) - 1,))
        for row, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            for i in range(lo, hi):
                wi = np.zeros((1,) + acc.lead)
                wi[0, row] = w[i]
                acc.add(wi, np.broadcast_to(x[i][:, None], (1, 2) + acc.lead))
        return fold_moments(acc)

    one = run([150])
    other = run([37, 101, 211, 288])
    assert np.abs(one.mean - other.mean).max() < 1e-12
    assert np.abs(one.second_moment - other.second_moment).max() < 1e-12
    assert abs(one.total_weight - other.total_weight) < 1e-14


def test_variance_never_negative():
    acc = RunningMoments(1)
    for _ in range(10):
        acc.add([0.1], [[7.0]])
    rep = fold_moments(acc)
    assert rep.variance[0] == 0.0


def test_summary_csv_round_trips_full_precision(tmp_path):
    mean = np.array([36.94373931731612, 41.8275507837207])
    var = np.array([0.3084770781676981, 0.2652451143783311])
    rep = MomentReport(mean=mean, second_moment=mean ** 2 + var,
                       variance=var, total_weight=1.0)
    path = write_summary_csv(rep, tmp_path / "summary.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["component"] for r in rows] == ["u_1", "u_2"]
    for j, row in enumerate(rows):
        assert float(row["mean"]) == mean[j]
        assert float(row["variance"]) == var[j]


def test_convergence_report_and_csv(tmp_path):
    m0 = np.array([1.0, 2.0])
    m1 = np.array([1.2, 1.9])
    m2 = np.array([1.25, 1.88])
    reports = []
    for m in (m0, m1, m2):
        reports.append(MomentReport(mean=m, second_moment=m ** 2,
                                    variance=np.zeros(2), total_weight=1.0))
    rows = convergence_report([((10, 100), reports[0]),
                               ((20, 200), reports[1]),
                               ((40, 400), reports[2])])
    assert len(rows) == 2
    assert isinstance(rows[0], ConvergenceRow)
    assert rows[0].sizes == (20, 200)
    np.testing.assert_allclose(rows[0].deltas, [0.2, 0.1], atol=1e-15)
    assert rows[0].max_delta == pytest.approx(0.2)
    assert rows[1].max_delta == pytest.approx(0.05)
    path = write_convergence_csv(rows, tmp_path / "ladder.csv")
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert len(got) == 2
    assert int(got[0]["n_r"]) == 20 and int(got[0]["n_s"]) == 200
    assert float(got[1]["max_delta"]) == rows[1].max_delta
    assert float(got[0]["delta_u_1"]) == rows[0].deltas[0]


def test_convergence_report_needs_two_levels():
    rep = MomentReport(mean=np.zeros(1), second_moment=np.zeros(1),
                       variance=np.zeros(1), total_weight=1.0)
    with pytest.raises(ValueError):
        convergence_report([((10, 10), rep)])


def test_convergence_inputs_are_checked(tmp_path):
    def report(dim):
        return MomentReport(mean=np.zeros(dim), second_moment=np.zeros(dim),
                            variance=np.zeros(dim), total_weight=1.0)

    with pytest.raises(ValueError, match="mismatched dimensions"):
        convergence_report([((1, 1), report(2)), ((2, 2), report(3))])
    with pytest.raises(ValueError, match="no convergence rows"):
        write_convergence_csv([], tmp_path / "ladder.csv")
    assert not (tmp_path / "ladder.csv").exists()
