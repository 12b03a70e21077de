"""Moment summaries of cell-wise solutions and refinement reports.

Expectations over millions of weighted cells are folded once, during
the sweep, with compensated (Neumaier) summation: each accumulator
folds its cells in a fixed order, and fold_moments merges the
accumulators in one canonical order at the end into the MomentReport,
so results are reproducible to full precision. Values come firm-major,
(k, dim) + lead, with a sweep's blocks on the last axis, so each step
runs over the blocks. Stored per-cell arrays are never summed again.
RunningMoments.folded_in_child moves an accumulator's steps, in the
same order, to a forked child process that reads the observations from
one pipe, so the caller can go on working while they run.

Every CSV output of the package (summary, ladder, oracle and cell dump)
is written by write_csv, with floats in one format, _fmt's repr.
"""
from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


# the terms a compensated fold takes at a time: neumaier_add's scratch,
# RunningMoments' term buffer and the forked child's read buffer each
# hold this many; 8 rows of the pinned 200 x 20000 sweep are 77 KB, 32
# folded no faster in the child, and 4, 16 or 32 no faster in process
SLOTS = 8


def neumaier_add(total, comp, terms, work=None):
    """Fold a (k,) + total.shape stack of terms, in order, in place.

    Adds each term in turn to the running sum total + comp, which
    carries it to roughly double the working precision, and returns
    (total, comp), both updated in place; they must not share memory.
    Each step gains comp the exact rounding error of total + term,
    computed branch-free (Knuth's TwoSum); for finite values that is bit
    for bit Neumaier's (total - t) + term or (term - t) + total,
    whichever of total and term is larger in magnitude. The additions
    to total and to comp run one term at a time, in order; the errors of
    a batch of terms are computed as whole arrays from its running
    totals (Ogita, Rump & Oishi 2005), by the same elementwise
    operations, so the bits are those of k single steps. work is a
    (3, b + 1) + total.shape scratch array, and b is the batch size;
    without it one is allocated, with b at most SLOTS.
    """
    if work is None:
        work = np.empty((3, min(max(len(terms), 1), SLOTS) + 1) + total.shape)
    run, z_all, e_all = work
    b = len(run) - 1
    for lo in range(0, len(terms), b):
        term = terms[lo:lo + b]
        n = len(term)
        # run[j] is the running total before term j, run[n] after all
        run[0] = total
        for j in range(n):
            np.add(run[j], term[j], out=run[j + 1])
        # comp += (total - (t - z)) + (term - z), with t the new total
        # and z = t - total, for all n terms at once
        prev, t, z, e = run[:n], run[1:n + 1], z_all[:n], e_all[:n]
        np.subtract(t, prev, out=z)
        np.subtract(t, z, out=e)
        np.subtract(prev, e, out=e)
        np.subtract(term, z, out=z)
        np.add(e, z, out=e)
        for ej in e:
            np.add(comp, ej, out=comp)
        np.copyto(total, run[n])
    return total, comp


class RunningMoments:
    """Weighted first/second moment accumulators with compensation.

    ``lead`` adds trailing axes so one object can hold many independent
    accumulators updated in lockstep (one per block of a sweep); the
    elementwise updates keep each accumulator's history independent of
    how many neighbors share the object. Each accumulator keeps one
    compensated sum (``total`` + ``comp``, each of shape ``(1 + 2*dim,)
    + lead``) of the vector [w, w*x_1..w*x_dim, w*x_1^2..w*x_dim^2].
    """

    def __init__(self, dim, lead=()):
        lead = tuple(lead)
        self.dim = int(dim)
        self.lead = lead
        self.total = np.zeros((1 + 2 * self.dim,) + lead)
        self.comp = np.zeros((1 + 2 * self.dim,) + lead)
        # the scratch of one batch of SLOTS observations: their terms,
        # and neumaier_add's running totals and errors
        self._terms = np.empty((SLOTS, 1 + 2 * self.dim) + lead)
        self._work = np.empty((3, SLOTS + 1) + self.total.shape)
        # folded_in_child's ForkedFold while its block runs
        self._child = None

    def add(self, weight, values):
        """Fold k weighted observations per accumulator, in order.

        weight has shape ``(k,) + lead`` and values ``(k, dim) + lead``;
        they are k compensated steps, one per observation, folded SLOTS
        at a time. A zero weight with finite values is a no-op, so an
        accumulator can sit out some of the k slots. Inside
        folded_in_child the steps run in the child: add checks its
        arguments, writes them to the child's pipe and returns.
        """
        w = np.asarray(weight, dtype=float)
        x = np.asarray(values, dtype=float)
        if w.ndim != 1 + len(self.lead):
            raise ValueError("weight must have shape (k,) + lead")
        if self._child is not None:
            self._child.send(w, x)
            return
        # the batches slice both arrays, so each is spread to the k slots
        shape = np.broadcast_shapes(w[:, None].shape, x.shape)
        if len(w) != shape[0]:
            w = np.broadcast_to(w, shape[:1] + w.shape[1:])
        if x.shape != shape:
            x = np.broadcast_to(x, shape)
        b = len(self._terms)
        for lo in range(0, shape[0], b):
            self._fold(w[lo:lo + b], x[lo:lo + b])

    def _fold(self, w, x):
        """Fold at most SLOTS observations: one neumaier_add of their terms.

        The forked child calls this on each batch of rows it reads.
        """
        # the terms [w, w*x, w*x*x] of all the slots, built at once
        terms = self._terms[:len(w)]
        w = w[:, None]
        wx = terms[:, 1:1 + self.dim]
        terms[:, :1] = w
        np.multiply(w, x, out=wx)
        np.multiply(wx, x, out=terms[:, 1 + self.dim:])
        neumaier_add(self.total, self.comp, terms, self._work)

    @contextmanager
    def folded_in_child(self):
        """Run the compensated steps of the block's adds in a forked child.

        add still checks its arguments in the caller, then writes them
        to a pipe the child reads and returns; the caller waits only
        while the pipe is full. The child folds the observations in the
        order they were written, with add's own steps, so total and comp
        come out bit for bit as in-process adds would leave them; they
        are installed when the block ends. If the child fails, the block
        raises RuntimeError.
        Without os.fork the adds fold in-process.
        """
        if not hasattr(os, "fork"):
            yield self
            return
        # imported on first use (see _forkfold)
        from ._forkfold import ForkedFold
        child = ForkedFold(self)
        self._child = child
        try:
            yield self
        finally:
            self._child = None
            status = child.reap()
        if status != 0:
            raise RuntimeError("the moment fold's child process failed")
        np.copyto(self.total, child.sums[0])
        np.copyto(self.comp, child.sums[1])


@dataclass
class MomentReport:
    """Weighted moments of a cell-wise solution.

    mean_i = sum of weight*value_i over cells; second_moment likewise for
    value_i^2; variance = second_moment - mean^2 floored at 0. The cell
    weights of a full grid sum to 1, so total_weight doubles as a
    consistency check.
    """

    mean: np.ndarray
    second_moment: np.ndarray
    variance: np.ndarray
    total_weight: float


def fold_moments(acc):
    """Fold an accumulator's blocks, in lead order, into a MomentReport.

    Each block's compensated sum enters one compensated step of its
    own; folding in the fixed lead order (ascending block index for the
    sweep) makes the result reproducible bit for bit. A lead-free
    accumulator is one block.
    """
    total, comp = np.zeros((2, 1 + 2 * acc.dim))
    neumaier_add(total, comp,
                 (acc.total + acc.comp).reshape(1 + 2 * acc.dim, -1).T)
    sums = total + comp
    mean = sums[1:1 + acc.dim]
    m2 = sums[1 + acc.dim:]
    return MomentReport(
        mean=mean,
        second_moment=m2,
        variance=np.maximum(m2 - mean ** 2, 0.0),
        total_weight=float(sums[0]),
    )


def expectation(solution):
    """MomentReport of a solved grid: the moments folded during the sweep.

    The same report is returned whether or not the solution stored its
    per-cell arrays.
    """
    return solution.report


@dataclass
class ConvergenceRow:
    """One refinement transition: componentwise |mean gap| to the previous level."""

    level: int
    sizes: tuple
    deltas: np.ndarray
    max_delta: float


def convergence_report(entries):
    """Successive mean differences along a refinement ladder.

    entries: ordered list of (sizes, MomentReport) pairs, coarse to fine;
    sizes is the per-factor cell-count tuple used for labeling.
    Returns one ConvergenceRow per transition.
    """
    if len(entries) < 2:
        raise ValueError("a convergence report needs at least two levels")
    dim = len(entries[0][1].mean)
    rows = []
    for lvl in range(1, len(entries)):
        prev = entries[lvl - 1][1].mean
        cur = entries[lvl][1].mean
        if len(prev) != dim or len(cur) != dim:
            raise ValueError("moment reports have mismatched dimensions")
        deltas = np.abs(np.asarray(cur) - np.asarray(prev))
        rows.append(ConvergenceRow(level=lvl, sizes=tuple(entries[lvl][0]),
                                   deltas=deltas, max_delta=float(deltas.max())))
    return rows


def _fmt(x):
    """The float format of every CSV output: repr, full precision."""
    return repr(float(x))


def write_csv(path, header, rows):
    """Write the header, then rows (an iterable, read once); return path."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)
    return path


def write_summary_csv(report, path):
    """Write (component, mean, variance) rows, full precision."""
    return write_csv(path, ["component", "mean", "variance"],
                     ([f"u_{i + 1}", _fmt(mean), _fmt(var)] for i, (mean, var)
                      in enumerate(zip(report.mean, report.variance))))


def write_convergence_csv(rows, path):
    """Write ladder rows: level, grid sizes, per-component delta, max delta."""
    if not rows:
        raise ValueError("no convergence rows to write")
    m = len(rows[0].deltas)
    return write_csv(
        path, ["level", "n_r", "n_s"] + [f"delta_u_{i + 1}" for i in range(m)]
        + ["max_delta"],
        ([row.level, row.sizes[0], row.sizes[1], *map(_fmt, row.deltas),
          _fmt(row.max_delta)] for row in rows))
