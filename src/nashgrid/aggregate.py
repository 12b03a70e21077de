"""Moment summaries of cell-wise solutions and refinement reports.

Expectations over millions of weighted cells are folded once, during
the sweep: each chunk of cells is summed pairwise and enters one
compensated (Neumaier) step of the running sum, chunk after chunk, and
fold_moments turns the accumulators, in one canonical order, into the
MomentReport, so results are reproducible to full precision. Stored
per-cell arrays are never summed again.

Every CSV output of the package (summary, ladder, oracle and cell dump)
is written by write_csv, with floats in one format, _fmt's repr.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


def neumaier_add(total, comp, terms):
    """Fold a (k,) + total.shape stack of terms, in order, in place.

    Adds each term in turn to the running sum total + comp, which
    carries it to roughly double the working precision, and returns
    (total, comp), both updated in place; they must not share memory.
    Each step gains comp the exact rounding error of total + term,
    computed branch-free (Knuth's TwoSum); for finite values that is bit
    for bit Neumaier's (total - t) + term or (term - t) + total,
    whichever of total and term is larger in magnitude.
    """
    for term in terms:
        t = total + term
        z = t - total
        comp += (total - (t - z)) + (term - z)
        np.copyto(total, t)
    return total, comp


class RunningMoments:
    """Weighted first/second moment accumulators with compensation.

    ``lead`` adds trailing axes so one object can hold many independent
    accumulators updated in lockstep; the elementwise updates keep each
    accumulator's history independent of how many neighbors share the
    object. Each accumulator keeps one compensated sum (``total`` +
    ``comp``, each of shape ``(1 + 2*dim,) + lead``) of the vector
    [w, w*x_1..w*x_dim, w*x_1^2..w*x_dim^2].
    """

    def __init__(self, dim, lead=()):
        lead = tuple(lead)
        self.dim = int(dim)
        self.lead = lead
        self.total = np.zeros((1 + 2 * self.dim,) + lead)
        self.comp = np.zeros((1 + 2 * self.dim,) + lead)

    def add(self, weight, values):
        """Fold one chunk of k weighted observations per accumulator.

        weight has shape ``(k,) + lead`` and values ``(k, dim) + lead``,
        in any memory layout. The chunk's terms [w, w*x, w*x*x] are
        summed pairwise over the k observations (numpy's sum along a
        contiguous axis), and the sum enters one compensated step. So a
        chunk of one observation is one step of its terms, and the bits
        depend on the chunks' bounds and order only.
        """
        w = np.asarray(weight, dtype=float)
        x = np.asarray(values, dtype=float)
        if w.ndim != 1 + len(self.lead):
            raise ValueError("weight must have shape (k,) + lead")
        # the observations on the last axis; each sum runs over a
        # contiguous one, so it is numpy's pairwise sum whatever the layout
        wk = w.transpose(*range(1, w.ndim), 0)
        xk = x.transpose(*range(1, x.ndim), 0)
        wx = np.empty(np.broadcast_shapes(wk.shape, xk.shape))
        np.multiply(wk, xk, out=wx)
        sums = np.empty((1,) + self.total.shape)
        sums[0, 0] = np.ascontiguousarray(
            np.broadcast_to(wk, wx.shape[1:])).sum(axis=-1)
        sums[0, 1:1 + self.dim] = wx.sum(axis=-1)
        np.multiply(wx, xk, out=wx)
        sums[0, 1 + self.dim:] = wx.sum(axis=-1)
        neumaier_add(self.total, self.comp, sums)


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
    own; folding in the fixed lead order makes the result reproducible
    bit for bit. A lead-free accumulator, the sweep's, is one block.
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
