"""Moment summaries of cell-wise solutions and refinement reports.

Expectations over millions of weighted cells are folded once, during
the sweep, with compensated (Neumaier) summation: each accumulator
folds its cells in a fixed order, and the accumulators are merged in
one canonical order at the end, so results are reproducible to full
precision. Stored per-cell arrays are never summed a second time.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


def neumaier_add(total, comp, term):
    """One compensated-summation step, elementwise on arrays.

    Returns the updated (total, comp); total + comp carries the running
    sum to roughly double the working precision.
    """
    t = total + term
    swap = np.abs(total) >= np.abs(term)
    comp = comp + np.where(swap, (total - t) + term, (term - t) + total)
    return t, comp


class RunningMoments:
    """Weighted first/second moment accumulators with compensation.

    ``lead`` adds leading axes so one object can hold many independent
    accumulators updated in lockstep (one per block of a sweep); the
    elementwise updates keep each accumulator's history independent of
    how many neighbors share the object.
    """

    def __init__(self, dim, lead=()):
        lead = tuple(lead)
        self.dim = int(dim)
        self.lead = lead
        self.w_s = np.zeros(lead)
        self.w_c = np.zeros(lead)
        self.mean_s = np.zeros(lead + (dim,))
        self.mean_c = np.zeros(lead + (dim,))
        self.m2_s = np.zeros(lead + (dim,))
        self.m2_c = np.zeros(lead + (dim,))

    def add(self, weight, values):
        """Fold one weighted observation per accumulator.

        weight: array of shape ``lead``; values: shape ``lead + (dim,)``.
        """
        w = np.asarray(weight, dtype=float)
        x = np.asarray(values, dtype=float)
        self.w_s, self.w_c = neumaier_add(self.w_s, self.w_c, w)
        wx = w[..., None] * x
        self.mean_s, self.mean_c = neumaier_add(self.mean_s, self.mean_c, wx)
        self.m2_s, self.m2_c = neumaier_add(self.m2_s, self.m2_c, wx * x)

    def rows(self):
        """Yield per-accumulator compensated partials in leading order."""
        n_rows = int(np.prod(self.lead)) if self.lead else 1
        w_s = self.w_s.reshape(n_rows)
        w_c = self.w_c.reshape(n_rows)
        mean_s = self.mean_s.reshape(n_rows, self.dim)
        mean_c = self.mean_c.reshape(n_rows, self.dim)
        m2_s = self.m2_s.reshape(n_rows, self.dim)
        m2_c = self.m2_c.reshape(n_rows, self.dim)
        for i in range(n_rows):
            yield (w_s[i], w_c[i], mean_s[i], mean_c[i], m2_s[i], m2_c[i])


def fold_moments(parts, dim):
    """Merge accumulators row by row, in the order given.

    The order must be the canonical one (ascending block index), so the
    result does not depend on how the cells were split into partials.
    """
    out = RunningMoments(dim)
    for part in parts:
        if part.dim != dim:
            raise ValueError("accumulator dimensions do not match")
        for w_s, w_c, mean_s, mean_c, m2_s, m2_c in part.rows():
            out.w_s, out.w_c = neumaier_add(out.w_s, out.w_c, w_s + w_c)
            out.mean_s, out.mean_c = neumaier_add(out.mean_s, out.mean_c,
                                                  mean_s + mean_c)
            out.m2_s, out.m2_c = neumaier_add(out.m2_s, out.m2_c, m2_s + m2_c)
    return out


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
    flagged_cells: int = 0


def moment_report(acc, flagged_cells=0):
    """Finalize a lead-free RunningMoments into a MomentReport."""
    if acc.lead:
        raise ValueError("fold accumulator rows before reporting")
    mean = acc.mean_s + acc.mean_c
    m2 = acc.m2_s + acc.m2_c
    return MomentReport(
        mean=mean,
        second_moment=m2,
        variance=np.maximum(m2 - mean ** 2, 0.0),
        total_weight=float(acc.w_s + acc.w_c),
        flagged_cells=int(flagged_cells),
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
    return repr(float(x))


def write_summary_csv(report, path):
    """Write (component, mean, variance) rows, full precision."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["component", "mean", "variance"])
        for i in range(len(report.mean)):
            out.writerow([f"u_{i + 1}", _fmt(report.mean[i]),
                          _fmt(report.variance[i])])
    return path


def write_convergence_csv(rows, path):
    """Write ladder rows: level, grid sizes, per-component delta, max delta."""
    if not rows:
        raise ValueError("no convergence rows to write")
    m = len(rows[0].deltas)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["level", "n_r", "n_s"]
                     + [f"delta_u_{i + 1}" for i in range(m)] + ["max_delta"])
        for row in rows:
            n_r, n_s = row.sizes[0], row.sizes[1]
            out.writerow([row.level, n_r, n_s]
                         + [_fmt(d) for d in row.deltas] + [_fmt(row.max_delta)])
    return path
