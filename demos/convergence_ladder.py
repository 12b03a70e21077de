"""Watch the discretized expectation converge as the grid refines.

Running the same market over a ladder of grid sizes and differencing
successive expectations shows first-order decay: each doubling of the
partition roughly halves the change. This is the practical check that a
grid is fine enough for the accuracy one needs.
"""

from nashgrid import (CournotInstance, FirmParams, RandomFactor,
                      SolverConfig, convergence_report, expectation,
                      make_grid, solve_all)


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


def main():
    market = build_market()
    solver = SolverConfig(initial_step=1.4)
    ladder = [(10, 250), (20, 500), (40, 1000), (80, 2000)]

    entries = []
    print("grid         expected outputs")
    for n_r, n_s in ladder:
        grid = make_grid(market, n_r=n_r, n_s=n_s)
        report = expectation(solve_all(market, grid, solver, keep_cells=False))
        entries.append(((n_r, n_s), report))
        vals = "  ".join(f"{v:.5f}" for v in report.mean)
        print(f"{n_r:4d} x {n_s:5d}  {vals}")

    rows = convergence_report(entries)
    print("\nchange from previous level (max over firms):")
    prev = None
    for row in rows:
        n_r, n_s = row.sizes
        ratio = "" if prev is None else f"  (x {row.max_delta / prev:.2f})"
        print(f"{n_r:4d} x {n_s:5d}  {row.max_delta:.6f}{ratio}")
        prev = row.max_delta

    print("\neach refinement roughly halves the change, as expected for")
    print("a first-order accurate cell rule.")


if __name__ == "__main__":
    main()
