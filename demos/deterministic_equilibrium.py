"""Solve the five-firm market once, with every random factor at its mean.

The equilibrium of the market is the solution of a box-constrained
variational inequality whose operator collects each firm's marginal
cost minus marginal revenue. At the solution, no firm can raise its
welfare by changing its own output while the others hold still; the
script checks that directly on a deviation grid.
"""

import numpy as np

from nashgrid import (BoxSet, CournotInstance, FirmParams, RandomFactor,
                      SolverConfig, natural_residual, operator_eval, price,
                      solve_vi, welfare)


def build_market():
    costs = (10.0, 8.0, 6.0, 4.0, 2.0)
    exponents = (1.2, 1.1, 1.0, 0.9, 0.8)
    firms = tuple(
        FirmParams(c=c, k=5.0, b=b, q_bar=RandomFactor.constant(100.0))
        for c, b in zip(costs, exponents))
    return CournotInstance(
        firms=firms, a=1 / 1.1, e=1e-4,
        r_factor=RandomFactor.constant(0.0),
        s_factor=RandomFactor.constant(5000.0))


def main():
    market = build_market()
    box = BoxSet(np.zeros(5), np.full(5, 100.0))

    def operator(q):
        return operator_eval(market, q, 0.0, 5000.0)

    q, report = solve_vi(operator, box, SolverConfig(tolerance=1e-10))
    print("equilibrium outputs:")
    for i, v in enumerate(q, start=1):
        print(f"  firm {i}: {v:10.5f}")
    print(f"converged in {report.iterations} iterations, "
          f"residual {report.residual:.2e}")
    print(f"residual recheck: {natural_residual(operator, box, q):.2e}")

    total = float(q.sum())
    print(f"\ntotal supply {total:.4f}, "
          f"market price {price(market, total, 5000.0):.4f}")

    print("\nno firm gains by deviating unilaterally:")
    for i in range(5):
        own = welfare(market, i, q, 0.0, 5000.0)
        best = own
        for t in np.linspace(0.0, 100.0, 4001):
            trial = q.copy()
            trial[i] = t
            best = max(best, welfare(market, i, trial, 0.0, 5000.0))
        print(f"  firm {i + 1}: welfare {own:12.4f}, "
              f"best deviation {best:12.4f}, gain {best - own:.2e}")


if __name__ == "__main__":
    main()
