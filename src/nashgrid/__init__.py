"""Stochastic Nash equilibria via distribution discretization.

The equilibrium of a game with randomly perturbed payoffs is a random
vector. When the randomness enters through scalar factors with bounded
support, partitioning each factor's support into cells and freezing the
factors at cell representatives turns the problem into a family of
finite-dimensional monotone variational inequalities, one per cell.
Solving them all yields a step-function approximation of the random
equilibrium whose moments converge as the partitions refine.

Modules:
    vi             box-constrained VI solver: one batched extragradient
                   loop (semismooth Newton when a Jacobian is given);
                   solve_vi is its one-column call
    distributions  bounded random factors and support partitions
    cournot        the oligopoly model: cost, price, welfare, operator
    discretize     cell grids and the batched sweep over their cells
    aggregate      compensated moment summaries and refinement reports
    oracle         Monte Carlo cross-check with standard errors
    cli            JSON-config command line front end
"""

from .aggregate import (ConvergenceRow, MomentReport, convergence_report,
                        expectation)
from .cournot import (CournotInstance, FirmParams, cost, jacobian_form_test,
                      operator_eval, operator_eval_sampled, operator_jacobian,
                      price, price_part, welfare)
from .discretize import (FactorGrid, FlaggedCellsError, StepSolution,
                         make_grid, mean_truncation, solve_all,
                         write_cells_csv)
from .distributions import (Partition1D, RandomFactor, cdf, cell_conditional_mean,
                            cell_probability, make_partition, pdf, ppf)
from .oracle import OracleReport, monte_carlo_mean
from .vi import (BoxSet, MonotoneReport, NonConvergenceError, SolveReport,
                 SolverConfig, check_monotone, natural_residual, project,
                 solve_box_vi_batch, solve_vi)

__version__ = "0.1.0"

__all__ = [
    "BoxSet", "ConvergenceRow", "CournotInstance", "FactorGrid", "FirmParams",
    "FlaggedCellsError", "MomentReport", "MonotoneReport",
    "NonConvergenceError", "OracleReport", "Partition1D", "RandomFactor",
    "SolveReport", "SolverConfig", "StepSolution", "cdf",
    "cell_conditional_mean", "cell_probability", "check_monotone",
    "convergence_report", "cost", "expectation", "jacobian_form_test",
    "make_grid", "make_partition", "mean_truncation", "monte_carlo_mean",
    "natural_residual", "operator_eval", "operator_eval_sampled",
    "operator_jacobian", "pdf", "ppf", "price", "price_part", "project",
    "solve_all", "solve_box_vi_batch", "solve_vi", "welfare",
    "write_cells_csv",
    "__version__",
]
