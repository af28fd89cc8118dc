"""Reverse-logistics batch-size optimization toolkit.

Closed-form and floor-space-constrained optimal procurement/repair batch
sizes for a two-depot system with repairable returns, plus a weight-grid
approximation of the cost/emissions/energy trade-off frontier, a
brute-force grid oracle, and a small CLI.
"""

from .analytic import (
    KktSolution,
    NoKktPointError,
    SolverError,
    UnconstrainedSolution,
    gradient_norm,
    kkt_residual,
    solve_constrained,
    solve_unconstrained,
)
from .gridsearch import EmptyFeasibleGridError, GridSpec, default_grid, grid_front, grid_min
from .minimize import ScalarProgram, SolveResult, lattice_starts, minimize
from .model import (
    EPS_M,
    BatchDecision,
    CostBreakdown,
    CostModel,
    DerivedConstants,
    DomainError,
    FeasibilityReport,
    GhgEmissions,
    ModelParams,
    ObjectiveBreakdown,
    ParameterError,
    average_cost,
    check_feasibility,
    cost_breakdown,
    derive_constants,
    energy_use,
    ghg_emissions,
    objective_breakdown,
)
from .pareto import (
    InfeasibleModelError,
    FrontDiagnostics,
    ObjectiveVector,
    ParetoFront,
    ParetoPoint,
    WeightVector,
    decision_box,
    dominance_filter,
    pareto_front,
    scalar_subproblem,
    weight_grid,
)
from .cli import RunConfig, SweepRange

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "EPS_M",
    "ModelParams",
    "BatchDecision",
    "DerivedConstants",
    "CostBreakdown",
    "GhgEmissions",
    "ObjectiveBreakdown",
    "FeasibilityReport",
    "CostModel",
    "ParameterError",
    "DomainError",
    "derive_constants",
    "cost_breakdown",
    "average_cost",
    "ghg_emissions",
    "energy_use",
    "objective_breakdown",
    "check_feasibility",
    # analytic solvers
    "UnconstrainedSolution",
    "KktSolution",
    "SolverError",
    "NoKktPointError",
    "solve_unconstrained",
    "solve_constrained",
    "gradient_norm",
    "kkt_residual",
    # numeric kernel
    "ScalarProgram",
    "SolveResult",
    "lattice_starts",
    "minimize",
    # multiobjective
    "WeightVector",
    "ObjectiveVector",
    "ParetoPoint",
    "ParetoFront",
    "FrontDiagnostics",
    "InfeasibleModelError",
    "weight_grid",
    "dominance_filter",
    "decision_box",
    "scalar_subproblem",
    "pareto_front",
    # oracle
    "GridSpec",
    "EmptyFeasibleGridError",
    "default_grid",
    "grid_min",
    "grid_front",
    # cli
    "RunConfig",
    "SweepRange",
]
