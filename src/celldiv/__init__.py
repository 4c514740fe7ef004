"""Size-structured division: eigenproblem, entropy diagnostics, rate recovery."""

from .direct import (
    EigenPair,
    InvariantReport,
    RateBounds,
    bump_rate,
    check_invariants,
    constant_b_series,
    constant_rate,
    piecewise_rate,
    solve_adjoint,
    solve_direct,
    solve_pair,
)
from .entropy import (
    ConvexProbe,
    GapReport,
    PerturbationPair,
    build_perturbation,
    gap_study,
)
from .grid import (
    Grid,
    GridFunction,
    derivative,
    make_grid,
    norm,
    read_csv,
    write_csv,
)
from .harness import (
    ExperimentConfig,
    StudyReport,
    add_noise,
    convergence_study,
    emit_report,
)
from .inverse import (
    NoisyObservation,
    RegularizedSolve,
    StabilityReport,
    clamp_observation,
    estimate_lambda0,
    recover_rate,
    solve_regularized_general,
    weak_stability_check,
)
from .toy import ToyProblem, optimal_alpha, toy_solve, toy_study

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "GridFunction",
    "make_grid",
    "derivative",
    "norm",
    "read_csv",
    "write_csv",
    "RateBounds",
    "EigenPair",
    "InvariantReport",
    "constant_rate",
    "piecewise_rate",
    "bump_rate",
    "solve_direct",
    "solve_adjoint",
    "solve_pair",
    "constant_b_series",
    "check_invariants",
    "ConvexProbe",
    "PerturbationPair",
    "GapReport",
    "build_perturbation",
    "gap_study",
    "ToyProblem",
    "toy_solve",
    "optimal_alpha",
    "toy_study",
    "NoisyObservation",
    "RegularizedSolve",
    "StabilityReport",
    "clamp_observation",
    "solve_regularized_general",
    "recover_rate",
    "weak_stability_check",
    "estimate_lambda0",
    "ExperimentConfig",
    "StudyReport",
    "add_noise",
    "convergence_study",
    "emit_report",
]
