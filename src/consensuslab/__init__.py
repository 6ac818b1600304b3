"""Consensus-dynamics laboratory.

Three linear averaging models on weighted networks (DeGroot, accelerated
averaging, and memory of local averages), their closed-form spectral rate
analysis, and a seeded simulation harness for envelope and rate
experiments.
"""

from .analysis import (
    AnalysisSummary,
    BetaStar,
    ConvergenceVerdict,
    GammaStar,
    check_mla_convergence,
    consensus_value,
    improving_gamma_exists,
    lambda_hat_max,
    model_rate,
    optimal_beta,
    optimal_gamma,
    rho_ess_accelerated,
    rho_ess_mla,
    summary,
)
from .dynamics import ModelKind, ModelParams
from .errors import (
    AssumptionViolated,
    BadParameter,
    BadSpectrum,
    ConsensusLabError,
    DegenerateSpectrum,
    DimensionMismatch,
    DominantNotSimple,
    InsufficientData,
    NegativeWeight,
    NonFiniteWeight,
    NormalizationFailed,
    NotConvergent,
    NotSquare,
    NotSymmetric,
    ParseError,
    RowSumViolation,
)
from .net import (
    StructureReport,
    WeightedAdjacency,
    analyze_structure,
    make_ring,
    read_matrix,
    validate,
    write_matrix,
)
from .sim import (
    RateFit,
    SimConfig,
    TraceSummary,
    fit_rate,
    random_symmetric_stochastic,
    run_batch,
    simulate_trajectory,
)
from .spectral import Spectrum, eigendecompose_symmetric, rho_ess

__version__ = "0.1.0"

__all__ = [
    "AnalysisSummary",
    "AssumptionViolated",
    "BadParameter",
    "BadSpectrum",
    "BetaStar",
    "ConsensusLabError",
    "ConvergenceVerdict",
    "DegenerateSpectrum",
    "DimensionMismatch",
    "DominantNotSimple",
    "GammaStar",
    "InsufficientData",
    "ModelKind",
    "ModelParams",
    "NegativeWeight",
    "NonFiniteWeight",
    "NormalizationFailed",
    "NotConvergent",
    "NotSquare",
    "NotSymmetric",
    "ParseError",
    "RateFit",
    "RowSumViolation",
    "SimConfig",
    "Spectrum",
    "StructureReport",
    "TraceSummary",
    "WeightedAdjacency",
    "analyze_structure",
    "check_mla_convergence",
    "consensus_value",
    "eigendecompose_symmetric",
    "fit_rate",
    "improving_gamma_exists",
    "lambda_hat_max",
    "make_ring",
    "model_rate",
    "optimal_beta",
    "optimal_gamma",
    "random_symmetric_stochastic",
    "read_matrix",
    "rho_ess",
    "rho_ess_accelerated",
    "rho_ess_mla",
    "run_batch",
    "simulate_trajectory",
    "summary",
    "validate",
    "write_matrix",
]
