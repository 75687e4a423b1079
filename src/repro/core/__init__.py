"""The paper's primary contribution: the uncertainty-aware predictor."""

from .covariance import (
    PlanAncestry,
    bound_linear_linear,
    bound_square_linear,
    bound_square_square,
    cov_power_bound,
    g_factor,
    h_factor,
)
from .lec import LeastExpectedCostChooser, PlanCandidate
from .predictor import (
    PredictionResult,
    PreparedPrediction,
    UncertaintyPredictor,
    Variant,
)
from .progress import ProgressEstimate, ProgressIndicator
from .variance import (
    VarianceBreakdown,
    VarianceOptions,
    VectorizedAssembler,
    assemble_distribution_parameters,
)

__all__ = [
    "LeastExpectedCostChooser",
    "PlanCandidate",
    "UncertaintyPredictor",
    "PredictionResult",
    "PreparedPrediction",
    "Variant",
    "VarianceOptions",
    "VarianceBreakdown",
    "VectorizedAssembler",
    "assemble_distribution_parameters",
    "PlanAncestry",
    "bound_linear_linear",
    "bound_square_linear",
    "bound_square_square",
    "cov_power_bound",
    "g_factor",
    "h_factor",
    "ProgressIndicator",
    "ProgressEstimate",
]
