"""Evaluation harness: the grid, metrics, and one function per paper artifact."""

from .metrics import (
    PAPER_ALPHAS,
    correlation_metrics,
    distribution_distance,
    empirical_probability,
    pr_curves,
    predicted_probability,
)
from .runner import CellResult, ExecutedQuery, ExperimentLab, SelectivityRecord
from .settings import (
    BENCHMARKS,
    DATABASE_CONFIGS,
    MACHINES,
    SAMPLING_RATIOS,
)

__all__ = [
    "ExperimentLab",
    "CellResult",
    "ExecutedQuery",
    "SelectivityRecord",
    "correlation_metrics",
    "distribution_distance",
    "empirical_probability",
    "predicted_probability",
    "pr_curves",
    "PAPER_ALPHAS",
    "BENCHMARKS",
    "DATABASE_CONFIGS",
    "MACHINES",
    "SAMPLING_RATIOS",
]
