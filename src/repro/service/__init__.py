"""Batch prediction serving on top of the uncertainty predictor."""

from .cache import (
    CacheStats,
    PreparedCache,
    plan_signature,
    plan_signature_hash,
    subplan_signature,
)
from .kernels import (
    BatchAssembly,
    BatchPlan,
    assemble_batch,
    batch_intervals,
    build_batch_plan,
    segment_sum,
)
from .service import (
    BatchPrediction,
    PredictionService,
    QueryFailure,
    QueryPrediction,
    ServiceReport,
    ServiceStats,
)

__all__ = [
    "BatchAssembly",
    "BatchPlan",
    "BatchPrediction",
    "CacheStats",
    "PredictionService",
    "PreparedCache",
    "QueryFailure",
    "QueryPrediction",
    "ServiceReport",
    "ServiceStats",
    "assemble_batch",
    "batch_intervals",
    "build_batch_plan",
    "plan_signature",
    "plan_signature_hash",
    "segment_sum",
    "subplan_signature",
]
