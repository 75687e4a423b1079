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
)
from .service import (
    BatchColumns,
    BatchPrediction,
    PredictionService,
    QueryFailure,
    QueryPrediction,
    ServedQuery,
    ServiceReport,
    ServiceStats,
    materialize,
)

__all__ = [
    "BatchAssembly",
    "BatchColumns",
    "BatchPlan",
    "BatchPrediction",
    "CacheStats",
    "PredictionService",
    "PreparedCache",
    "QueryFailure",
    "QueryPrediction",
    "ServedQuery",
    "ServiceReport",
    "ServiceStats",
    "assemble_batch",
    "batch_intervals",
    "build_batch_plan",
    "materialize",
    "plan_signature",
    "plan_signature_hash",
    "subplan_signature",
]
