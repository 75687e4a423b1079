"""The public serving API: session facade, wire schema, HTTP client.

This package is the front door everything else is built against:

* :class:`Session` + :class:`SessionConfig` — the transport-agnostic
  facade owning the whole predictor stack
  (:class:`~repro.service.PredictionService` is the engine behind it);
* :mod:`repro.api.wire` — the versioned JSON wire schema: one field
  table per record drives :func:`~repro.api.wire.encode` and
  :func:`~repro.api.wire.decode` (:data:`SCHEMA_VERSION`, typed
  requests/responses, error bodies, the v2 observation vocabulary and
  sectioned stats snapshot);
* :mod:`repro.api.client` — the stdlib :class:`HttpClient` (configured
  by one declarative :class:`ClientConfig`) for a server that
  :func:`repro.serving.build_server` binds (``repro serve``).
"""

from .client import ApiError, HttpClient
from .config import ESTIMATOR_BACKENDS, ClientConfig, SessionConfig
from .session import Session
from .wire import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    AdmissionStats,
    BatchRequest,
    BatchResponse,
    FeedbackApplied,
    IntervalPayload,
    Observation,
    ObserveResponse,
    PredictRequest,
    PredictResponse,
    ResultPayload,
    StatsSnapshot,
)

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "ESTIMATOR_BACKENDS",
    "AdmissionStats",
    "ApiError",
    "BatchRequest",
    "BatchResponse",
    "ClientConfig",
    "FeedbackApplied",
    "HttpClient",
    "IntervalPayload",
    "Observation",
    "ObserveResponse",
    "PredictRequest",
    "PredictResponse",
    "ResultPayload",
    "Session",
    "SessionConfig",
    "StatsSnapshot",
]

