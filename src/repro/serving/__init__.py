"""The layered serving tier: transport / admission / routing / workers.

This package decomposes the old monolithic HTTP server into four
separately pluggable layers (bottom up; see ``docs/serving.md``):

* :mod:`~repro.serving.transport` — a worker-agnostic threaded HTTP
  server (:class:`HttpTransport`) that dispatches to a wire app and
  knows how to share a port across processes.
* :mod:`~repro.serving.app` — the :class:`WireApp` interface layers
  implement, and :class:`SessionApp`, the innermost layer binding one
  :class:`~repro.api.session.Session` to the ``/v1`` endpoints.
* :mod:`~repro.serving.admission` — :class:`AdmissionPolicy` and the
  :class:`AdmissionGate` app applying it: :class:`BoundedInFlight`
  (non-queueing, queue-depth-derived ``Retry-After`` on 503) or the
  uncertainty-aware :class:`SchedulingAdmission`, which defers excess
  requests into a predicted-cost queue under a
  :mod:`repro.scheduler` policy (``docs/scheduling.md``);
  :func:`build_admission` picks from the session config.
* :mod:`~repro.serving.routing` — :class:`ConsistentHashRouter` over
  plan signatures plus :class:`RoutedApp`, keeping each recurring
  plan's cache artifacts on one worker as the pool fans out.
* :mod:`~repro.serving.pool` — :class:`WorkerPool`, pre-fork
  multi-process serving behind one shared port (``SO_REUSEPORT`` or
  parent-socket handoff), with graceful SIGTERM/SIGINT drain.
* :mod:`~repro.serving.stats` — cross-worker ``/v1/stats``
  aggregation over typed snapshots (summed counters, recombined hit
  rates, merged feedback/admission sections).

:func:`build_server` is the single-process composition of these layers
(``repro serve``): one :class:`HttpTransport` over
``AdmissionGate(SessionApp(session))``.
"""

from .admission import (
    DEFAULT_MAX_IN_FLIGHT,
    AdmissionGate,
    AdmissionPolicy,
    BoundedInFlight,
    SchedulingAdmission,
    build_admission,
)
from .app import (
    METERED_PATHS,
    SessionApp,
    WireApp,
    negotiated_version,
    split_path,
)
from .pool import POOL_MODES, WorkerPool, resolve_mode
from .routing import ROUTED_HEADER, ConsistentHashRouter, RoutedApp, Router
from .stats import aggregate_report_records, aggregate_snapshots
from .transport import (
    HttpTransport,
    ServingHandler,
    WireResponse,
    reuseport_available,
    status_for_error,
)

__all__ = [
    "DEFAULT_MAX_IN_FLIGHT",
    "METERED_PATHS",
    "POOL_MODES",
    "ROUTED_HEADER",
    "AdmissionGate",
    "AdmissionPolicy",
    "BoundedInFlight",
    "ConsistentHashRouter",
    "HttpTransport",
    "RoutedApp",
    "Router",
    "SchedulingAdmission",
    "ServingHandler",
    "SessionApp",
    "WireApp",
    "WireResponse",
    "WorkerPool",
    "aggregate_report_records",
    "aggregate_snapshots",
    "build_admission",
    "build_server",
    "negotiated_version",
    "resolve_mode",
    "reuseport_available",
    "split_path",
    "status_for_error",
]


def build_server(
    session,
    host: str = "127.0.0.1",
    port: int = 0,
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
) -> HttpTransport:
    """Bind (but do not start) one session's server; ``port=0`` is ephemeral.

    The transport's ``app`` is the :class:`AdmissionGate`, whose
    ``policy`` (:func:`build_admission`) meters the prediction
    endpoints. Call ``serve_forever()`` on the result (typically from a
    dedicated thread) and ``shutdown()`` + ``server_close()`` to stop.
    """
    policy = build_admission(session, max_in_flight)
    return HttpTransport(AdmissionGate(SessionApp(session), policy), (host, port))
