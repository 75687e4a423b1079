"""Wire apps: the request-handling interface the transport dispatches to.

A :class:`WireApp` is one layer of the serving stack — it receives the
request path (plus, for POSTs, a callable that reads and parses the
body on demand) and returns a :class:`~repro.serving.transport.WireResponse`.
Layers compose by wrapping: the admission gate and the router are both
``WireApp``\\ s around an inner app, and the innermost layer is always
:class:`SessionApp`, which binds one :class:`~repro.api.session.Session`
to the four ``/v1`` endpoints.

Raised exceptions propagate to the transport, which maps them onto the
error taxonomy — apps only raise, they never format error bodies for
library failures.
"""

from __future__ import annotations

import time
import urllib.parse
from collections.abc import Callable

from ..api.session import Session
from ..api.wire import (
    SCHEMA_VERSION,
    BatchRequest,
    Observation,
    PredictRequest,
    check_emit_version,
    check_schema_version,
)
from ..errors import WireError
from .transport import WireResponse, not_found_response

__all__ = ["METERED_PATHS", "SessionApp", "WireApp", "split_path"]

#: The prediction/observation endpoints — the only paths admission ever
#: meters; health/stats probes must keep answering at capacity.
METERED_PATHS = ("/v1/predict", "/v1/predict-batch", "/v1/observe")


def split_path(path: str) -> tuple[str, dict[str, str]]:
    """Split a raw request path into ``(bare_path, query_params)``.

    Layers match on the bare path; the only recognized parameter today
    is ``schema_version`` on ``GET /v1/stats`` (version negotiation for
    bodiless requests). Unknown parameters are carried but ignored —
    the same tolerance the wire schema applies to unknown fields.
    """
    bare, sep, query = path.partition("?")
    params: dict[str, str] = {}
    if sep:
        for part in query.split("&"):
            if not part:
                continue
            key, _, value = part.partition("=")
            params[urllib.parse.unquote(key)] = urllib.parse.unquote(value)
    return bare, params


def negotiated_version(params: dict[str, str], default: int) -> int:
    """The schema version a query string asks for, or ``default``.

    A GET has no body to declare ``schema_version`` in, so ``/v1/stats``
    negotiates through the query string. The default is v1: a deployed
    v1 monitor polling the bare path must keep receiving the flat
    report it was written against.
    """
    raw = params.get("schema_version")
    if raw is None:
        return default
    try:
        version = int(raw)
    except ValueError:
        raise WireError(
            f"schema_version query parameter must be an integer, got {raw!r}",
            code="schema-version",
        ) from None
    return check_emit_version(version)


class WireApp:
    """One layer of the serving stack: paths in, wire responses out."""

    def health(self) -> dict:
        """The liveness payload served at ``/v1/healthz``."""
        raise NotImplementedError

    def handle_get(self, path: str) -> WireResponse:
        """Answer a GET for ``path``."""
        raise NotImplementedError

    def handle_post(
        self, path: str, read_body: Callable[[], dict]
    ) -> WireResponse:
        """Answer a POST for ``path``; call ``read_body()`` at most once.

        The body is passed as a thunk, not a dict, so outer layers can
        refuse (admission) or re-route (router) without consuming it.
        """
        raise NotImplementedError


class SessionApp(WireApp):
    """The innermost layer: one session behind the five ``/v1`` routes.

    Version negotiation happens here, per request: the declared
    ``schema_version`` of a POST body (or the ``schema_version`` query
    parameter of a stats GET) decides the **shape of the answer** — a
    v1-declared request is answered with the exact v1 wire form
    (down-converted, byte-identical to a v1 server's output), a v2 one
    gets the full v2 shape. Unversioned POST bodies are assumed current
    (v2); unversioned stats GETs stay v1 for deployed monitors.
    """

    def __init__(self, session: Session):
        self.session = session
        self._started = time.monotonic()

    def health(self) -> dict:
        """The liveness payload: schema version, uptime, traffic counter."""
        return {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "queries_served": self.session.service.stats.queries_served,
        }

    def handle_get(self, path: str) -> WireResponse:
        """Serve ``/v1/healthz`` and ``/v1/stats``; 404 anything else."""
        bare, params = split_path(path)
        if bare == "/v1/healthz":
            return WireResponse(200, self.health())
        if bare == "/v1/stats":
            version = negotiated_version(params, default=1)
            return WireResponse(200, self.session.stats().to_dict(version))
        return not_found_response(bare)

    def handle_post(
        self, path: str, read_body: Callable[[], dict]
    ) -> WireResponse:
        """Serve the prediction/observe endpoints; 404 anything else."""
        bare, _ = split_path(path)
        if bare == "/v1/predict":
            record = read_body()
            version = check_schema_version(record)
            response = self.session.predict(PredictRequest.from_dict(record))
        elif bare == "/v1/predict-batch":
            # Rendered straight from the batch kernels' arrays, byte for
            # byte the typed BatchResponse's dumps(to_dict(version)).
            record = read_body()
            version = check_schema_version(record)
            return WireResponse(
                200,
                body=self.session.predict_batch_json(
                    BatchRequest.from_dict(record), version
                ),
            )
        elif bare == "/v1/observe":
            record = read_body()
            version = check_schema_version(record)
            response = self.session.observe(Observation.from_dict(record))
        else:
            return not_found_response(bare)
        return WireResponse(200, response.to_dict(version))
