"""A small stdlib HTTP client for the serving front-end.

:class:`HttpClient` speaks the versioned wire schema against a running
``repro serve`` (or any :func:`repro.serving.build_server` stack), so a
second process can drive predictions with the same typed objects the
in-process :class:`~repro.api.session.Session` returns::

    client = HttpClient("http://127.0.0.1:8080")
    client.healthz()
    response = client.predict("SELECT COUNT(*) FROM orders ...")
    batch = client.predict_batch(["SELECT ...", "SELECT ..."])

Structured server errors surface as :class:`ApiError` carrying the HTTP
status and the stable wire ``code`` (``"sql-parse"``,
``"schema-version"``, ``"over-capacity"``, ...).

Admission refusals (503 ``over-capacity``) are retryable by
construction — the server sheds load instead of queueing, and
predictions are pure reads — so the client can absorb them:
``config=ClientConfig(retries_503=N)`` re-sends a refused request up to
N times behind a jittered exponential backoff drawn from a **seeded**
generator
(deterministic delay sequences; replay runs stay reproducible). When
the refusal carries the server's ``Retry-After`` hint, the backoff
base is raised to honor it (capped at
:data:`RETRY_AFTER_CAP_SECONDS`). The default is 0 retries: surfacing
the 503 is the honest default for load tests measuring shed traffic.

All client knobs live on one declarative
:class:`~repro.api.config.ClientConfig` (``HttpClient(url,
config=ClientConfig(retries_503=3))``); the ``timeout`` argument folds
into it.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
import urllib.error
import urllib.request
from typing import Sequence

from ..errors import ReproError, SessionError
from .config import ClientConfig
from .wire import (
    BatchRequest,
    BatchResponse,
    Observation,
    ObserveResponse,
    PredictRequest,
    PredictResponse,
    StatsSnapshot,
    dumps,
    loads,
)

__all__ = ["RETRY_AFTER_CAP_SECONDS", "ApiError", "HttpClient"]

#: Upper bound on a server-suggested retry delay. An aggressive or
#: buggy ``Retry-After`` must not park a replay client for minutes.
RETRY_AFTER_CAP_SECONDS = 5.0


class ApiError(ReproError):
    """A structured error answer from the serving front-end.

    ``retry_after`` carries the server's ``Retry-After`` hint in
    seconds when the refusal had one (admission 503s do), ``None``
    otherwise.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: float | None = None,
    ):
        super().__init__(f"[{status}/{code}] {message}")
        self.status = status
        self.code = code
        self.remote_message = message
        self.retry_after = retry_after


class HttpClient:
    """Typed wire-schema requests against one serving base URL.

    The config's ``retries_503`` bounds how many times an
    admission-refused request (503, code ``over-capacity``) is re-sent;
    its ``backoff_seconds`` is the first retry's base delay, doubled per
    attempt and jittered to 50–100% of the base by a generator seeded
    with its ``backoff_seed``. A ``timeout`` overrides the config's.
    The jitter draws and the retry counter are lock-protected, so the
    client is safe to share across threads; the delay *sequence* is
    deterministic — a serial (closed-loop) caller retries on the
    identical schedule every run, while concurrent callers interleave
    draws in arrival order.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float | None = None,
        *,
        config: ClientConfig | None = None,
    ):
        if config is None:
            config = ClientConfig()
        if timeout is not None:
            try:
                config = config.replace(timeout=timeout)
            except SessionError as error:
                # Client knobs are reported as client errors, not as
                # SessionError (the config's own taxonomy).
                raise ApiError(0, "bad-request", str(error)) from None
        self._config = config
        self._base_url = base_url.rstrip("/")
        self._timeout = config.timeout
        self._retries_503 = config.retries_503
        self._backoff_seconds = config.backoff_seconds
        self._retry_after_cap = config.retry_after_cap_seconds
        self._wire_version = config.wire_version
        self._backoff_rng = random.Random(config.backoff_seed)
        self._backoff_lock = threading.Lock()
        self._retries_performed = 0

    @property
    def base_url(self) -> str:
        return self._base_url

    @property
    def config(self) -> ClientConfig:
        """The resolved declarative configuration this client runs with."""
        return self._config

    @property
    def retries_performed(self) -> int:
        """Total 503 retries this client has issued (monitoring aid)."""
        return self._retries_performed

    # -- transport ---------------------------------------------------------
    def request_json(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One HTTP exchange; returns the decoded JSON body.

        Error statuses with a structured body raise :class:`ApiError`;
        transport failures raise it with code ``"transport"``. A 503
        ``over-capacity`` answer is retried up to ``retries_503`` times
        behind the seeded jittered backoff before it propagates.
        """
        attempt = 0
        while True:
            try:
                return self._exchange(method, path, payload)
            except ApiError as error:
                retryable = error.status == 503 and error.code == "over-capacity"
                if not retryable or attempt >= self._retries_503:
                    raise
                time.sleep(self._backoff_delay(attempt, error.retry_after))
                attempt += 1

    def _backoff_delay(
        self, attempt: int, retry_after: float | None = None
    ) -> float:
        """Exponential base doubled per attempt, jittered to 50–100%.

        A server ``Retry-After`` hint raises the base to at least the
        suggested delay (capped at :data:`RETRY_AFTER_CAP_SECONDS`) —
        the server knows its queue depth better than our schedule does —
        but never shortens an already-longer exponential base, so
        repeated refusals still back off. The jitter draw and the retry
        counter update are one atomic step, so threads sharing a client
        neither lose counter increments nor tear the generator's state.
        """
        base = self._backoff_seconds * (2.0 ** attempt)
        if retry_after is not None:
            base = min(max(base, retry_after), self._retry_after_cap)
        with self._backoff_lock:
            self._retries_performed += 1
            return base * (0.5 + 0.5 * self._backoff_rng.random())

    def _exchange(self, method: str, path: str, payload: dict | None) -> dict:
        url = f"{self._base_url}{path}"
        data = dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(
            url,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as reply:
                return loads(reply.read())
        except urllib.error.HTTPError as error:
            raise self._structured(error) from None
        except urllib.error.URLError as error:
            raise ApiError(0, "transport", f"cannot reach {url}: {error.reason}") from None
        except (OSError, http.client.HTTPException) as error:
            # A peer that hangs up, truncates its reply or outlasts the
            # timeout fails the exchange after the connection was made.
            raise ApiError(
                0, "transport", f"{url}: {type(error).__name__}: {error}"
            ) from None

    @staticmethod
    def _structured(error: urllib.error.HTTPError) -> ApiError:
        retry_after = None
        try:
            retry_after = float(error.headers.get("Retry-After"))
        except (TypeError, ValueError):
            pass  # absent or non-numeric (HTTP dates are not sent by us)
        try:
            record = loads(error.read())
            body = record["error"]
            return ApiError(
                error.code, str(body["code"]), str(body["message"]),
                retry_after=retry_after,
            )
        except Exception:  # noqa: BLE001 — non-JSON error page
            return ApiError(
                error.code, "http", f"{error.code} {error.reason}",
                retry_after=retry_after,
            )

    # -- endpoints ---------------------------------------------------------
    def healthz(self) -> dict:
        """``GET /v1/healthz`` — liveness, schema version, uptime."""
        return self.request_json("GET", "/v1/healthz")

    def stats(self) -> StatsSnapshot:
        """``GET /v1/stats`` — the typed stats snapshot.

        Speaking wire v2 the client asks for the sectioned form
        (``?schema_version=2``: admission + feedback alongside the
        service report); at v1 it fetches the bare path, whose answer
        is the flat v1 report, and wraps it in a section-less snapshot.
        """
        path = "/v1/stats"
        if self._wire_version >= 2:
            path = f"/v1/stats?schema_version={self._wire_version}"
        return StatsSnapshot.from_dict(self.request_json("GET", path))

    def predict(self, request: PredictRequest | str) -> PredictResponse:
        """``POST /v1/predict`` — one query (a bare SQL string is accepted)."""
        if isinstance(request, str):
            request = PredictRequest(sql=request)
        record = self.request_json(
            "POST", "/v1/predict", request.to_dict(self._wire_version)
        )
        return PredictResponse.from_dict(record)

    def predict_batch(
        self, batch: BatchRequest | Sequence[str]
    ) -> BatchResponse:
        """``POST /v1/predict-batch`` — a batch with one shared fan-out."""
        if not isinstance(batch, BatchRequest):
            batch = BatchRequest(queries=tuple(batch))
        record = self.request_json(
            "POST", "/v1/predict-batch", batch.to_dict(self._wire_version)
        )
        return BatchResponse.from_dict(record)

    def observe(
        self,
        observation: Observation | str,
        actual_seconds: float | None = None,
    ) -> ObserveResponse:
        """``POST /v1/observe`` — feed one actual runtime back (v2).

        Accepts a full :class:`~repro.api.wire.Observation`, or the
        ``(sql, actual_seconds)`` convenience pair, attributed to the
        config's ``observe_tenant``.
        """
        if isinstance(observation, str):
            if actual_seconds is None:
                raise ApiError(
                    0, "bad-request",
                    "observe(sql, actual_seconds) needs the actual runtime",
                )
            observation = Observation(
                sql=observation,
                actual_seconds=actual_seconds,
                tenant=self._config.observe_tenant,
            )
        # Observations are inherently v2 — a genuine v1 server has no
        # /v1/observe and answers 404, which is the honest failure.
        record = self.request_json("POST", "/v1/observe", observation.to_dict(2))
        return ObserveResponse.from_dict(record)
