"""The versioned wire schema: typed request/response objects + JSON.

Every object that crosses a process boundary lives here: requests,
responses, per-(variant, mpl) result payloads, confidence intervals,
per-query failures, serving stats, and structured error bodies. Each has
``to_dict``/``from_dict`` and round-trips **bitwise** through JSON
(Python's float repr is exact), which is what lets the HTTP front-end
promise byte-identical means/variances/interval bounds to an in-process
:class:`~repro.api.session.Session`.

Versioning policy:

* every top-level payload carries ``schema_version`` (currently
  :data:`SCHEMA_VERSION`);
* readers accept every version in :data:`SUPPORTED_SCHEMA_VERSIONS`
  and **reject** anything else (:class:`~repro.errors.WireError`, code
  ``"schema-version"``);
* writers can **down-convert**: every top-level ``to_dict`` takes a
  ``version`` argument and emits exactly that version's shape — v2
  emits the feedback/admission extensions, v1 drops them and restamps,
  byte-identical to what a v1-era server wrote. This is how a v2
  server answers a v1 client without the client noticing anything;
* readers **tolerate unknown fields** (ignored on decode), so additive
  evolution does not break deployed clients;
* a payload without ``schema_version`` is assumed current — friendlier
  to hand-written curl bodies.

Version 2 adds the online-feedback surface: :class:`Observation` /
:class:`ObserveResponse` (the ``/v1/observe`` exchange), an optional
``tenant`` on requests, an optional ``feedback`` annotation on
responses whose intervals were conformally corrected, and the typed
:class:`StatsSnapshot` whose v2 wire form carries ``admission`` and
``feedback`` sections alongside the v1 report keys. Observation-family
payloads are v2-only: asking for their v1 form raises rather than
silently dropping data.

Serialization refuses NaN/inf (``allow_nan=False``): a variance-0 point
mass serializes as ``std == 0`` with degenerate interval bounds, never
as a non-finite JSON extension token.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from ..caching import CacheStats
from ..core.predictor import Variant
from ..errors import PredictionError, WireError, error_code
from ..feedback.recalibrator import DEFAULT_TENANT, FeedbackStats, TenantFeedback
from ..service.service import QueryFailure, ServiceReport, ServiceStats

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "PredictRequest",
    "BatchRequest",
    "IntervalPayload",
    "ResultPayload",
    "PredictResponse",
    "BatchResponse",
    "Observation",
    "ObserveResponse",
    "FeedbackApplied",
    "AdmissionStats",
    "SchedulerStats",
    "StatsSnapshot",
    "dumps",
    "loads",
    "check_schema_version",
    "check_emit_version",
    "error_body",
    "query_failure_to_dict",
    "query_failure_from_dict",
    "service_stats_to_dict",
    "service_stats_from_dict",
    "cache_stats_to_dict",
    "cache_stats_from_dict",
    "service_report_to_dict",
    "service_report_from_dict",
    "feedback_stats_to_dict",
    "feedback_stats_from_dict",
    "admission_stats_to_dict",
    "admission_stats_from_dict",
    "scheduler_stats_to_dict",
    "scheduler_stats_from_dict",
]

#: The current wire schema version. Bump on any incompatible change.
SCHEMA_VERSION = 2

#: Versions this checkout can read and write. v1 is the pre-feedback
#: schema; v2 adds observations, tenants, and sectioned stats.
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

_COUNTER_FIELDS = (
    "queries_served",
    "queries_failed",
    "plans_built",
    "prepares_run",
    "prepare_cache_hits",
    "assemblies",
)

_CACHE_FIELDS = ("hits", "misses", "evictions", "oversized")


# ---------------------------------------------------------------------------
# envelope helpers


def dumps(record: dict, *, indent: int | None = None) -> str:
    """Serialize a wire dict as strict JSON (no NaN/inf extension tokens).

    ``indent`` pretty-prints for human-facing surfaces (the CLI's
    ``--json`` output) while keeping the same NaN/inf rejection as the
    compact wire form.
    """
    try:
        return json.dumps(record, allow_nan=False, sort_keys=True, indent=indent)
    except ValueError as error:
        raise WireError(f"payload is not strict-JSON serializable: {error}") from None


def loads(text: str | bytes) -> dict:
    """Parse a JSON body into a mapping, or raise a structured WireError."""
    try:
        record = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise WireError(f"body is not valid JSON: {error}", code="bad-json") from None
    if not isinstance(record, dict):
        raise WireError(
            f"expected a JSON object, got {type(record).__name__}"
        )
    return record


def check_schema_version(record: dict) -> int:
    """Reject a payload declaring an unsupported schema version.

    Returns the **declared** version (a missing field is assumed
    current) so readers can branch on it — e.g. serve a v1-shaped
    response to a v1-shaped request.
    """
    version = record.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or isinstance(version, bool) \
            or version not in SUPPORTED_SCHEMA_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)
        raise WireError(
            f"unsupported schema_version {version!r}; "
            f"this endpoint speaks versions {supported}",
            code="schema-version",
        )
    return version


def check_emit_version(version: int) -> int:
    """Validate a requested *output* version (the ``to_dict`` argument)."""
    if not isinstance(version, int) or isinstance(version, bool) \
            or version not in SUPPORTED_SCHEMA_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)
        raise WireError(
            f"unsupported schema_version {version!r}; "
            f"this endpoint speaks versions {supported}",
            code="schema-version",
        )
    return version


def _finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise WireError(f"{what} must be finite, got {value!r}")
    return value


def error_body(error: BaseException, version: int = SCHEMA_VERSION) -> dict:
    """The structured JSON error body for any exception.

    ``code`` is the stable machine-readable field
    (:func:`repro.errors.error_code`); ``type`` names the Python class
    for humans; ``message`` is the exception text (for a parse error,
    the parser's own message). ``version`` stamps the body at the
    requester's negotiated schema version — the error shape itself is
    identical across versions.
    """
    return {
        "schema_version": check_emit_version(version),
        "error": {
            "code": error_code(error),
            "type": type(error).__name__,
            "message": str(error),
        },
    }


# ---------------------------------------------------------------------------
# requests


@dataclass(frozen=True)
class PredictRequest:
    """One query's prediction request.

    ``variants``/``mpls``/``confidences`` left as ``None`` defer to the
    serving session's configured defaults. ``tenant`` (v2) selects the
    per-tenant calibration profile the feedback loop maintains; ``None``
    means the default tenant. ``deadline_ms``/``priority`` (v2) are the
    scheduling hints the uncertainty-aware admission tier dispatches on
    (``docs/scheduling.md``); absent, the request schedules exactly as
    pre-scheduler traffic did.
    """

    sql: str
    variants: tuple[str, ...] | None = None
    mpls: tuple[int, ...] | None = None
    confidences: tuple[float, ...] | None = None
    tenant: str | None = None
    deadline_ms: int | None = None
    priority: int | None = None

    def __post_init__(self):
        if not isinstance(self.sql, str) or not self.sql.strip():
            raise WireError("request needs a non-empty 'sql' string")
        _validate_fanout(self.variants, self.mpls, self.confidences)
        _validate_tenant(self.tenant)
        _validate_scheduling(self.deadline_ms, self.priority)

    def to_dict(self, version: int = SCHEMA_VERSION) -> dict:
        """Wire form; omitted fan-out fields stay absent (server defaults)."""
        check_emit_version(version)
        record = {"schema_version": version, "sql": self.sql}
        if self.variants is not None:
            record["variants"] = list(self.variants)
        if self.mpls is not None:
            record["mpls"] = [int(mpl) for mpl in self.mpls]
        if self.confidences is not None:
            record["confidences"] = [float(c) for c in self.confidences]
        if self.tenant is not None:
            if version < 2:
                raise WireError(
                    "per-tenant requests need schema_version >= 2; "
                    "drop the tenant or raise the wire version",
                    code="schema-version",
                )
            record["tenant"] = self.tenant
        _emit_scheduling(record, self.deadline_ms, self.priority, version)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "PredictRequest":
        """Decode, tolerating unknown fields, rejecting foreign versions."""
        version = check_schema_version(record)
        if "sql" not in record:
            raise WireError("request needs a non-empty 'sql' string")
        return cls(
            sql=record["sql"],
            variants=_optional_tuple(record.get("variants"), str, "variants"),
            mpls=_optional_tuple(record.get("mpls"), int, "mpls"),
            confidences=_optional_tuple(
                record.get("confidences"), float, "confidences"
            ),
            tenant=record.get("tenant") if version >= 2 else None,
            deadline_ms=record.get("deadline_ms") if version >= 2 else None,
            priority=record.get("priority") if version >= 2 else None,
        )


@dataclass(frozen=True)
class BatchRequest:
    """A batch of SQL strings with one shared fan-out.

    ``deadline_ms``/``priority`` (v2) apply to the batch as a whole —
    the scheduler admits a batch as one unit of work.
    """

    queries: tuple[str, ...]
    variants: tuple[str, ...] | None = None
    mpls: tuple[int, ...] | None = None
    confidences: tuple[float, ...] | None = None
    skip_failures: bool = True
    tenant: str | None = None
    deadline_ms: int | None = None
    priority: int | None = None

    def __post_init__(self):
        if not self.queries:
            raise WireError("batch request needs at least one query")
        for sql in self.queries:
            if not isinstance(sql, str) or not sql.strip():
                raise WireError("every batch query must be a non-empty string")
        _validate_fanout(self.variants, self.mpls, self.confidences)
        _validate_tenant(self.tenant)
        _validate_scheduling(self.deadline_ms, self.priority)

    def to_dict(self, version: int = SCHEMA_VERSION) -> dict:
        """Wire form; omitted fan-out fields stay absent (server defaults)."""
        check_emit_version(version)
        record = {
            "schema_version": version,
            "queries": list(self.queries),
            "skip_failures": self.skip_failures,
        }
        if self.variants is not None:
            record["variants"] = list(self.variants)
        if self.mpls is not None:
            record["mpls"] = [int(mpl) for mpl in self.mpls]
        if self.confidences is not None:
            record["confidences"] = [float(c) for c in self.confidences]
        if self.tenant is not None:
            if version < 2:
                raise WireError(
                    "per-tenant requests need schema_version >= 2; "
                    "drop the tenant or raise the wire version",
                    code="schema-version",
                )
            record["tenant"] = self.tenant
        _emit_scheduling(record, self.deadline_ms, self.priority, version)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "BatchRequest":
        """Decode, tolerating unknown fields, rejecting foreign versions."""
        version = check_schema_version(record)
        queries = record.get("queries")
        if not isinstance(queries, (list, tuple)):
            raise WireError("batch request needs a 'queries' list")
        return cls(
            queries=tuple(queries),
            variants=_optional_tuple(record.get("variants"), str, "variants"),
            mpls=_optional_tuple(record.get("mpls"), int, "mpls"),
            confidences=_optional_tuple(
                record.get("confidences"), float, "confidences"
            ),
            skip_failures=bool(record.get("skip_failures", True)),
            tenant=record.get("tenant") if version >= 2 else None,
            deadline_ms=record.get("deadline_ms") if version >= 2 else None,
            priority=record.get("priority") if version >= 2 else None,
        )


def _validate_fanout(variants, mpls, confidences) -> None:
    """Reject an invalid requested fan-out as a payload error.

    Raising :class:`WireError` here (not the engine's PredictionError /
    SessionError deeper down) is what keeps the HTTP contract honest:
    a client sending an unknown variant or ``mpl: 0`` gets a 400
    ``bad-request``, not a 422 internal-looking failure.
    """
    if variants is not None:
        try:
            for name in variants:
                Variant.from_name(name)
        except PredictionError as error:
            raise WireError(str(error)) from None
    if mpls is not None and any(mpl < 1 for mpl in mpls):
        raise WireError(
            f"multiprogramming levels must all be >= 1, got {list(mpls)}"
        )
    if confidences is not None and any(
        not 0.0 < c < 1.0 for c in confidences
    ):
        raise WireError(
            f"confidences must all lie in (0, 1), got {list(confidences)}"
        )


def _validate_tenant(tenant) -> None:
    if tenant is None:
        return
    if not isinstance(tenant, str) or not tenant.strip():
        raise WireError(f"tenant must be a non-empty string, got {tenant!r}")


def _validate_scheduling(deadline_ms, priority) -> None:
    """Reject malformed scheduling hints as payload errors (HTTP 400)."""
    if deadline_ms is not None:
        if (
            not isinstance(deadline_ms, int)
            or isinstance(deadline_ms, bool)
            or deadline_ms < 1
        ):
            raise WireError(
                f"deadline_ms must be a positive integer, got {deadline_ms!r}"
            )
    if priority is not None:
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise WireError(
                f"priority must be an integer, got {priority!r}"
            )


def _emit_scheduling(record, deadline_ms, priority, version) -> None:
    """Stamp the v2-only scheduling hints; refuse them on a v1 wire."""
    if deadline_ms is None and priority is None:
        return
    if version < 2:
        raise WireError(
            "deadline/priority scheduling hints need schema_version >= 2; "
            "drop them or raise the wire version",
            code="schema-version",
        )
    if deadline_ms is not None:
        record["deadline_ms"] = int(deadline_ms)
    if priority is not None:
        record["priority"] = int(priority)


def _optional_tuple(value, convert, what):
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise WireError(f"{what!r} must be a list")
    try:
        return tuple(convert(item) for item in value)
    except (TypeError, ValueError) as error:
        raise WireError(f"bad {what!r} entry: {error}") from None


# ---------------------------------------------------------------------------
# responses


@dataclass(frozen=True)
class IntervalPayload:
    """One central confidence interval, clamped to nonnegative times."""

    confidence: float
    low: float
    high: float

    def to_dict(self) -> dict:
        """Wire form (finite floats enforced)."""
        return {
            "confidence": _finite(self.confidence, "confidence"),
            "low": _finite(self.low, "interval low"),
            "high": _finite(self.high, "interval high"),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "IntervalPayload":
        """Decode one interval record."""
        return cls(
            confidence=float(record["confidence"]),
            low=float(record["low"]),
            high=float(record["high"]),
        )


@dataclass(frozen=True)
class ResultPayload:
    """One (variant, mpl) cell of a prediction fan-out.

    ``std`` is carried redundantly (``sqrt(variance)``) for consumers
    that never want to touch math; the distribution is fully determined
    by ``mean``/``variance``.
    """

    variant: str
    mpl: int
    mean: float
    variance: float
    std: float
    intervals: tuple[IntervalPayload, ...]

    def interval(self, confidence: float) -> IntervalPayload:
        """The requested-confidence interval carried by this result."""
        for interval in self.intervals:
            if interval.confidence == confidence:
                return interval
        raise WireError(
            f"no {confidence!r} interval in this result; carried: "
            f"{sorted(i.confidence for i in self.intervals)}"
        )

    def to_dict(self) -> dict:
        """Wire form of one fan-out cell (finite floats enforced)."""
        return {
            "variant": self.variant,
            "mpl": int(self.mpl),
            "mean": _finite(self.mean, "mean"),
            "variance": _finite(self.variance, "variance"),
            "std": _finite(self.std, "std"),
            "intervals": [interval.to_dict() for interval in self.intervals],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ResultPayload":
        """Decode one fan-out cell."""
        return cls(
            variant=str(record["variant"]),
            mpl=int(record["mpl"]),
            mean=float(record["mean"]),
            variance=float(record["variance"]),
            std=float(record["std"]),
            intervals=tuple(
                IntervalPayload.from_dict(item)
                for item in record.get("intervals", [])
            ),
        )


@dataclass(frozen=True)
class FeedbackApplied:
    """The v2 annotation on a response whose intervals were corrected.

    ``scales`` pairs each requested confidence with the scale
    (multiplier on the predicted std) that replaced the static normal
    quantile: the level's own conformal scale, or the larger scale
    served to a lower confidence, so the intervals nest. ``None``
    entries mean that confidence was served its static interval
    unchanged (the window cannot certify it, and its static quantile
    is at least the scale served below it).
    """

    tenant: str
    observations: int
    scales: tuple[tuple[float, float | None], ...]

    def to_dict(self) -> dict:
        """Wire form (nested inside a v2 response, no version stamp)."""
        return {
            "tenant": self.tenant,
            "observations": int(self.observations),
            "scales": [
                {
                    "confidence": _finite(confidence, "confidence"),
                    "scale": None if scale is None else _finite(scale, "scale"),
                }
                for confidence, scale in self.scales
            ],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "FeedbackApplied":
        """Rebuild the annotation, tolerating unknown fields."""
        return cls(
            tenant=str(record.get("tenant", DEFAULT_TENANT)),
            observations=int(record.get("observations", 0)),
            scales=tuple(
                (
                    float(item["confidence"]),
                    None if item.get("scale") is None else float(item["scale"]),
                )
                for item in record.get("scales", [])
            ),
        )


@dataclass(frozen=True)
class PredictResponse:
    """All requested distributions for one query.

    ``feedback`` (v2) is present only when the serving session's
    feedback loop actually corrected the carried intervals; it is
    dropped in the v1 wire form (the numbers themselves survive).
    """

    sql: str
    results: tuple[ResultPayload, ...]
    prepare_was_cached: bool = False
    feedback: FeedbackApplied | None = None

    def result(self, variant: str = "all", mpl: int = 1) -> ResultPayload:
        """The cell for ``(variant, mpl)``; raises when not requested."""
        key = Variant.from_name(variant).wire_name
        for payload in self.results:
            if payload.variant == key and payload.mpl == mpl:
                return payload
        raise WireError(
            f"no result for variant={variant!r}, mpl={mpl}; carried: "
            f"{sorted((r.variant, r.mpl) for r in self.results)}"
        )

    @property
    def mean(self) -> float:
        return self.results[0].mean

    @property
    def std(self) -> float:
        return self.results[0].std

    def to_dict(self, version: int = SCHEMA_VERSION) -> dict:
        """Wire form with the schema version stamped."""
        check_emit_version(version)
        record = {
            "schema_version": version,
            "sql": self.sql,
            "prepare_was_cached": self.prepare_was_cached,
            "results": [payload.to_dict() for payload in self.results],
        }
        if version >= 2 and self.feedback is not None:
            record["feedback"] = self.feedback.to_dict()
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "PredictResponse":
        """Decode, tolerating unknown fields, rejecting foreign versions."""
        version = check_schema_version(record)
        feedback = None
        if version >= 2 and record.get("feedback") is not None:
            feedback = FeedbackApplied.from_dict(record["feedback"])
        return cls(
            sql=str(record.get("sql", "")),
            results=tuple(
                ResultPayload.from_dict(item)
                for item in record.get("results", [])
            ),
            prepare_was_cached=bool(record.get("prepare_was_cached", False)),
            feedback=feedback,
        )


@dataclass(frozen=True)
class BatchResponse:
    """The serving answer for one batch: responses, failures, counters."""

    responses: tuple[PredictResponse, ...]
    failures: tuple[QueryFailure, ...]
    elapsed_seconds: float
    stats: ServiceStats

    def __len__(self) -> int:
        return len(self.responses)

    def __iter__(self):
        return iter(self.responses)

    @property
    def queries_per_second(self) -> float:
        return len(self.responses) / max(self.elapsed_seconds, 1e-12)

    def to_dict(self, version: int = SCHEMA_VERSION) -> dict:
        """Wire form with the schema version stamped."""
        check_emit_version(version)
        return {
            "schema_version": version,
            "responses": [
                response.to_dict(version) for response in self.responses
            ],
            "failures": [
                query_failure_to_dict(failure) for failure in self.failures
            ],
            "elapsed_seconds": _finite(self.elapsed_seconds, "elapsed_seconds"),
            "stats": service_stats_to_dict(self.stats),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "BatchResponse":
        """Decode, tolerating unknown fields, rejecting foreign versions."""
        check_schema_version(record)
        return cls(
            responses=tuple(
                PredictResponse.from_dict(item)
                for item in record.get("responses", [])
            ),
            failures=tuple(
                query_failure_from_dict(item)
                for item in record.get("failures", [])
            ),
            elapsed_seconds=float(record.get("elapsed_seconds", 0.0)),
            stats=service_stats_from_dict(record.get("stats", {})),
        )


# ---------------------------------------------------------------------------
# service-layer records (failures, counters, reports)


def query_failure_to_dict(failure: QueryFailure) -> dict:
    """Wire form of one per-query failure."""
    return {
        "index": failure.index,
        "sql": failure.sql,
        "error": failure.error,
        "code": failure.code,
    }


def query_failure_from_dict(record: dict) -> QueryFailure:
    """Rebuild a :class:`~repro.service.QueryFailure` from its wire form."""
    return QueryFailure(
        index=int(record["index"]),
        sql=record.get("sql"),
        error=str(record.get("error", "")),
        code=str(record.get("code", "internal")),
    )


def service_stats_to_dict(stats: ServiceStats) -> dict:
    """Wire form of the cumulative serving counters.

    ``prepare_hit_rate`` is included as a derived convenience field,
    ``null`` when there was no prepare traffic (matching the in-process
    ``None``).
    """
    record = {name: getattr(stats, name) for name in _COUNTER_FIELDS}
    record["prepare_hit_rate"] = stats.prepare_hit_rate
    return record


def service_stats_from_dict(record: dict) -> ServiceStats:
    """Rebuild :class:`~repro.service.ServiceStats` (derived fields ignored)."""
    return ServiceStats(
        **{name: int(record.get(name, 0)) for name in _COUNTER_FIELDS}
    )


def cache_stats_to_dict(stats: CacheStats) -> dict:
    """Wire form of one cache layer's hit/miss counters."""
    record = {name: getattr(stats, name) for name in _CACHE_FIELDS}
    record["hit_rate"] = stats.hit_rate
    return record


def cache_stats_from_dict(record: dict) -> CacheStats:
    """Rebuild :class:`~repro.caching.CacheStats` (derived fields ignored)."""
    return CacheStats(
        **{name: int(record.get(name, 0)) for name in _CACHE_FIELDS}
    )


def service_report_to_dict(
    report: ServiceReport, version: int = SCHEMA_VERSION
) -> dict:
    """Wire form of a point-in-time :class:`~repro.service.ServiceReport`."""
    return {
        "schema_version": check_emit_version(version),
        "stats": service_stats_to_dict(report.stats),
        "prepared_cache": cache_stats_to_dict(report.prepared_cache),
        "prepared_entries": report.prepared_entries,
        "sampling_cache": cache_stats_to_dict(report.sampling_cache),
        "sampling_entries": report.sampling_entries,
        "sampling_bytes_used": report.sampling_bytes_used,
        "sampling_bytes_budget": report.sampling_bytes_budget,
    }


def service_report_from_dict(record: dict) -> ServiceReport:
    """Rebuild a :class:`~repro.service.ServiceReport` from its wire form."""
    check_schema_version(record)
    return ServiceReport(
        stats=service_stats_from_dict(record.get("stats", {})),
        prepared_cache=cache_stats_from_dict(record.get("prepared_cache", {})),
        prepared_entries=int(record.get("prepared_entries", 0)),
        sampling_cache=cache_stats_from_dict(record.get("sampling_cache", {})),
        sampling_entries=int(record.get("sampling_entries", 0)),
        sampling_bytes_used=int(record.get("sampling_bytes_used", 0)),
        sampling_bytes_budget=int(record.get("sampling_bytes_budget", 0)),
    )


# ---------------------------------------------------------------------------
# v2: observations and the sectioned stats snapshot


def _require_v2(version: int, what: str) -> int:
    check_emit_version(version)
    if version < 2:
        raise WireError(
            f"{what} require schema_version >= 2", code="schema-version"
        )
    return version


@dataclass(frozen=True)
class Observation:
    """One piece of ground truth fed back into the calibration loop.

    ``predicted_mean``/``predicted_std`` carry the distribution the
    caller was served (both or neither — the residual needs a matched
    pair). When absent the serving session re-predicts ``sql`` at
    ``(variant, mpl)`` to recover them, which is cheap behind the
    prepared-plan caches but does bump the serving counters.
    """

    sql: str
    actual_seconds: float
    tenant: str = DEFAULT_TENANT
    predicted_mean: float | None = None
    predicted_std: float | None = None
    variant: str = "all"
    mpl: int = 1

    def __post_init__(self):
        if not isinstance(self.sql, str) or not self.sql.strip():
            raise WireError("observation needs a non-empty 'sql' string")
        if not isinstance(self.tenant, str) or not self.tenant.strip():
            raise WireError(
                f"tenant must be a non-empty string, got {self.tenant!r}"
            )
        actual = _finite(self.actual_seconds, "actual_seconds")
        if actual < 0:
            raise WireError(f"actual_seconds must be >= 0, got {actual}")
        if (self.predicted_mean is None) != (self.predicted_std is None):
            raise WireError(
                "predicted_mean and predicted_std must be given together"
            )
        if self.predicted_std is not None:
            _finite(self.predicted_mean, "predicted_mean")
            if _finite(self.predicted_std, "predicted_std") < 0:
                raise WireError(
                    f"predicted_std must be >= 0, got {self.predicted_std}"
                )
        _validate_fanout((self.variant,), (self.mpl,), None)

    def to_dict(self, version: int = SCHEMA_VERSION) -> dict:
        """Wire form (v2-only — v1 has no observation vocabulary)."""
        _require_v2(version, "observations")
        record = {
            "schema_version": version,
            "sql": self.sql,
            "actual_seconds": _finite(self.actual_seconds, "actual_seconds"),
            "tenant": self.tenant,
            "variant": self.variant,
            "mpl": int(self.mpl),
        }
        if self.predicted_mean is not None:
            record["predicted_mean"] = _finite(
                self.predicted_mean, "predicted_mean"
            )
            record["predicted_std"] = _finite(
                self.predicted_std, "predicted_std"
            )
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "Observation":
        """Decode, tolerating unknown fields, rejecting foreign versions."""
        version = check_schema_version(record)
        if version < 2:
            raise WireError(
                "observations require schema_version >= 2",
                code="schema-version",
            )
        if "sql" not in record:
            raise WireError("observation needs a non-empty 'sql' string")
        if "actual_seconds" not in record:
            raise WireError("observation needs 'actual_seconds'")
        mean = record.get("predicted_mean")
        std = record.get("predicted_std")
        return cls(
            sql=record["sql"],
            actual_seconds=float(record["actual_seconds"]),
            tenant=str(record.get("tenant", DEFAULT_TENANT)),
            predicted_mean=None if mean is None else float(mean),
            predicted_std=None if std is None else float(std),
            variant=str(record.get("variant", "all")),
            mpl=int(record.get("mpl", 1)),
        )


@dataclass(frozen=True)
class ObserveResponse:
    """The ``/v1/observe`` ack: what the observation did to its tenant."""

    tenant: str
    observations: int
    window_fill: int
    active: bool
    drift_detected: bool
    drifts_total: int
    scale: float | None = None

    def to_dict(self, version: int = SCHEMA_VERSION) -> dict:
        """Wire form (v2-only)."""
        _require_v2(version, "observe acks")
        return {
            "schema_version": version,
            "tenant": self.tenant,
            "observations": int(self.observations),
            "window_fill": int(self.window_fill),
            "active": bool(self.active),
            "drift_detected": bool(self.drift_detected),
            "drifts_total": int(self.drifts_total),
            "scale": None if self.scale is None else _finite(self.scale, "scale"),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ObserveResponse":
        """Decode, tolerating unknown fields, rejecting foreign versions."""
        version = check_schema_version(record)
        if version < 2:
            raise WireError(
                "observe acks require schema_version >= 2",
                code="schema-version",
            )
        scale = record.get("scale")
        return cls(
            tenant=str(record.get("tenant", DEFAULT_TENANT)),
            observations=int(record.get("observations", 0)),
            window_fill=int(record.get("window_fill", 0)),
            active=bool(record.get("active", False)),
            drift_detected=bool(record.get("drift_detected", False)),
            drifts_total=int(record.get("drifts_total", 0)),
            scale=None if scale is None else float(scale),
        )


def feedback_stats_to_dict(stats: FeedbackStats) -> dict:
    """Wire form of the feedback section (nested, no version stamp)."""
    return {
        "observations": int(stats.observations),
        "drifts_detected": int(stats.drifts_detected),
        "tenants": [
            {
                "tenant": tenant.tenant,
                "observations": int(tenant.observations),
                "window_fill": int(tenant.window_fill),
                "active": bool(tenant.active),
                "drifts_detected": int(tenant.drifts_detected),
                "last_drift_observation": tenant.last_drift_observation,
                "scale": (
                    None
                    if tenant.scale is None
                    else _finite(tenant.scale, "scale")
                ),
            }
            for tenant in stats.tenants
        ],
    }


def feedback_stats_from_dict(record: dict) -> FeedbackStats:
    """Rebuild a :class:`~repro.feedback.FeedbackStats` section."""
    tenants = []
    for item in record.get("tenants", []):
        last = item.get("last_drift_observation")
        scale = item.get("scale")
        tenants.append(
            TenantFeedback(
                tenant=str(item.get("tenant", DEFAULT_TENANT)),
                observations=int(item.get("observations", 0)),
                window_fill=int(item.get("window_fill", 0)),
                active=bool(item.get("active", False)),
                drifts_detected=int(item.get("drifts_detected", 0)),
                last_drift_observation=None if last is None else int(last),
                scale=None if scale is None else float(scale),
            )
        )
    return FeedbackStats(
        observations=int(record.get("observations", 0)),
        drifts_detected=int(record.get("drifts_detected", 0)),
        tenants=tuple(tenants),
    )


@dataclass(frozen=True)
class AdmissionStats:
    """The admission layer's counters, as a stats section."""

    capacity: int
    in_flight: int
    admitted_total: int
    refused_total: int


def admission_stats_to_dict(stats: AdmissionStats) -> dict:
    """Wire form of the admission section (nested, no version stamp)."""
    return {
        "capacity": int(stats.capacity),
        "in_flight": int(stats.in_flight),
        "admitted_total": int(stats.admitted_total),
        "refused_total": int(stats.refused_total),
    }


def admission_stats_from_dict(record: dict) -> AdmissionStats:
    """Rebuild an :class:`AdmissionStats` section."""
    return AdmissionStats(
        capacity=int(record.get("capacity", 0)),
        in_flight=int(record.get("in_flight", 0)),
        admitted_total=int(record.get("admitted_total", 0)),
        refused_total=int(record.get("refused_total", 0)),
    )


@dataclass(frozen=True)
class SchedulerStats:
    """The scheduling tier's counters, as a stats section (v2).

    ``dispatched_total`` counts requests that waited in the queue
    before getting a slot (the fast path — a free slot with an empty
    queue — admits without dispatching); ``timeouts_total`` counts
    requests that aged out of the queue and were refused.
    """

    policy: str
    queue_depth: int
    queued_predicted_seconds: float
    dispatched_total: int
    timeouts_total: int


def scheduler_stats_to_dict(stats: SchedulerStats) -> dict:
    """Wire form of the scheduler section (nested, no version stamp)."""
    return {
        "policy": str(stats.policy),
        "queue_depth": int(stats.queue_depth),
        "queued_predicted_seconds": _finite(
            stats.queued_predicted_seconds, "queued_predicted_seconds"
        ),
        "dispatched_total": int(stats.dispatched_total),
        "timeouts_total": int(stats.timeouts_total),
    }


def scheduler_stats_from_dict(record: dict) -> SchedulerStats:
    """Rebuild a :class:`SchedulerStats` section."""
    return SchedulerStats(
        policy=str(record.get("policy", "fifo")),
        queue_depth=int(record.get("queue_depth", 0)),
        queued_predicted_seconds=float(
            record.get("queued_predicted_seconds", 0.0)
        ),
        dispatched_total=int(record.get("dispatched_total", 0)),
        timeouts_total=int(record.get("timeouts_total", 0)),
    )


@dataclass(frozen=True)
class StatsSnapshot:
    """The typed stats surface every layer renders from.

    One object carries the engine's :class:`~repro.service.ServiceReport`
    plus the optional v2 sections: the serving tier's admission counters
    and the feedback loop's per-tenant calibration state. Its v1 wire
    form is exactly the flat pre-feedback report (sections dropped,
    version restamped) — byte-identical to what a v1 server wrote — so
    v1 monitors keep parsing ``/v1/stats`` unmodified.

    The :class:`~repro.service.ServiceReport` attribute surface is
    delegated (``stats``, ``prepared_cache``, ...), so existing callers
    of ``Session.stats()`` / ``HttpClient.stats()`` keep working.
    """

    report: ServiceReport
    admission: AdmissionStats | None = None
    feedback: FeedbackStats | None = None
    scheduler: SchedulerStats | None = None

    @property
    def stats(self) -> ServiceStats:
        return self.report.stats

    @property
    def prepared_cache(self) -> CacheStats:
        return self.report.prepared_cache

    @property
    def prepared_entries(self) -> int:
        return self.report.prepared_entries

    @property
    def sampling_cache(self) -> CacheStats:
        return self.report.sampling_cache

    @property
    def sampling_entries(self) -> int:
        return self.report.sampling_entries

    @property
    def sampling_bytes_used(self) -> int:
        return self.report.sampling_bytes_used

    @property
    def sampling_bytes_budget(self) -> int:
        return self.report.sampling_bytes_budget

    def cache_lines(self) -> list[str]:
        """The report's human-readable cache lines (delegated)."""
        return self.report.cache_lines()

    def render(self) -> str:
        """Human-readable rendering: the report plus the v2 sections."""
        lines = [self.report.render()]
        if self.admission is not None:
            lines.append(
                f"admission: capacity {self.admission.capacity}, "
                f"in-flight {self.admission.in_flight}, "
                f"admitted {self.admission.admitted_total}, "
                f"refused {self.admission.refused_total}"
            )
        if self.scheduler is not None:
            lines.append(
                f"scheduler: policy {self.scheduler.policy}, "
                f"queue {self.scheduler.queue_depth} "
                f"({self.scheduler.queued_predicted_seconds:.3f} predicted s), "
                f"dispatched {self.scheduler.dispatched_total}, "
                f"timeouts {self.scheduler.timeouts_total}"
            )
        if self.feedback is not None:
            lines.append(
                f"feedback: {self.feedback.observations} observations, "
                f"{self.feedback.drifts_detected} drifts, "
                f"{len(self.feedback.tenants)} tenant(s)"
            )
            for tenant in self.feedback.tenants:
                scale = (
                    "static" if tenant.scale is None else f"{tenant.scale:.3f}"
                )
                lines.append(
                    f"  tenant {tenant.tenant}: {tenant.observations} obs, "
                    f"window {tenant.window_fill}, scale@0.9 {scale}, "
                    f"{tenant.drifts_detected} drift(s)"
                )
        return "\n".join(lines)

    def to_dict(self, version: int = SCHEMA_VERSION) -> dict:
        """Wire form at ``version``; v1 drops the sections entirely."""
        record = service_report_to_dict(self.report, version=version)
        if version >= 2:
            if self.admission is not None:
                record["admission"] = admission_stats_to_dict(self.admission)
            if self.feedback is not None:
                record["feedback"] = feedback_stats_to_dict(self.feedback)
            if self.scheduler is not None:
                record["scheduler"] = scheduler_stats_to_dict(self.scheduler)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "StatsSnapshot":
        """Decode either version; v1 records yield section-less snapshots."""
        version = check_schema_version(record)
        admission = None
        feedback = None
        scheduler = None
        if version >= 2:
            if record.get("admission") is not None:
                admission = admission_stats_from_dict(record["admission"])
            if record.get("feedback") is not None:
                feedback = feedback_stats_from_dict(record["feedback"])
            if record.get("scheduler") is not None:
                scheduler = scheduler_stats_from_dict(record["scheduler"])
        return cls(
            report=service_report_from_dict(record),
            admission=admission,
            feedback=feedback,
            scheduler=scheduler,
        )
