"""The versioned wire schema: typed request/response objects + JSON.

Every object that crosses a process boundary lives here: requests,
responses, per-(variant, mpl) result payloads, confidence intervals,
per-query failures, serving stats, and structured error bodies. Each
record type has one **field table** (the ``_table`` calls at the end of
this module), and one encoder (:func:`encode`) and one decoder
(:func:`decode`) read it. A record round-trips **bitwise** through JSON
(Python's float repr is exact), which is what lets the HTTP front-end
promise byte-identical means/variances/interval bounds to an in-process
:class:`~repro.api.session.Session`.

The tables are the schema. A row names the wire key (the dataclass
field), its kind, its decode default (no default: the key is
required) and the first schema version that carries it. The kinds:

* ``str``, ``int`` and ``bool`` decode strictly: a JSON string, a JSON
  integer (not ``true``, not ``1.7``), ``true``/``false``;
* finite ``float`` decodes through ``float()`` and encodes only when
  finite;
* a nested record, a tuple of a kind, or an optional kind (``null``).

A value of the wrong kind, or a missing required key, is a
:class:`~repro.errors.WireError` ``bad-request`` naming the record and
the field. The six request/response types keep ``to_dict``/``from_dict``
as one-line calls into the codec; :class:`StatsSnapshot` (its v1 form is
the flat report) and ``FeedbackApplied.scales`` (pairs written as
``{confidence, scale}`` objects) add a few lines of their own to it.

Versioning policy:

* every top-level payload carries ``schema_version`` (currently
  :data:`SCHEMA_VERSION`);
* readers accept every version in :data:`SUPPORTED_SCHEMA_VERSIONS`,
  **reject** anything else (:class:`~repro.errors.WireError`, code
  ``"schema-version"``), and ignore fields newer than the declared
  version;
* writers can **down-convert**: :func:`encode` takes a ``version`` and
  emits exactly that version's shape. A newer field is dropped from a
  record the server sends, byte-identical to what a v1-era server
  wrote — so a v2 server answers a v1 client without the client
  noticing — and refused (``"schema-version"``) when set on a record
  the client sends, rather than silently dropped;
* readers **tolerate unknown fields** (ignored on decode), so additive
  evolution does not break deployed clients;
* a payload without ``schema_version`` is assumed current — friendlier
  to hand-written curl bodies.

A ``None`` field is left out of client-sent records and out of nested
records; a ``None`` scalar in a server-sent record is written as
``null``.

Version 2 adds the online-feedback surface: :class:`Observation` /
:class:`ObserveResponse` (the ``/v1/observe`` exchange, v2-only in both
directions), an optional ``tenant`` on requests, an optional
``feedback`` annotation on responses whose intervals were conformally
corrected, and the typed :class:`StatsSnapshot` whose v2 wire form
carries ``admission``, ``scheduler`` and ``feedback`` sections alongside
the v1 report keys.

Serialization refuses NaN/inf (``allow_nan=False``): a variance-0 point
mass serializes as ``std == 0`` with degenerate interval bounds, never
as a non-finite JSON extension token.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import call, itemgetter
from typing import Any, Callable, NamedTuple

from ..caching import CacheStats
from ..core.predictor import Variant
from ..errors import PredictionError, WireError, error_code
from ..feedback.recalibrator import DEFAULT_TENANT, FeedbackStats, TenantFeedback
from ..service.service import QueryFailure, ServiceReport, ServiceStats

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "MAX_MPL",
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
    "encode",
    "decode",
    "check_schema_version",
    "check_emit_version",
    "error_body",
]

#: The current wire schema version. Bump on any incompatible change.
SCHEMA_VERSION = 2

#: Versions this checkout can read and write. v1 is the pre-feedback
#: schema; v2 adds observations, tenants, and sectioned stats.
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

#: The highest multiprogramming level a request or observation may name.
#: Eight times the largest level the repo models (8, ``bench_concurrency``):
#: the interference model is linear in the neighbour count, so far larger
#: levels only produce huge intervals (``2**70`` gave highs of ~2.7e38),
#: and each distinct level keeps one loaded predictor for the life of the
#: service, so the bound also bounds that cache.
MAX_MPL = 64


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
    if not isinstance(record, dict):
        raise WireError(f"expected a JSON object, got {_shown(record)}")
    return check_emit_version(record.get("schema_version", SCHEMA_VERSION))


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


def _finite(value: float, what: str = "value") -> float:
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
        _validate_fanout(
            self.variants, self.mpls, self.confidences, "PredictRequest.mpls"
        )
        _validate_tenant(self.tenant)
        _validate_scheduling(self.deadline_ms, self.priority)

    def to_dict(self, version: int = SCHEMA_VERSION) -> dict:
        """Wire form; omitted fan-out fields stay absent (server defaults)."""
        return encode(self, version)

    @classmethod
    def from_dict(cls, record: dict) -> "PredictRequest":
        """Decode, tolerating unknown fields, rejecting foreign versions."""
        return decode(cls, record)


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
        _validate_fanout(
            self.variants, self.mpls, self.confidences, "BatchRequest.mpls"
        )
        _validate_tenant(self.tenant)
        _validate_scheduling(self.deadline_ms, self.priority)

    def to_dict(self, version: int = SCHEMA_VERSION) -> dict:
        """Wire form; omitted fan-out fields stay absent (server defaults)."""
        return encode(self, version)

    @classmethod
    def from_dict(cls, record: dict) -> "BatchRequest":
        """Decode, tolerating unknown fields, rejecting foreign versions."""
        return decode(cls, record)


def _validate_fanout(variants, mpls, confidences, mpl_field="mpls") -> None:
    """Reject an invalid requested fan-out as a payload error.

    Raising :class:`WireError` here (not the engine's PredictionError /
    SessionError deeper down) is what keeps the HTTP contract honest:
    a client sending an unknown variant or ``mpl: 0`` gets a 400
    ``bad-request``, not a 422 internal-looking failure. ``mpl_field``
    names the levels' field in the message.
    """
    if variants is not None:
        try:
            for name in variants:
                Variant.from_name(name)
        except PredictionError as error:
            raise WireError(str(error)) from None
    if mpls is not None and any(not 1 <= mpl <= MAX_MPL for mpl in mpls):
        raise WireError(
            f"{mpl_field}: multiprogramming levels must lie in [1, {MAX_MPL}]"
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


# ---------------------------------------------------------------------------
# responses


@dataclass(frozen=True)
class IntervalPayload:
    """One central confidence interval, clamped to nonnegative times."""

    confidence: float
    low: float
    high: float


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
        return encode(self, version)

    @classmethod
    def from_dict(cls, record: dict) -> "PredictResponse":
        """Decode, tolerating unknown fields, rejecting foreign versions."""
        return decode(cls, record)


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
        return encode(self, version)

    @classmethod
    def from_dict(cls, record: dict) -> "BatchResponse":
        """Decode, tolerating unknown fields, rejecting foreign versions."""
        return decode(cls, record)


# ---------------------------------------------------------------------------
# v2: observations and the sectioned stats snapshot


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
        _validate_fanout((self.variant,), (self.mpl,), None, "Observation.mpl")

    def to_dict(self, version: int = SCHEMA_VERSION) -> dict:
        """Wire form (v2-only — v1 has no observation vocabulary)."""
        return encode(self, version)

    @classmethod
    def from_dict(cls, record: dict) -> "Observation":
        """Decode, tolerating unknown fields, rejecting foreign versions."""
        return decode(cls, record)


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
        return encode(self, version)

    @classmethod
    def from_dict(cls, record: dict) -> "ObserveResponse":
        """Decode, tolerating unknown fields, rejecting foreign versions."""
        return decode(cls, record)


@dataclass(frozen=True)
class AdmissionStats:
    """The admission layer's counters, as a stats section."""

    capacity: int
    in_flight: int
    admitted_total: int
    refused_total: int


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
        return encode(self, version)

    @classmethod
    def from_dict(cls, record: dict) -> "StatsSnapshot":
        """Decode either version; v1 records yield section-less snapshots."""
        return decode(cls, record)


# ---------------------------------------------------------------------------
# the codec: one field table per record, one encoder, one decoder


def encode(record, version: int = SCHEMA_VERSION) -> dict:
    """The wire dict of ``record`` (any wire record type) at ``version``."""
    return _TABLES[type(record)].encode(record, version)


def decode(cls: type, record: dict):
    """Rebuild a ``cls`` record from its wire dict; WireError on bad input."""
    return _TABLES[cls].decode(record)


class _Kind(NamedTuple):
    """How one field's values cross the wire.

    ``decode`` maps a JSON value to the field's value and ``encode`` the
    field's value (at a schema version) to a JSON value; both raise on
    a value of the wrong kind. ``nested`` marks a record kind and
    ``optional`` a kind that admits ``None``.
    """

    decode: Callable[[Any], Any]
    encode: Callable[[Any, int], Any]
    nested: bool = False
    optional: bool = False


#: The decode default of a required key. Every kind refuses it, so a
#: missing required key fails like a value of the wrong kind.
_REQUIRED = object()


class _Field(NamedTuple):
    """One row of a field table."""

    key: str
    kind: _Kind
    default: Any = _REQUIRED  # a wire value, decoded like a present one
    since: int = 1
    derived: bool = False  # a read-only property: encoded, never decoded


class _Table(NamedTuple):
    fields: tuple[_Field, ...]
    encode: Callable[[Any, int], dict]
    decode: Callable[[Any], Any]


#: Every wire record type's table, by type.
_TABLES: dict[type, _Table] = {}

#: What decoding or encoding a malformed value raises: the kinds' own
#: WireErrors, the builtin converters' errors, ``.get`` on a non-object.
_FAILURES = (
    WireError, AttributeError, LookupError, OverflowError, TypeError, ValueError,
)


def _shown(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _text(value):
    if value.__class__ is str:
        return value
    raise WireError(f"expected a string, got {_shown(value)}")


def _integer(value):
    if value.__class__ is int:
        return value
    raise WireError(f"expected an integer, got {_shown(value)}")


def _boolean(value):
    if value.__class__ is bool:
        return value
    raise WireError(f"expected true or false, got {_shown(value)}")


def _array(value):
    if value.__class__ is list or value.__class__ is tuple:
        return value
    raise WireError(f"expected a list, got {_shown(value)}")


def _scalar(decode, encode) -> _Kind:
    return _Kind(decode, lambda value, version: encode(value))


_STR = _scalar(_text, str)
_INT = _scalar(_integer, int)
_BOOL = _scalar(_boolean, bool)
_FLOAT = _scalar(float, _finite)


def _tuple(kind: _Kind) -> _Kind:
    convert, emit = kind.decode, kind.encode
    return _Kind(
        lambda value: tuple(map(convert, _array(value))),
        lambda value, version: [emit(item, version) for item in value],
    )


def _optional(kind: _Kind) -> _Kind:
    convert = kind.decode
    return _Kind(
        lambda value: None if value is None else convert(value),
        kind.encode,
        kind.nested,
        optional=True,
    )


def _table(
    cls: type,
    *fields: _Field,
    versioned: bool = False,
    client: bool = False,
    since: int = 1,
) -> _Kind:
    """Register ``cls``'s field table; returns its kind, for nesting.

    ``versioned`` records carry ``schema_version``; ``client`` marks a
    record the client sends; ``since`` is the first version carrying
    the record at all. Decoding builds the dataclass positionally, so
    the non-derived rows are its fields in order, newer rows last (a
    test pins this); a row missing from an older version's decode
    takes the dataclass default.
    """
    name = cls.__name__

    def encode_record(record, version: int) -> dict:
        out = {}
        if versioned:
            out["schema_version"] = check_emit_version(version)
        if version < since:
            raise WireError(
                f"{name} records need schema_version >= {since}",
                code="schema-version",
            )
        for field in fields:
            value = getattr(record, field.key)
            if field.since > version:
                if client and value is not None:
                    raise WireError(
                        f"{name}.{field.key} needs schema_version >= "
                        f"{field.since}; drop it or raise the wire version",
                        code="schema-version",
                    )
                continue
            if value is None and field.kind.optional:
                if not (client or field.kind.nested):
                    out[field.key] = None
                continue
            try:
                out[field.key] = field.kind.encode(value, version)
            except _FAILURES as error:
                raise _failure(name, field.key, error) from None
        return out

    # One decoder per version, over the rows that version reads. A nested
    # record without schema_version of its own is read at the current
    # version; its versioned parent gates it.
    readers = {
        version: _reader(cls, [
            field for field in fields
            if not field.derived and field.since <= version
        ])
        for version in SUPPORTED_SCHEMA_VERSIONS
        if version >= since
    }

    if versioned:
        def decode_record(record):
            version = check_schema_version(record)
            if version < since:
                raise WireError(
                    f"{name} records need schema_version >= {since}",
                    code="schema-version",
                )
            return readers[version](record)
    else:
        decode_record = readers[SCHEMA_VERSION]
    _TABLES[cls] = _Table(fields, encode_record, decode_record)
    return _Kind(decode_record, encode_record, nested=True)


def _reader(cls: type, fields: list[_Field]) -> Callable[[Any], Any]:
    """The decoder building ``cls`` (positionally) from ``fields``' rows."""
    name = cls.__name__
    keys, converters, defaults = zip(*(
        (field.key, field.kind.decode, field.default) for field in fields
    ))
    if len(keys) > 1:
        pick = itemgetter(*keys)  # every key's value, KeyError if one is absent
    else:
        (key,) = keys

        def pick(record):
            return (record[key],)

    def decode(record):
        try:
            try:
                values = pick(record)
            except KeyError:  # an absent key: read it as its default
                values = map(record.get, keys, defaults)
            return cls(*map(call, converters, values))
        except _FAILURES as error:
            rows = zip(keys, converters, defaults)
            raise _decode_error(name, rows, record, error) from None

    return decode


def _failure(name: str, key: str, error: BaseException) -> WireError:
    code = error.code if isinstance(error, WireError) else "bad-request"
    return WireError(f"bad {name}.{key}: {error}", code=code)


def _decode_error(name: str, rows, record, error: BaseException) -> WireError:
    """Name the record and field a failed decode tripped on.

    Runs only after a failure: it replays the rows in order, so the
    first one that fails again is the one that failed.
    """
    if not isinstance(record, dict):
        return WireError(f"{name} must be a JSON object, got {_shown(record)}")
    for key, convert, default in rows:
        value = record.get(key, default)
        if value is _REQUIRED:
            return WireError(f"{name} needs {key!r}")
        try:
            convert(value)
        except _FAILURES as failed:
            return _failure(name, key, failed)
    # Every row converts: the dataclass's own validation refused it.
    if isinstance(error, WireError):
        return error
    return WireError(f"bad {name}: {error}")


# FeedbackApplied.scales holds (confidence, scale) pairs; the wire writes
# each as a {"confidence", "scale"} object, with a null scale for a level
# served its static interval.
def _decode_scales(value) -> tuple:
    return tuple(
        (
            float(item["confidence"]),
            None if item.get("scale") is None else float(item["scale"]),
        )
        for item in _array(value)
    )


def _encode_scales(scales, version: int) -> list:
    return [
        {
            "confidence": _finite(confidence),
            "scale": None if scale is None else _finite(scale),
        }
        for confidence, scale in scales
    ]


_INTERVAL = _table(
    IntervalPayload,
    _Field("confidence", _FLOAT),
    _Field("low", _FLOAT),
    _Field("high", _FLOAT),
)
_RESULT = _table(
    ResultPayload,
    _Field("variant", _STR),
    _Field("mpl", _INT),
    _Field("mean", _FLOAT),
    _Field("variance", _FLOAT),
    _Field("std", _FLOAT),
    _Field("intervals", _tuple(_INTERVAL), []),
)
_FEEDBACK_APPLIED = _table(
    FeedbackApplied,
    _Field("tenant", _STR, DEFAULT_TENANT),
    _Field("observations", _INT, 0),
    _Field("scales", _Kind(_decode_scales, _encode_scales), []),
)
_FAILURE = _table(
    QueryFailure,
    _Field("index", _INT),
    _Field("sql", _optional(_STR), None),
    _Field("error", _STR, ""),
    _Field("code", _STR, "internal"),
)
_SERVICE_STATS = _table(
    ServiceStats,
    _Field("queries_served", _INT, 0),
    _Field("queries_failed", _INT, 0),
    _Field("plans_built", _INT, 0),
    _Field("prepares_run", _INT, 0),
    _Field("prepare_cache_hits", _INT, 0),
    _Field("assemblies", _INT, 0),
    _Field("prepare_hit_rate", _optional(_FLOAT), derived=True),
)
_CACHE_STATS = _table(
    CacheStats,
    _Field("hits", _INT, 0),
    _Field("misses", _INT, 0),
    _Field("evictions", _INT, 0),
    _Field("oversized", _INT, 0),
    _Field("hit_rate", _optional(_FLOAT), derived=True),
)
_REPORT = _table(
    ServiceReport,
    _Field("stats", _SERVICE_STATS, {}),
    _Field("prepared_cache", _CACHE_STATS, {}),
    _Field("prepared_entries", _INT, 0),
    _Field("sampling_cache", _CACHE_STATS, {}),
    _Field("sampling_entries", _INT, 0),
    _Field("sampling_bytes_used", _INT, 0),
    _Field("sampling_bytes_budget", _INT, 0),
    versioned=True,
)
_TENANT = _table(
    TenantFeedback,
    _Field("tenant", _STR, DEFAULT_TENANT),
    _Field("observations", _INT, 0),
    _Field("window_fill", _INT, 0),
    _Field("active", _BOOL, False),
    _Field("drifts_detected", _INT, 0),
    _Field("last_drift_observation", _optional(_INT), None),
    _Field("scale", _optional(_FLOAT), None),
)
_FEEDBACK_STATS = _table(
    FeedbackStats,
    _Field("observations", _INT, 0),
    _Field("drifts_detected", _INT, 0),
    _Field("tenants", _tuple(_TENANT), []),
)
_ADMISSION = _table(
    AdmissionStats,
    _Field("capacity", _INT, 0),
    _Field("in_flight", _INT, 0),
    _Field("admitted_total", _INT, 0),
    _Field("refused_total", _INT, 0),
)
_SCHEDULER = _table(
    SchedulerStats,
    _Field("policy", _STR, "fifo"),
    _Field("queue_depth", _INT, 0),
    _Field("queued_predicted_seconds", _FLOAT, 0.0),
    _Field("dispatched_total", _INT, 0),
    _Field("timeouts_total", _INT, 0),
)
_table(
    PredictRequest,
    _Field("sql", _STR),
    _Field("variants", _optional(_tuple(_STR)), None),
    _Field("mpls", _optional(_tuple(_INT)), None),
    _Field("confidences", _optional(_tuple(_FLOAT)), None),
    _Field("tenant", _optional(_STR), None, since=2),
    _Field("deadline_ms", _optional(_INT), None, since=2),
    _Field("priority", _optional(_INT), None, since=2),
    versioned=True,
    client=True,
)
_table(
    BatchRequest,
    _Field("queries", _tuple(_STR)),
    _Field("variants", _optional(_tuple(_STR)), None),
    _Field("mpls", _optional(_tuple(_INT)), None),
    _Field("confidences", _optional(_tuple(_FLOAT)), None),
    _Field("skip_failures", _BOOL, True),
    _Field("tenant", _optional(_STR), None, since=2),
    _Field("deadline_ms", _optional(_INT), None, since=2),
    _Field("priority", _optional(_INT), None, since=2),
    versioned=True,
    client=True,
)
_PREDICT_RESPONSE = _table(
    PredictResponse,
    _Field("sql", _STR, ""),
    _Field("results", _tuple(_RESULT), []),
    _Field("prepare_was_cached", _BOOL, False),
    _Field("feedback", _optional(_FEEDBACK_APPLIED), None, since=2),
    versioned=True,
)
_table(
    BatchResponse,
    _Field("responses", _tuple(_PREDICT_RESPONSE), []),
    _Field("failures", _tuple(_FAILURE), []),
    _Field("elapsed_seconds", _FLOAT, 0.0),
    _Field("stats", _SERVICE_STATS, {}),
    versioned=True,
)
_table(
    Observation,
    _Field("sql", _STR),
    _Field("actual_seconds", _FLOAT),
    _Field("tenant", _STR, DEFAULT_TENANT),
    _Field("predicted_mean", _optional(_FLOAT), None),
    _Field("predicted_std", _optional(_FLOAT), None),
    _Field("variant", _STR, "all"),
    _Field("mpl", _INT, 1),
    versioned=True,
    client=True,
    since=2,
)
_table(
    ObserveResponse,
    _Field("tenant", _STR, DEFAULT_TENANT),
    _Field("observations", _INT, 0),
    _Field("window_fill", _INT, 0),
    _Field("active", _BOOL, False),
    _Field("drift_detected", _BOOL, False),
    _Field("drifts_total", _INT, 0),
    _Field("scale", _optional(_FLOAT), None),
    versioned=True,
    since=2,
)
_SNAPSHOT = _table(
    StatsSnapshot,
    _Field("report", _REPORT),
    _Field("admission", _optional(_ADMISSION), None, since=2),
    _Field("feedback", _optional(_FEEDBACK_STATS), None, since=2),
    _Field("scheduler", _optional(_SCHEDULER), None, since=2),
    versioned=True,
)


# A snapshot's wire form puts the report's keys at the top level beside
# the sections, so its v1 form is the flat report a pre-feedback server
# wrote.
def _encode_snapshot(snapshot: StatsSnapshot, version: int) -> dict:
    record = _SNAPSHOT.encode(snapshot, version)
    record.update(record.pop("report"))
    return record


def _decode_snapshot(record: dict) -> StatsSnapshot:
    check_schema_version(record)  # a JSON object, before it is spread
    return _SNAPSHOT.decode({**record, "report": record})


_TABLES[StatsSnapshot] = _TABLES[StatsSnapshot]._replace(
    encode=_encode_snapshot, decode=_decode_snapshot
)
