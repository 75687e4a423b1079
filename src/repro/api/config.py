"""The declarative session configuration.

One :class:`SessionConfig` describes everything a
:class:`~repro.api.session.Session` owns: the database source (TPC-H
generation parameters), the calibration profile (machine + seed +
repetitions), the selectivity-estimator backend chosen **by name**
("sampling" — the paper's Algorithm 1 — or "histogram", the
catalog-statistics alternative), both cache budgets, and the default
variant/multiprogramming/confidence fan-out applied to requests that do
not spell their own.

The config is itself a wire object: :meth:`to_dict`/:meth:`from_dict`
round-trip through JSON with unknown-field tolerance, so a serving
deployment can keep its predictor configuration in a plain JSON file.

:class:`ClientConfig` is the client-side twin: one declarative object
folding :class:`~repro.api.client.HttpClient`'s retry/backoff/observe
knobs, with the same JSON round-trip policy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

from ..core.predictor import Variant
from ..costfuncs.fitting import DEFAULT_GRID_W
from ..errors import FeedbackError, PredictionError, SessionError
from ..feedback import DEFAULT_TENANT, FeedbackConfig
from ..hardware import PROFILES
from ..sampling.engine import DEFAULT_ENGINE_BUDGET_BYTES
from ..scheduler import SCHEDULER_POLICIES

__all__ = ["ESTIMATOR_BACKENDS", "ClientConfig", "SessionConfig"]

#: The selectivity-estimator backends selectable by name.
ESTIMATOR_BACKENDS = ("sampling", "histogram")


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to build a predictor stack, declaratively."""

    # -- database source (TPC-H generation is deterministic and fast) --
    scale_factor: float = 0.02
    skew_z: float = 0.0
    db_seed: int = 0
    # -- calibration profile ------------------------------------------
    machine: str = "PC2"
    calibration_seed: int = 0
    calibration_repetitions: int = 10
    # -- estimator backend --------------------------------------------
    estimator: str = "sampling"
    sampling_ratio: float = 0.05
    num_copies: int = 2
    sampling_seed: int = 1
    use_gee: bool = False
    grid_w: int = DEFAULT_GRID_W
    # -- cache budgets ------------------------------------------------
    prepared_cache_size: int = 256
    sampling_engine_bytes: int = DEFAULT_ENGINE_BUDGET_BYTES
    # -- request defaults ---------------------------------------------
    default_variants: tuple[str, ...] = ("all",)
    default_mpls: tuple[int, ...] = (1,)
    default_confidences: tuple[float, ...] = (0.5, 0.9, 0.99)
    # -- online feedback (docs/feedback.md) ---------------------------
    feedback_window: int = 128
    feedback_min_observations: int = 20
    feedback_fast_window: int = 16
    feedback_drift_delta: float = 0.25
    feedback_drift_threshold: float = 12.0
    # -- uncertainty-aware scheduling (docs/scheduling.md) ------------
    scheduler_policy: str = "fifo"
    scheduler_slack: float = 1.645
    scheduler_default_deadline_ms: int = 1000
    scheduler_max_queue: int = 64
    scheduler_quantum_seconds: float = 0.05
    scheduler_queue_timeout_seconds: float = 30.0

    def __post_init__(self):
        if self.scale_factor <= 0:
            raise SessionError(
                f"scale_factor must be positive, got {self.scale_factor}"
            )
        if self.machine not in PROFILES:
            raise SessionError(
                f"unknown machine {self.machine!r}; "
                f"known profiles: {', '.join(sorted(PROFILES))}"
            )
        if self.calibration_repetitions < 2:
            raise SessionError(
                "calibration needs at least 2 repetitions for a variance, "
                f"got {self.calibration_repetitions}"
            )
        if self.estimator not in ESTIMATOR_BACKENDS:
            raise SessionError(
                f"unknown estimator backend {self.estimator!r}; "
                f"expected one of {', '.join(ESTIMATOR_BACKENDS)}"
            )
        if not 0.0 < self.sampling_ratio <= 1.0:
            raise SessionError(
                f"sampling_ratio must be in (0, 1], got {self.sampling_ratio}"
            )
        if not self.default_variants:
            raise SessionError("default_variants must name at least one variant")
        try:
            for name in self.default_variants:
                Variant.from_name(name)
        except PredictionError as error:
            raise SessionError(str(error)) from None
        if not self.default_mpls or any(mpl < 1 for mpl in self.default_mpls):
            raise SessionError(
                "default_mpls needs at least one level, all >= 1; "
                f"got {self.default_mpls!r}"
            )
        if not self.default_confidences or any(
            not 0.0 < c < 1.0 for c in self.default_confidences
        ):
            raise SessionError(
                "default_confidences must all lie in (0, 1); "
                f"got {self.default_confidences!r}"
            )
        try:
            self.feedback()
        except FeedbackError as error:
            raise SessionError(str(error)) from None
        if self.scheduler_policy not in SCHEDULER_POLICIES:
            raise SessionError(
                f"unknown scheduler policy {self.scheduler_policy!r}; "
                f"expected one of {', '.join(SCHEDULER_POLICIES)}"
            )
        if not (
            math.isfinite(self.scheduler_slack) and self.scheduler_slack >= 0
        ):
            raise SessionError(
                f"scheduler_slack must be >= 0, got {self.scheduler_slack}"
            )
        if self.scheduler_default_deadline_ms < 1:
            raise SessionError(
                "scheduler_default_deadline_ms must be >= 1, "
                f"got {self.scheduler_default_deadline_ms}"
            )
        if self.scheduler_max_queue < 1:
            raise SessionError(
                f"scheduler_max_queue must be >= 1, "
                f"got {self.scheduler_max_queue}"
            )
        if not (
            math.isfinite(self.scheduler_quantum_seconds)
            and self.scheduler_quantum_seconds > 0
        ):
            raise SessionError(
                "scheduler_quantum_seconds must be > 0, "
                f"got {self.scheduler_quantum_seconds}"
            )
        if not (
            math.isfinite(self.scheduler_queue_timeout_seconds)
            and self.scheduler_queue_timeout_seconds > 0
        ):
            raise SessionError(
                "scheduler_queue_timeout_seconds must be > 0, "
                f"got {self.scheduler_queue_timeout_seconds}"
            )

    def variants(self) -> tuple[Variant, ...]:
        """The default variants resolved to :class:`Variant` members."""
        return tuple(Variant.from_name(name) for name in self.default_variants)

    def feedback(self) -> FeedbackConfig:
        """The ``feedback_*`` fields as one :class:`FeedbackConfig`."""
        return FeedbackConfig(
            window=self.feedback_window,
            min_observations=self.feedback_min_observations,
            fast_window=self.feedback_fast_window,
            drift_delta=self.feedback_drift_delta,
            drift_threshold=self.feedback_drift_threshold,
        )

    def replace(self, **changes) -> "SessionConfig":
        """A copy with ``changes`` applied (dataclasses.replace wrapper)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """A JSON-ready mapping of every field."""
        record = asdict(self)
        for name in ("default_variants", "default_mpls", "default_confidences"):
            record[name] = list(record[name])
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "SessionConfig":
        """Rebuild from a mapping, ignoring unknown fields.

        Tolerating unknown keys keeps old servers able to read configs
        written by newer ones — the same policy as the wire schema.
        """
        if not isinstance(record, dict):
            raise SessionError(
                f"session config must be a mapping, got {type(record).__name__}"
            )
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for name, value in record.items():
            if name not in known:
                continue
            if name in ("default_variants", "default_mpls", "default_confidences"):
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)


@dataclass(frozen=True)
class ClientConfig:
    """Everything an :class:`~repro.api.client.HttpClient` needs, declaratively.

    Folds the client's retry/backoff knobs (grown one kwarg at a time)
    and the v2 behavior — which wire version to speak, and which tenant
    convenience observations are attributed to — into one JSON
    round-trippable object, mirroring :class:`SessionConfig`.
    """

    # -- transport ----------------------------------------------------
    timeout: float = 60.0
    # -- 503 retry policy (docs/api.md "Client") ----------------------
    retries_503: int = 0
    backoff_seconds: float = 0.05
    backoff_seed: int = 0
    retry_after_cap_seconds: float = 5.0
    # -- v2 behavior --------------------------------------------------
    wire_version: int = 2
    observe_tenant: str = DEFAULT_TENANT

    def __post_init__(self):
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise SessionError(f"timeout must be > 0, got {self.timeout}")
        if self.retries_503 < 0:
            raise SessionError(
                f"retries_503 must be >= 0, got {self.retries_503}"
            )
        if not (
            math.isfinite(self.backoff_seconds) and self.backoff_seconds > 0
        ):
            raise SessionError(
                f"backoff_seconds must be > 0, got {self.backoff_seconds}"
            )
        if not (
            math.isfinite(self.retry_after_cap_seconds)
            and self.retry_after_cap_seconds > 0
        ):
            raise SessionError(
                "retry_after_cap_seconds must be > 0, "
                f"got {self.retry_after_cap_seconds}"
            )
        # Local import: wire pulls in the service layer, which config
        # otherwise does not need.
        from .wire import SUPPORTED_SCHEMA_VERSIONS

        if self.wire_version not in SUPPORTED_SCHEMA_VERSIONS:
            supported = ", ".join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)
            raise SessionError(
                f"wire_version must be one of {supported}, "
                f"got {self.wire_version!r}"
            )
        if not isinstance(self.observe_tenant, str) or not self.observe_tenant:
            raise SessionError(
                "observe_tenant must be a non-empty string, "
                f"got {self.observe_tenant!r}"
            )

    def replace(self, **changes) -> "ClientConfig":
        """A copy with ``changes`` applied (dataclasses.replace wrapper)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """A JSON-ready mapping of every field."""
        return asdict(self)

    @classmethod
    def from_dict(cls, record: dict) -> "ClientConfig":
        """Rebuild from a mapping, ignoring unknown fields."""
        if not isinstance(record, dict):
            raise SessionError(
                f"client config must be a mapping, got {type(record).__name__}"
            )
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in record.items() if k in known})
