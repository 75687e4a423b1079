"""Replay outcomes: latency/throughput/error summaries + calibration.

A :class:`ReplayReport` condenses one :class:`~repro.replay.runner.ReplayRun`
into the numbers a load study quotes: achieved throughput, the latency
distribution (p50/p95/p99), error and 503 rates, the prepared-cache
hit-rate trajectory over the run, and — the paper's actual claim — how
prediction uncertainty behaves *under load*:

* :func:`calibration_under_load` re-serves the replayed queries on an
  idle session, executes each distinct query once for (simulated)
  ground truth, and reports the fraction of actual times covered by the
  predicted confidence intervals both under load and idle;
* ``matches_idle`` pins the stronger property the in-process stack
  actually has: predictions served under concurrent load are
  **bitwise identical** to idle ones — load moves latency, never the
  predicted distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api.session import Session
from ..api.wire import PredictRequest
from ..errors import ReproError
from ..executor import Executor
from .runner import ReplayRun

__all__ = [
    "CalibrationSummary",
    "LatencySummary",
    "ReplayReport",
    "TenantSummary",
    "calibration_under_load",
]


@dataclass(frozen=True)
class LatencySummary:
    """Request-latency distribution of one replay (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def from_latencies(cls, latencies) -> "LatencySummary":
        """Summarize a sequence of per-request latencies."""
        values = np.asarray(list(latencies), dtype=float)
        if values.size == 0:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0)
        return cls(
            count=int(values.size),
            mean=float(values.mean()),
            p50=float(np.percentile(values, 50)),
            p95=float(np.percentile(values, 95)),
            p99=float(np.percentile(values, 99)),
            max=float(values.max()),
        )

    def to_dict(self) -> dict:
        """JSON-ready mapping."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


@dataclass(frozen=True)
class TenantSummary:
    """One tenant's slice of a replay (see ``docs/scheduling.md``).

    Built only when the schedule stamps tenants on its requests —
    the per-tenant view of what a scheduling policy did to each
    tenant's throughput, tail latency, and deadline behavior.
    """

    tenant: str
    requests_total: int
    requests_succeeded: int
    requests_failed: int
    throughput_qps: float
    p99_seconds: float
    deadline_requests: int
    deadline_misses: int

    @property
    def error_rate(self) -> float:
        """Failed requests per issued request for this tenant."""
        return self.requests_failed / max(self.requests_total, 1)

    @property
    def deadline_miss_rate(self) -> float:
        """Missed deadlines per deadline-carrying request."""
        return self.deadline_misses / max(self.deadline_requests, 1)

    def to_dict(self) -> dict:
        """JSON-ready mapping."""
        return {
            "tenant": self.tenant,
            "requests_total": self.requests_total,
            "requests_succeeded": self.requests_succeeded,
            "requests_failed": self.requests_failed,
            "throughput_qps": self.throughput_qps,
            "p99_seconds": self.p99_seconds,
            "error_rate": self.error_rate,
            "deadline_requests": self.deadline_requests,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": self.deadline_miss_rate,
        }


@dataclass(frozen=True)
class CalibrationSummary:
    """Interval coverage of (simulated) actual times, loaded vs idle."""

    confidence: float
    #: fraction of actuals inside the interval predicted *under load*
    coverage_under_load: float
    #: the same fraction for predictions served on an idle session
    coverage_idle: float
    #: True when every under-load prediction is bitwise equal to idle
    matches_idle: bool
    samples: int

    def to_dict(self) -> dict:
        """JSON-ready mapping."""
        return {
            "confidence": self.confidence,
            "coverage_under_load": self.coverage_under_load,
            "coverage_idle": self.coverage_idle,
            "matches_idle": self.matches_idle,
            "samples": self.samples,
        }


@dataclass(frozen=True)
class ReplayReport:
    """The quotable summary of one replay run."""

    target: str
    mode: str
    schedule_fingerprint: str
    requests_total: int
    requests_succeeded: int
    requests_failed: int
    error_counts: dict
    wall_seconds: float
    throughput_qps: float
    latency: LatencySummary
    max_in_flight: int
    #: ((completed requests, cumulative prepared-cache hit rate), ...)
    cache_trajectory: tuple
    calibration: CalibrationSummary | None = None
    #: requests that carried a latency budget (deadline_ms on the schedule)
    deadline_requests: int = 0
    #: deadline-carrying requests that finished late or failed outright
    deadline_misses: int = 0
    #: per-tenant breakdowns, present when the schedule stamps tenants
    tenants: tuple = ()

    @classmethod
    def from_run(
        cls, run: ReplayRun, calibration: CalibrationSummary | None = None
    ) -> "ReplayReport":
        """Condense a finished :class:`ReplayRun`."""
        succeeded = run.succeeded
        wall = max(run.wall_seconds, 1e-12)
        deadline_requests, deadline_misses = _deadline_outcomes(run)
        return cls(
            target=run.target_description,
            mode=run.schedule.mode,
            schedule_fingerprint=run.schedule.fingerprint(),
            requests_total=len(run.observations),
            requests_succeeded=len(succeeded),
            requests_failed=len(run.failed),
            error_counts=run.error_counts(),
            wall_seconds=run.wall_seconds,
            throughput_qps=len(succeeded) / wall,
            latency=LatencySummary.from_latencies(
                o.latency_seconds for o in succeeded
            ),
            max_in_flight=run.max_in_flight,
            cache_trajectory=_cache_trajectory(run),
            calibration=calibration,
            deadline_requests=deadline_requests,
            deadline_misses=deadline_misses,
            tenants=_tenant_summaries(run, wall),
        )

    @property
    def error_rate(self) -> float:
        """Failed requests per issued request."""
        return self.requests_failed / max(self.requests_total, 1)

    @property
    def deadline_miss_rate(self) -> float:
        """Missed deadlines per deadline-carrying request.

        A request misses when its observed latency exceeds its
        ``deadline_ms`` budget *or* it failed outright (a refusal never
        answers within any budget). Zero when the schedule carried no
        deadlines.
        """
        return self.deadline_misses / max(self.deadline_requests, 1)

    def to_dict(self) -> dict:
        """JSON-ready mapping (the CLI's ``--json`` output)."""
        return {
            "target": self.target,
            "mode": self.mode,
            "schedule_fingerprint": self.schedule_fingerprint,
            "requests_total": self.requests_total,
            "requests_succeeded": self.requests_succeeded,
            "requests_failed": self.requests_failed,
            "error_counts": dict(self.error_counts),
            "wall_seconds": self.wall_seconds,
            "throughput_qps": self.throughput_qps,
            "latency": self.latency.to_dict(),
            "max_in_flight": self.max_in_flight,
            "cache_trajectory": [list(point) for point in self.cache_trajectory],
            "calibration": (
                self.calibration.to_dict() if self.calibration else None
            ),
            "deadline_requests": self.deadline_requests,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": self.deadline_miss_rate,
            "tenants": [tenant.to_dict() for tenant in self.tenants],
        }

    def render(self) -> str:
        """The multi-line human-readable report the CLI prints."""
        lines = [
            f"target         : {self.target} ({self.mode}-loop)",
            f"schedule       : fingerprint {self.schedule_fingerprint}",
            f"requests       : {self.requests_succeeded}/{self.requests_total} ok"
            + (
                f", {self.requests_failed} failed {self._errors_text()}"
                if self.requests_failed
                else ""
            ),
            f"wall time      : {self.wall_seconds:.3f} s "
            f"({self.throughput_qps:.1f} q/s, "
            f"max {self.max_in_flight} in flight)",
            f"latency        : mean {self.latency.mean * 1e3:.1f} ms, "
            f"p50 {self.latency.p50 * 1e3:.1f} ms, "
            f"p95 {self.latency.p95 * 1e3:.1f} ms, "
            f"p99 {self.latency.p99 * 1e3:.1f} ms",
        ]
        if self.cache_trajectory:
            points = ", ".join(
                f"{count}:{'--' if rate is None else f'{rate:.0%}'}"
                for count, rate in self.cache_trajectory
            )
            lines.append(f"cache hit rate : {points}  (completed:cumulative)")
        if self.deadline_requests:
            lines.append(
                f"deadlines      : {self.deadline_misses}/"
                f"{self.deadline_requests} missed "
                f"({self.deadline_miss_rate:.0%})"
            )
        for tenant in self.tenants:
            lines.append(
                f"tenant {tenant.tenant:<8}: "
                f"{tenant.requests_succeeded}/{tenant.requests_total} ok, "
                f"{tenant.throughput_qps:.1f} q/s, "
                f"p99 {tenant.p99_seconds * 1e3:.1f} ms, "
                f"errors {tenant.error_rate:.0%}"
                + (
                    f", deadline misses {tenant.deadline_miss_rate:.0%}"
                    if tenant.deadline_requests
                    else ""
                )
            )
        if self.calibration is not None:
            c = self.calibration
            lines.append(
                f"calibration    : {c.confidence:.0%} interval covers "
                f"{c.coverage_under_load:.0%} under load / "
                f"{c.coverage_idle:.0%} idle over {c.samples} queries; "
                f"predictions {'bitwise equal to' if c.matches_idle else 'DIFFER from'} idle"
            )
        return "\n".join(lines)

    def _errors_text(self) -> str:
        counts = ", ".join(
            f"{code} x{count}" for code, count in sorted(self.error_counts.items())
        )
        return f"({counts})" if counts else ""


def _missed(observation, request) -> bool:
    """Whether a deadline-carrying request blew its latency budget."""
    if not observation.ok:
        return True
    return observation.latency_seconds * 1000.0 > request.deadline_ms


def _deadline_outcomes(run: ReplayRun) -> tuple[int, int]:
    """``(deadline_requests, deadline_misses)`` over the whole run."""
    by_index = {request.index: request for request in run.schedule.requests}
    requests = misses = 0
    for observation in run.observations:
        request = by_index.get(observation.index)
        if request is None or request.deadline_ms is None:
            continue
        requests += 1
        if _missed(observation, request):
            misses += 1
    return requests, misses


def _tenant_summaries(run: ReplayRun, wall: float) -> tuple:
    """Per-tenant breakdowns, first-seen schedule order; () without tenants."""
    by_index = {request.index: request for request in run.schedule.requests}
    order: list[str] = []
    grouped: dict[str, list] = {}
    for observation in run.observations:
        request = by_index.get(observation.index)
        if request is None or request.tenant is None:
            continue
        if request.tenant not in grouped:
            order.append(request.tenant)
            grouped[request.tenant] = []
        grouped[request.tenant].append((observation, request))
    summaries = []
    for tenant in order:
        pairs = grouped[tenant]
        succeeded = [o for o, _ in pairs if o.ok]
        with_deadline = [
            (o, r) for o, r in pairs if r.deadline_ms is not None
        ]
        latencies = np.asarray(
            [o.latency_seconds for o in succeeded], dtype=float
        )
        summaries.append(
            TenantSummary(
                tenant=tenant,
                requests_total=len(pairs),
                requests_succeeded=len(succeeded),
                requests_failed=len(pairs) - len(succeeded),
                throughput_qps=len(succeeded) / wall,
                p99_seconds=(
                    float(np.percentile(latencies, 99))
                    if latencies.size
                    else 0.0
                ),
                deadline_requests=len(with_deadline),
                deadline_misses=sum(
                    1 for o, r in with_deadline if _missed(o, r)
                ),
            )
        )
    return tuple(summaries)


def _cache_trajectory(run: ReplayRun, points: int = 8) -> tuple:
    """Cumulative prepared-cache hit rate at ~``points`` checkpoints.

    Observations are taken in completion order (issue time + latency),
    so the trajectory shows the cache warming *as the replay
    experienced it*.
    """
    completed = sorted(
        run.succeeded, key=lambda o: o.issued_at + o.latency_seconds
    )
    if not completed:
        return ()
    hits = np.cumsum([1 if o.prepare_was_cached else 0 for o in completed])
    total = len(completed)
    checkpoints = sorted(
        {max(1, round(total * (i + 1) / points)) for i in range(points)}
    )
    return tuple(
        (int(n), float(hits[n - 1] / n)) for n in checkpoints
    )


def calibration_under_load(
    run: ReplayRun, session: Session, confidence: float = 0.9
) -> CalibrationSummary:
    """Compare interval coverage and bitwise stability against idle.

    ``session`` must serve the same configuration the replay targeted
    (for an in-process replay, the very session; for an HTTP replay, a
    local mirror built from the same :class:`~repro.api.SessionConfig`).
    Each distinct query is executed once on the session's database and
    (simulated) hardware for ground truth; coverage is the fraction of
    actual times inside the ``confidence`` interval of (a) the response
    observed under load and (b) a fresh idle re-serve of the same
    request.
    """
    if not 0.0 < confidence < 1.0:
        raise ReproError(
            f"confidence must lie in (0, 1), got {confidence}"
        )
    by_index = {request.index: request for request in run.schedule.requests}
    executor = Executor(session.database)
    actuals: dict[str, float] = {}
    covered_load = covered_idle = samples = 0
    matches_idle = True
    for observation in run.succeeded:
        request = by_index[observation.index]
        wire = PredictRequest(
            sql=request.sql,
            variants=request.variants,
            mpls=request.mpls,
            confidences=request.confidences,
        )
        idle_response = session.predict(wire)
        if idle_response.results != observation.response.results:
            matches_idle = False
        if request.sql not in actuals:
            executed = executor.execute(session.plan(request.sql))
            actuals[request.sql] = session.simulator.run_repeated(
                executed.counts
            )
        actual = actuals[request.sql]
        interval = _interval_at(observation.response, confidence)
        idle_interval = _interval_at(idle_response, confidence)
        if interval is None or idle_interval is None:
            continue
        samples += 1
        if interval.low <= actual <= interval.high:
            covered_load += 1
        if idle_interval.low <= actual <= idle_interval.high:
            covered_idle += 1
    return CalibrationSummary(
        confidence=confidence,
        coverage_under_load=covered_load / samples if samples else 0.0,
        coverage_idle=covered_idle / samples if samples else 0.0,
        matches_idle=matches_idle,
        samples=samples,
    )


def _interval_at(response, confidence: float):
    """The first result's interval at ``confidence``, or None."""
    if not response.results:
        return None
    for interval in response.results[0].intervals:
        if interval.confidence == confidence:
            return interval
    return None
