"""Admission policies: who gets a prediction slot, who gets a 503.

An :class:`AdmissionPolicy` decides, per request, whether the worker
takes on more prediction work. The :class:`AdmissionGate` wire app
applies one policy at the public edge of a worker's stack: metered
POSTs claim a slot before their body is read and release it before the
response is written; health and stats probes are never metered, so the
server stays observable at capacity.

Refusals are immediate 503s (code ``"over-capacity"``) with a
``Retry-After`` header derived from the policy's current queue depth —
shedding load beats queuing without bound, and the header tells
well-behaved clients (:class:`repro.api.client.HttpClient` honors it)
when it is worth coming back.

:class:`SchedulingAdmission` is the uncertainty-aware alternative
(``docs/scheduling.md``): instead of refusing at capacity it *defers*
requests into a :class:`~repro.scheduler.queue.PredictedCostQueue` and
dispatches them under a pluggable
:class:`~repro.scheduler.policy.SchedulingPolicy`, refusing only when
the queue itself is full or a queued request times out. Its
``Retry-After`` comes from the queue's *predicted drain time* — the sum
of queued predicted means over capacity — rather than a depth heuristic.
:func:`build_admission` picks the policy from the session's config;
``scheduler_policy="fifo"`` keeps the original :class:`BoundedInFlight`
object so the default deployment stays bitwise-identical.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable

from ..api.wire import AdmissionStats, SchedulerStats, encode
from ..errors import WireError
from ..feedback import DEFAULT_TENANT
from ..scheduler import (
    PredictedCostQueue,
    QueueEntry,
    SchedulingPolicy,
    make_policy,
)
from .app import METERED_PATHS, WireApp, split_path
from .transport import WireResponse, over_capacity_response

__all__ = [
    "DEFAULT_MAX_IN_FLIGHT",
    "AdmissionGate",
    "AdmissionPolicy",
    "BoundedInFlight",
    "SchedulingAdmission",
    "build_admission",
]

DEFAULT_MAX_IN_FLIGHT = 8

#: Cap on the scheduling Retry-After hint — beyond this a refusal means
#: "the queue is deeply backed up", and the exact drain estimate stops
#: being actionable (matches the client's own 5 s honor cap).
_RETRY_AFTER_CAP_SECONDS = 5


class AdmissionPolicy:
    """Decides whether one more prediction may enter the worker."""

    #: Nominal concurrent capacity, for health reporting and refusals.
    capacity: int = 0

    #: True when the policy needs the parsed request body to decide —
    #: the gate then reads the body *before* admission and hands the
    #: policy the record (see :class:`SchedulingAdmission`).
    needs_body: bool = False

    def admit(self) -> bool:
        """Try to claim one in-flight slot; False means refuse with 503."""
        raise NotImplementedError

    def release(self) -> None:
        """Give back a slot claimed by :meth:`admit`."""
        raise NotImplementedError

    def in_flight(self) -> int:
        """How many admitted requests are currently in progress."""
        raise NotImplementedError

    def retry_after_seconds(self) -> int:
        """The backoff hint sent with a refusal, from current queue depth.

        At least 1 second; grows with the in-flight backlog relative to
        capacity, so a saturated-but-draining server suggests a shorter
        wait than one buried several capacities deep.
        """
        return max(1, math.ceil(self.in_flight() / max(self.capacity, 1)))

    def stats(self) -> AdmissionStats:
        """This policy's counters as a typed stats section.

        Policies without lifetime counters report zeros for the totals;
        :class:`BoundedInFlight` overrides with the real ones.
        """
        return AdmissionStats(
            capacity=self.capacity,
            in_flight=self.in_flight(),
            admitted_total=0,
            refused_total=0,
        )


class BoundedInFlight(AdmissionPolicy):
    """At most ``max_in_flight`` concurrent predictions; refuse the rest.

    The pre-refactor server's semaphore policy, unchanged: admission is
    non-blocking, so an over-capacity request costs one failed acquire,
    not a queue slot.
    """

    def __init__(self, max_in_flight: int = DEFAULT_MAX_IN_FLIGHT):
        if max_in_flight < 1:
            raise WireError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        self.capacity = max_in_flight
        self._slots = threading.BoundedSemaphore(max_in_flight)
        self._count_lock = threading.Lock()
        self._in_flight = 0
        self._admitted_total = 0
        self._refused_total = 0

    def admit(self) -> bool:
        """Claim a semaphore slot without blocking."""
        if not self._slots.acquire(blocking=False):
            with self._count_lock:
                self._refused_total += 1
            return False
        with self._count_lock:
            self._in_flight += 1
            self._admitted_total += 1
        return True

    def release(self) -> None:
        """Return a slot; raises if released more often than admitted."""
        with self._count_lock:
            self._in_flight -= 1
        self._slots.release()

    def in_flight(self) -> int:
        """The number of currently-admitted predictions."""
        with self._count_lock:
            return self._in_flight

    def stats(self) -> AdmissionStats:
        """One consistent snapshot of every counter."""
        with self._count_lock:
            return AdmissionStats(
                capacity=self.capacity,
                in_flight=self._in_flight,
                admitted_total=self._admitted_total,
                refused_total=self._refused_total,
            )


class SchedulingAdmission(AdmissionPolicy):
    """Defer over-capacity requests into a predicted-cost queue.

    At capacity a metered request is *queued*, annotated with the
    engine's predicted ``(mean, std)`` for its SQL (one cached-prepare
    prediction), and parked until a release dispatches it under the
    configured :class:`~repro.scheduler.policy.SchedulingPolicy`.
    Refusals happen only when the queue is full (``max_queue``) or a
    queued request waits past ``queue_timeout_seconds`` — so under a
    scheduling policy the 503 means "genuinely overloaded", not "one
    request past the concurrency cap".

    Lock discipline: one lock guards the in-flight count, the queue's
    structure, and the policy's state. Cost estimation (a prediction
    through the engine) and the parked ``event.wait`` both happen
    *outside* it.
    """

    needs_body = True

    def __init__(
        self,
        policy: SchedulingPolicy,
        estimator: Callable[[str], tuple[float, float]] | None = None,
        *,
        capacity: int = DEFAULT_MAX_IN_FLIGHT,
        max_queue: int = 64,
        queue_timeout_seconds: float = 30.0,
        default_deadline_ms: int = 1000,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise WireError(f"max_in_flight must be >= 1, got {capacity}")
        if max_queue < 1:
            raise WireError(f"max_queue must be >= 1, got {max_queue}")
        self.capacity = capacity
        self.scheduling_policy = policy
        self.queue = PredictedCostQueue(estimator)
        self._max_queue = max_queue
        self._queue_timeout_seconds = queue_timeout_seconds
        self._default_deadline_ms = default_deadline_ms
        self._clock = clock
        self._lock = threading.Lock()
        self._in_flight = 0
        self._admitted_total = 0
        self._refused_total = 0
        self._dispatched_total = 0
        self._timeouts_total = 0

    # -- ticket extraction -------------------------------------------------
    def _ticket_sql(self, path: str, record: dict) -> str | None:
        """The SQL to estimate for this request, or None (zero cost).

        Batches are charged by their first query — the same first-query
        affinity the router uses — and malformed shapes yield None so
        the inner app, not admission, produces the structured 400.
        """
        bare, _ = split_path(path)
        if bare == "/v1/predict":
            sql = record.get("sql")
            return sql if isinstance(sql, str) else None
        if bare == "/v1/predict-batch":
            queries = record.get("queries")
            if isinstance(queries, (list, tuple)) and queries:
                return queries[0] if isinstance(queries[0], str) else None
        return None

    def _build_entry(self, path: str, record: dict) -> QueueEntry:
        """A queue entry for ``record`` — estimation runs outside the lock."""
        tenant = record.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            tenant = DEFAULT_TENANT
        deadline_ms = record.get("deadline_ms")
        if (
            not isinstance(deadline_ms, int)
            or isinstance(deadline_ms, bool)
            or deadline_ms < 1
        ):
            deadline_ms = self._default_deadline_ms
        priority = record.get("priority")
        if not isinstance(priority, int) or isinstance(priority, bool):
            priority = 0
        return QueueEntry(
            arrival_seconds=self._clock(),
            tenant=tenant,
            deadline_seconds=deadline_ms / 1000.0,
            priority=priority,
            estimate=self.queue.estimate(self._ticket_sql(path, record)),
        )

    # -- admission ---------------------------------------------------------
    def admit_record(self, path: str, record: dict) -> bool:
        """Admit, defer, or refuse one metered request with its body."""
        with self._lock:
            if self._in_flight < self.capacity and self.queue.depth() == 0:
                self._in_flight += 1
                self._admitted_total += 1
                return True
            if self.queue.depth() >= self._max_queue:
                self._refused_total += 1
                return False
        # Estimation (a real prediction through the engine) happens with
        # no admission lock held; conditions are re-checked afterwards.
        entry = self._build_entry(path, record)
        with self._lock:
            if self._in_flight < self.capacity and self.queue.depth() == 0:
                self._in_flight += 1
                self._admitted_total += 1
                return True
            if self.queue.depth() >= self._max_queue:
                self._refused_total += 1
                return False
            self.queue.push(entry)
        if entry.event.wait(self._queue_timeout_seconds):
            return True
        with self._lock:
            if entry.granted:
                # Lost the race: a dispatcher granted the slot while the
                # wait was timing out. The slot is ours.
                return True
            self.queue.remove(entry, self.scheduling_policy)
            self._timeouts_total += 1
            self._refused_total += 1
        return False

    def admit(self) -> bool:
        """Body-less admission (a zero-cost, default-deadline ticket)."""
        return self.admit_record("/v1/predict", {})

    def release(self) -> None:
        """Return a slot, then dispatch queued work into free slots."""
        with self._lock:
            self._in_flight -= 1
            self._dispatch_locked()

    def _dispatch_locked(self) -> None:
        """Grant free slots to queued entries in policy order.

        Every caller holds ``self._lock`` (the ``_locked`` suffix is the
        contract), so the counter updates below are serialized.
        """
        while self._in_flight < self.capacity:
            entry = self.queue.pop_next(self.scheduling_policy)
            if entry is None:
                return
            self._in_flight += 1  # staticcheck: disable=lock-discipline — caller holds self._lock
            self._admitted_total += 1  # staticcheck: disable=lock-discipline — caller holds self._lock
            self._dispatched_total += 1  # staticcheck: disable=lock-discipline — caller holds self._lock
            entry.granted = True
            entry.event.set()

    # -- reporting ---------------------------------------------------------
    def in_flight(self) -> int:
        """The number of currently-admitted predictions."""
        with self._lock:
            return self._in_flight

    def retry_after_seconds(self) -> int:
        """The queue's predicted drain time, floored at 1 s, capped at 5 s.

        Sum of queued predicted means over capacity: the engine's own
        forecast of how long the backlog takes to clear — an honest
        hint, unlike the depth heuristic, because queued entries carry
        real predictions.
        """
        with self._lock:
            backlog = self.queue.predicted_seconds()
        drain = math.ceil(backlog / max(self.capacity, 1))
        return max(1, min(_RETRY_AFTER_CAP_SECONDS, drain))

    def stats(self) -> AdmissionStats:
        """One consistent snapshot of the admission counters."""
        with self._lock:
            return AdmissionStats(
                capacity=self.capacity,
                in_flight=self._in_flight,
                admitted_total=self._admitted_total,
                refused_total=self._refused_total,
            )

    def scheduler_stats(self) -> SchedulerStats:
        """One consistent snapshot of the queueing counters."""
        with self._lock:
            return SchedulerStats(
                policy=self.scheduling_policy.name,
                queue_depth=self.queue.depth(),
                queued_predicted_seconds=self.queue.predicted_seconds(),
                dispatched_total=self._dispatched_total,
                timeouts_total=self._timeouts_total,
            )


def build_admission(session, max_in_flight: int) -> AdmissionPolicy:
    """The admission policy the session's config asks for.

    ``scheduler_policy="fifo"`` (the default) returns the original
    :class:`BoundedInFlight` — not a queueing policy in arrival order —
    so default deployments keep byte-identical refusal behavior.
    Scheduling policies get a :class:`SchedulingAdmission` whose cost
    estimator is :meth:`Session.estimate
    <repro.api.session.Session.estimate>`.
    """
    config = session.config
    if config.scheduler_policy == "fifo":
        return BoundedInFlight(max_in_flight)
    return SchedulingAdmission(
        make_policy(
            config.scheduler_policy,
            slack=config.scheduler_slack,
            quantum_seconds=config.scheduler_quantum_seconds,
        ),
        estimator=session.estimate,
        capacity=max_in_flight,
        max_queue=config.scheduler_max_queue,
        queue_timeout_seconds=config.scheduler_queue_timeout_seconds,
        default_deadline_ms=config.scheduler_default_deadline_ms,
    )


class AdmissionGate(WireApp):
    """The wire app applying one admission policy around an inner app.

    Sits at the public edge of a worker's stack — requests a router
    forwards between workers cross only private transports and are
    *not* re-metered, so one request can never consume two slots.
    """

    def __init__(self, inner: WireApp, policy: AdmissionPolicy):
        self.inner = inner
        self.policy = policy

    def health(self) -> dict:
        """The inner health payload plus this gate's capacity."""
        return {**self.inner.health(), "max_in_flight": self.policy.capacity}

    def handle_get(self, path: str) -> WireResponse:
        """Pass GETs through unmetered; healthz gains the capacity field.

        A v2-shaped ``/v1/stats`` answer gains this gate's ``admission``
        section on the way out. The gate sits at the public edge — peer
        stats fetches cross private transports with no gate — so the
        section always describes *this* worker's front door, and v1
        answers (which have no sections) pass through untouched.
        """
        bare, _ = split_path(path)
        if bare == "/v1/healthz":
            return WireResponse(200, self.health())
        response = self.inner.handle_get(path)
        if (
            bare == "/v1/stats"
            and response.status == 200
            and isinstance(response.record, dict)
            and response.record.get("schema_version", 1) >= 2
        ):
            record = dict(response.record)
            record["admission"] = encode(self.policy.stats())
            scheduler_stats = getattr(self.policy, "scheduler_stats", None)
            if scheduler_stats is not None:
                record["scheduler"] = encode(scheduler_stats())
            return WireResponse(200, record)
        return response

    def handle_post(
        self, path: str, read_body: Callable[[], dict]
    ) -> WireResponse:
        """Meter prediction POSTs; refuse with 503 + Retry-After when full.

        The slot covers body read + prediction, and is released
        *before* the response is written: a client cannot issue its
        next request until it has read this response, so releasing
        first guarantees N serial clients never see a spurious 503
        under an N-slot cap.
        """
        if split_path(path)[0] not in METERED_PATHS:
            return self.inner.handle_post(path, read_body)
        if self.policy.needs_body:
            # Scheduling admission needs the parsed record to build its
            # ticket (SQL to estimate, tenant, deadline). A malformed
            # body raises here exactly as it would inside the inner app
            # — same WireError, same 400 — just before metering.
            record = read_body()
            if not self.policy.admit_record(path, record):
                return over_capacity_response(
                    self.policy.capacity, self.policy.retry_after_seconds()
                )
            try:
                return self.inner.handle_post(path, lambda: record)
            finally:
                self.policy.release()
        if not self.policy.admit():
            return over_capacity_response(
                self.policy.capacity, self.policy.retry_after_seconds()
            )
        try:
            return self.inner.handle_post(path, read_body)
        finally:
            self.policy.release()
