"""Cross-worker stats aggregation for sharded ``/v1/stats``.

Each pre-fork worker owns a private session, so its stats snapshot
covers only its own shard of the traffic. The public ``/v1/stats``
contract is a *pool-wide* snapshot: the serving worker collects every
peer's wire-form snapshot and recombines them here, typed end to end —
:func:`aggregate_snapshots` is the one aggregation, and
:func:`aggregate_report_records` parses wire records to
:class:`~repro.api.wire.StatsSnapshot`, aggregates, and re-emits.

Counters add; derived rates do not. ``prepare_hit_rate`` and the cache
``hit_rate`` fields are recomputed from the *summed* numerators and
denominators — averaging per-worker rates would weight an idle worker
the same as a busy one — and stay ``None`` when the summed traffic is
zero, exactly like a single quiet server. The v2 sections follow the
same discipline: admission and scheduler counters sum (the scheduler
policy name survives when every shard agrees, else ``"mixed"``),
feedback tenants merge by name with observation/drift counters summed. A conformal *scale* is a
window quantile and cannot be recombined from per-worker quantiles, so
a merged tenant keeps its scale only when exactly one worker reports
one; otherwise the pool answers ``null`` and clients fall back to the
per-worker value on the shard that owns the plan.

The aggregate of one snapshot is byte-identical to that snapshot under
:func:`repro.api.wire.dumps` — at v1 *and* at v2 — which is what keeps
``--workers 1`` indistinguishable from a single server on this
endpoint. The emitted ``schema_version`` is the maximum any input
declared, so a pool of v1-shaped reports aggregates to a v1 report.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import fields, is_dataclass

from ..api.wire import (
    AdmissionStats,
    SchedulerStats,
    StatsSnapshot,
    check_schema_version,
)
from ..errors import ServingError
from ..feedback import FeedbackStats, TenantFeedback
from ..service.service import ServiceReport

__all__ = ["aggregate_report_records", "aggregate_snapshots"]


def _summed(cls: type, parts: Sequence):
    """One ``cls`` record whose every field sums the ``parts``' fields.

    Nested records (a report's counters and cache stats) sum field by
    field too; derived rates are properties, recomputed by the result
    from its summed counters.
    """
    totals = {}
    for field in fields(cls):
        values = [getattr(part, field.name) for part in parts]
        totals[field.name] = (
            _summed(type(values[0]), values)
            if is_dataclass(values[0])
            else sum(values)
        )
    return cls(**totals)


def _merge_feedback(sections: Sequence[FeedbackStats]) -> FeedbackStats:
    """Merge per-worker feedback sections tenant-by-tenant.

    Counters and gauges sum; ``active`` is true when any shard is
    active; ``last_drift_observation`` is the latest any shard saw. The
    conformal scale survives only when exactly one shard reports one —
    quantiles of disjoint windows do not combine, and pretending they
    do would report an interval no worker actually serves.
    """
    shards: dict[str, list[TenantFeedback]] = {}
    for section in sections:
        for tenant in section.tenants:
            shards.setdefault(tenant.tenant, []).append(tenant)
    tenants = []
    for name in sorted(shards):
        parts = shards[name]
        drifts_at = [
            part.last_drift_observation
            for part in parts
            if part.last_drift_observation is not None
        ]
        scales = [part.scale for part in parts if part.scale is not None]
        tenants.append(
            TenantFeedback(
                tenant=name,
                observations=sum(part.observations for part in parts),
                window_fill=sum(part.window_fill for part in parts),
                active=any(part.active for part in parts),
                drifts_detected=sum(part.drifts_detected for part in parts),
                last_drift_observation=max(drifts_at) if drifts_at else None,
                scale=scales[0] if len(scales) == 1 else None,
            )
        )
    return FeedbackStats(
        observations=sum(tenant.observations for tenant in tenants),
        drifts_detected=sum(tenant.drifts_detected for tenant in tenants),
        tenants=tuple(tenants),
    )


def aggregate_snapshots(
    snapshots: Sequence[StatsSnapshot],
) -> StatsSnapshot:
    """Recombine per-worker snapshots into one pool-wide snapshot.

    Every counter and gauge is summed and every derived rate recomputed
    from the summed numerators and denominators. Optional sections stay
    absent when *no* input carried them (a pool of section-less v1
    reports aggregates to a section-less snapshot), and appear when any
    did.
    """
    if not snapshots:
        raise ServingError("cannot aggregate zero stats snapshots")
    report = _summed(ServiceReport, [s.report for s in snapshots])
    admissions = [s.admission for s in snapshots if s.admission is not None]
    admission = _summed(AdmissionStats, admissions) if admissions else None
    feedbacks = [s.feedback for s in snapshots if s.feedback is not None]
    feedback = _merge_feedback(feedbacks) if feedbacks else None
    schedulers = [s.scheduler for s in snapshots if s.scheduler is not None]
    scheduler = None
    if schedulers:
        # Counters and gauges sum across shards; the policy name is the
        # common one when every shard agrees (always true for a pool
        # built from one config), "mixed" otherwise.
        names = {s.policy for s in schedulers}
        scheduler = SchedulerStats(
            policy=names.pop() if len(names) == 1 else "mixed",
            queue_depth=sum(s.queue_depth for s in schedulers),
            queued_predicted_seconds=sum(
                s.queued_predicted_seconds for s in schedulers
            ),
            dispatched_total=sum(s.dispatched_total for s in schedulers),
            timeouts_total=sum(s.timeouts_total for s in schedulers),
        )
    return StatsSnapshot(
        report=report,
        admission=admission,
        feedback=feedback,
        scheduler=scheduler,
    )


def aggregate_report_records(records: Sequence[dict]) -> dict:
    """Sum wire-form stats snapshots into one pool-wide record.

    The result is emitted at the highest schema version any input
    declared: v1 inputs yield exactly the flat single-server report
    (so ``decode(ServiceReport, record)`` parses it), v2
    inputs keep their sections. Either way every counter and gauge is
    summed and every hit rate recomputed from the summed counters.
    """
    if not records:
        raise ServingError("cannot aggregate zero service reports")
    version = 1
    snapshots = []
    for record in records:
        version = max(version, check_schema_version(record))
        snapshots.append(StatsSnapshot.from_dict(record))
    return aggregate_snapshots(snapshots).to_dict(version)
