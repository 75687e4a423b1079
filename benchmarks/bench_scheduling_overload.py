"""Uncertainty-aware scheduling under overload: misses, fairness, parity.

The claim the scheduler tier (``docs/scheduling.md``) exists to check:
when demand exceeds capacity, *knowing the predicted cost distribution
of every queued request* lets the serving tier hold tight latency
budgets that blind FIFO admission cannot — without changing a single
served byte.

One warmed session, one seeded two-tenant closed-loop schedule at ~2x
the admission capacity (4 serial clients against 2 slots): a
``dash`` tenant replaying a small template pool under a tight latency
budget next to an ``adhoc`` tenant issuing fresh instantiations under a
loose one. Three replays of the identical schedule, one per admission
policy, plus a deterministic queueing simulation:

* **fifo** — the stock :class:`~repro.serving.BoundedInFlight` gate via
  :func:`~repro.serving.build_admission` (pinning the factory default).
  ``fifo_bitwise_identical`` hard-floors that every response served
  through the gate equals a direct idle serve of the same request —
  admission never touches payloads.
* **edf-slack** / **budget-fair** — the deferring
  :class:`~repro.serving.SchedulingAdmission` over the same session.
  ``edf_deadline_miss_improves`` hard-floors that deadline scheduling
  never misses more budgets than FIFO admission *and* strictly beats it
  in the deterministic overload simulation below;
  ``budget_fair_all_served`` hard-floors that deficit-round-robin
  serves both tenants completely (no refusals, no timeouts) where FIFO
  sheds load.
* **simulation** — a single-server queueing sim over the schedule's
  *real predicted* ``(mean, std)`` costs with arrivals compressed to 2x
  the predicted service rate, dispatched through the actual policy
  objects. Deterministic given the seeds (predictions are bitwise
  reproducible), so the FIFO-vs-EDF miss counts are pinnable numbers,
  not timing luck.
"""

from repro.api import Session, SessionConfig
from repro.api.wire import PredictRequest
from repro.benchreport import Metric, register
from repro.replay import (
    ClosedLoop,
    ReplayReport,
    ReplayRunner,
    WireAppTarget,
    build_schedule,
)
from repro.replay.mix import MixComponent, WorkloadMix
from repro.scheduler import (
    CostEstimate,
    EdfSlackPolicy,
    FifoPolicy,
    PredictedCostQueue,
    QueueEntry,
    make_policy,
)
from repro.serving import (
    AdmissionGate,
    BoundedInFlight,
    SchedulingAdmission,
    build_admission,
)
from repro.serving.app import SessionApp

SETUP_CONFIG = SessionConfig(
    scale_factor=0.01,
    db_seed=11,
    calibration_seed=0,
    calibration_repetitions=6,
    sampling_ratio=0.05,
    sampling_seed=1,
)
SCHEDULE_SEED = 31
CLIENTS = 4
CAPACITY = 2

#: Two tenants with distinct SLOs: recurring dashboard lookups under a
#: tight budget vs always-fresh ad-hoc analytics under a loose one.
SLA_MIX = WorkloadMix(
    "sla-tenants",
    (
        MixComponent(
            "tpch", weight=0.6, pool_size=4, tenant="dash", deadline_ms=250
        ),
        MixComponent("tpch", weight=0.4, tenant="adhoc", deadline_ms=2000),
    ),
)

#: Simulated latency budgets as multiples of each job's own predicted
#: mean. The dash budget tolerates waiting behind a few other dash
#: queries but not behind one heavy ad-hoc query; adhoc books an order
#: of magnitude more. Tighter dash budgets make *every* dash job
#: unsavable under sustained overload and EDF degenerates to FIFO (or
#: worse — it burns capacity on doomed jobs), which is exactly the
#: regime boundary the factors are chosen to stay clear of.
SIM_BUDGET_FACTORS = {"dash": 6.0, "adhoc": 60.0}


def _scheduling_policy(name: str, session: Session) -> SchedulingAdmission:
    return SchedulingAdmission(
        make_policy(name),
        estimator=session.estimate,
        capacity=CAPACITY,
        max_queue=64,
        queue_timeout_seconds=30.0,
    )


def _matches_direct(run, session: Session) -> bool:
    """Every gated response bitwise-equals a direct idle serve."""
    by_index = {request.index: request for request in run.schedule.requests}
    for observation in run.succeeded:
        request = by_index[observation.index]
        direct = session.predict(
            PredictRequest(
                sql=request.sql,
                variants=request.variants,
                mpls=request.mpls,
                confidences=request.confidences,
                tenant=request.tenant,
            )
        )
        if direct.results != observation.response.results:
            return False
    return True


def _sim_jobs(schedule, session: Session):
    """(arrival, deadline, mean, std) per request — all predicted values.

    Service demands are the engine's own predicted means for the
    scheduled SQL; arrivals are evenly spaced at **half** the aggregate
    predicted service time (a deterministic 2x overload of a single
    server); each job's latency budget scales its own predicted mean by
    its tenant's factor.
    """
    estimates = {
        request.sql: session.estimate(request.sql)
        for request in schedule.requests
    }
    total_mean = sum(mean for mean, _ in estimates.values())
    spacing = total_mean / (2 * len(schedule.requests))
    jobs = []
    for position, request in enumerate(schedule.requests):
        mean, std = estimates[request.sql]
        factor = SIM_BUDGET_FACTORS[request.tenant]
        jobs.append((position * spacing, factor * mean, mean, std))
    return jobs


def _simulate_misses(policy, jobs) -> int:
    """Deadline misses of a single-server queue dispatched by ``policy``."""
    queue = PredictedCostQueue()
    pending = iter(jobs)
    upcoming = next(pending, None)
    server_free_at = 0.0
    misses = 0
    while upcoming is not None or queue.depth():
        if queue.depth() == 0:
            server_free_at = max(server_free_at, upcoming[0])
        while upcoming is not None and upcoming[0] <= server_free_at:
            arrival, deadline, mean, std = upcoming
            queue.push(
                QueueEntry(
                    arrival_seconds=arrival,
                    tenant="sim",
                    deadline_seconds=deadline,
                    priority=0,
                    estimate=CostEstimate(mean=mean, std=std),
                )
            )
            upcoming = next(pending, None)
        entry = queue.pop_next(policy)
        start = max(server_free_at, entry.arrival_seconds)
        finish = start + entry.estimate.mean
        if finish > entry.absolute_deadline():
            misses += 1
        server_free_at = finish
    return misses


@register(
    "scheduling_overload",
    tags=("scheduler", "serving", "replay", "throughput"),
)
def scenario(ctx):
    """Two-tenant closed loop at 2x capacity: fifo vs edf-slack vs budget-fair."""
    requests_per_client = ctx.pick(quick=6, full=12)
    session = Session(SETUP_CONFIG)
    schedule = build_schedule(
        SLA_MIX,
        session.database,
        ClosedLoop(
            clients=CLIENTS, requests_per_client=requests_per_client
        ),
        seed=SCHEDULE_SEED,
    )
    # Warm every distinct query once so all three measured replays see
    # identical hot caches and the comparison isolates admission policy.
    for sql in sorted({request.sql for request in schedule.requests}):
        session.predict(sql)

    app = SessionApp(session)
    fifo_gate = build_admission(session, CAPACITY)
    policies = {
        "fifo": fifo_gate,
        "edf": _scheduling_policy("edf-slack", session),
        "budget": _scheduling_policy("budget-fair", session),
    }
    reports: dict[str, ReplayReport] = {}
    runs = {}
    for name, policy in policies.items():
        runner = ReplayRunner(WireAppTarget(AdmissionGate(app, policy)))
        runs[name] = runner.run(schedule)
        reports[name] = ReplayReport.from_run(runs[name])

    fifo_bitwise = (
        type(fifo_gate) is BoundedInFlight
        and _matches_direct(runs["fifo"], session)
    )
    budget_report = reports["budget"]
    budget_all_served = (
        budget_report.requests_failed == 0
        and len(budget_report.tenants) == 2
        and all(t.error_rate == 0.0 for t in budget_report.tenants)
    )

    jobs = _sim_jobs(schedule, session)
    sim_fifo = _simulate_misses(FifoPolicy(), jobs)
    sim_edf = _simulate_misses(EdfSlackPolicy(), jobs)
    miss_improves = (
        sim_edf < sim_fifo
        and reports["edf"].deadline_miss_rate
        <= reports["fifo"].deadline_miss_rate
    )

    edf_stats = policies["edf"].scheduler_stats()
    return [
        Metric(
            "fifo_replay_seconds",
            reports["fifo"].wall_seconds,
            kind="timing",
            unit="s",
        ),
        Metric(
            "edf_replay_seconds",
            reports["edf"].wall_seconds,
            kind="timing",
            unit="s",
        ),
        Metric(
            "budget_replay_seconds",
            reports["budget"].wall_seconds,
            kind="timing",
            unit="s",
        ),
        Metric("fifo_deadline_miss_rate", reports["fifo"].deadline_miss_rate),
        Metric("edf_deadline_miss_rate", reports["edf"].deadline_miss_rate),
        Metric(
            "budget_deadline_miss_rate",
            reports["budget"].deadline_miss_rate,
        ),
        Metric("sim_fifo_misses", float(sim_fifo)),
        Metric("sim_edf_misses", float(sim_edf)),
        Metric(
            "edf_deadline_miss_improves",
            1.0 if miss_improves else 0.0,
            kind="ratio",
            floor=1.0,
        ),
        Metric(
            "fifo_bitwise_identical",
            1.0 if fifo_bitwise else 0.0,
            kind="ratio",
            floor=1.0,
        ),
        Metric(
            "budget_fair_all_served",
            1.0 if budget_all_served else 0.0,
            kind="ratio",
            floor=1.0,
        ),
        # How often the deferring gate actually queued under 2x load —
        # a timing-dependent gauge (thread overlap decides), so no
        # floor; the simulation above pins the queue machinery
        # deterministically.
        Metric(
            "edf_dispatched_total", float(edf_stats.dispatched_total)
        ),
        Metric("edf_timeouts_total", float(edf_stats.timeouts_total)),
    ]
