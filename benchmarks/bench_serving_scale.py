"""Pre-fork pool scaling: retained throughput from cache-shard capacity.

The serving-tier claim (``docs/serving.md``): ``repro serve --workers N``
scales *retained throughput* even on a single core, because the win is
cache **capacity**, not CPU. Each worker owns a private session — a
private prepared cache and sampling-engine budget — and the consistent-
hash router pins every plan signature to one shard. A dashboard-style
working set that overflows one worker's caches (every request re-runs
Algorithm 1 sampling) partitions across four workers into shards that
fit (every request replays cached artifacts).

The scenario makes that concrete. One session whose cache budgets are
deliberately smaller than the working set: 24 distinct queries against
a 12-entry prepared cache and a 64 MiB sampling-engine budget (the full
working set's sample intermediates need ~114 MiB at this scale, a
quarter-shard ~28 MiB). The same seeded closed-loop schedule is then
replayed over HTTP against pools of 1, 2 and 4 workers — forked from
the *same* prebuilt session, so the pools differ only in sharding.

Guarded metrics:

* ``workers2_retained`` / ``workers4_retained`` — measured-pass
  throughput over the single-worker baseline, hard-floored at 1.0 and
  2.5: four shards must buy back at least 2.5x even though forwarded
  requests pay an extra local HTTP hop.
* ``error_free`` — no replayed request may fail in any pass;
* ``stats_consistent`` — the pool-wide ``/v1/stats`` aggregate must
  count every request exactly once (routing forwards must not double-
  serve or drop);
* ``clean_drain`` — every worker of every pool exits 0 after SIGTERM;
* ``http_503_retry_after_present`` — an over-capacity refusal carries
  the machine-readable ``Retry-After: 1`` hint all the way into
  :class:`~repro.api.client.ApiError.retry_after`.
"""

import threading

import pytest

from repro.api import HttpClient, Session, SessionConfig
from repro.api.client import ApiError
from repro.benchreport import Metric, register
from repro.replay import (
    ClosedLoop,
    HttpTarget,
    MixComponent,
    ReplayRunner,
    WorkloadMix,
    build_schedule,
)
from repro.serving import WorkerPool, build_server

SETUP_CONFIG = SessionConfig(
    scale_factor=0.05,
    db_seed=11,
    calibration_seed=0,
    calibration_repetitions=6,
    sampling_ratio=0.2,
    sampling_seed=1,
    # Both budgets hold a quarter-shard of the working set, not all of
    # it — the capacity gap the worker pool exists to close.
    prepared_cache_size=12,
    sampling_engine_bytes=64 * 2**20,
)
SCHEDULE_SEED = 23
CLIENTS = 2
WORKER_COUNTS = (1, 2, 4)
MAX_IN_FLIGHT = 8
PROBE_SQL = "SELECT COUNT(*) FROM orders WHERE o_totalprice > 100000"

#: The dashboard blend: the ``mixed`` preset's weights with bounded
#: parameter pools, so the schedule cycles a fixed 24-query working set
#: (12 TPC-H parameterizations + 6 scans + 6 joins) instead of drawing
#: always-fresh instantiations that no cache could ever hold.
SCALE_MIX = WorkloadMix(
    "serving-scale",
    (
        MixComponent("tpch", weight=0.5, pool_size=12),
        MixComponent("micro-scan", weight=0.25, pool_size=6),
        MixComponent("micro-join", weight=0.25, pool_size=6),
    ),
)


def _build_setup(requests_per_client: int, config: SessionConfig = SETUP_CONFIG):
    """(session, closed-loop schedule) shared by every pool size."""
    session = Session(config)
    schedule = build_schedule(
        SCALE_MIX,
        session.database,
        ClosedLoop(clients=CLIENTS, requests_per_client=requests_per_client),
        seed=SCHEDULE_SEED,
    )
    return session, schedule


def _retry_after_surfaces(session: Session) -> bool:
    """One refused request must carry ``Retry-After`` into the client.

    Boots the in-process single-worker server, drains its admission
    slots directly, and checks the resulting 503 is the structured
    ``over-capacity`` error with the exact 1-second hint the pre-fork
    server has always sent.
    """
    server = build_server(session, port=0, max_in_flight=2)
    policy = server.app.policy
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    admitted = 0
    try:
        for _ in range(2):
            if not policy.admit():
                return False
            admitted += 1
        try:
            HttpClient(server.url).predict(PROBE_SQL)
        except ApiError as error:
            return (
                error.status == 503
                and error.code == "over-capacity"
                and error.retry_after == 1.0
            )
        return False
    finally:
        for _ in range(admitted):
            policy.release()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@register("serving_scale", tags=("serving", "http", "throughput", "scale"))
def scenario(ctx):
    """Worker-pool scaling: sharded caches must retain >= 2.5x at 4 workers."""
    requests_per_client = ctx.pick(quick=25, full=40)
    repetitions = ctx.pick(quick=1, full=2)
    session, schedule = _build_setup(requests_per_client)

    seconds: dict[int, float] = {}
    failures = 0
    stats_consistent = True
    clean_drain = True
    for workers in WORKER_COUNTS:
        with WorkerPool(
            workers, session=session, max_in_flight=MAX_IN_FLIGHT
        ) as pool:
            runner = ReplayRunner(HttpTarget(HttpClient(pool.url)))
            runs = [runner.run(schedule)]  # warmup: populate the shards

            def measured(runner=runner, runs=runs):
                run = runner.run(schedule)
                runs.append(run)
                return run

            seconds[workers], _ = ctx.best_of(measured, repetitions)
            failures += sum(len(run.failed) for run in runs)
            # Every pass serves each request exactly once pool-wide:
            # forwarded requests must neither double-count nor vanish.
            aggregate = HttpClient(pool.url).stats()
            expected = len(runs) * len(schedule.requests)
            if aggregate.stats.queries_served != expected:
                stats_consistent = False
        if pool.exit_codes != [0] * workers:
            clean_drain = False

    retry_after_seen = _retry_after_surfaces(session)
    baseline = seconds[1]
    return [
        Metric("workers1_seconds", seconds[1], kind="timing", unit="s"),
        Metric("workers2_seconds", seconds[2], kind="timing", unit="s"),
        Metric("workers4_seconds", seconds[4], kind="timing", unit="s"),
        Metric(
            "workers2_retained",
            baseline / seconds[2],
            kind="ratio",
            floor=1.0,
        ),
        Metric(
            "workers4_retained",
            baseline / seconds[4],
            kind="ratio",
            floor=2.5,
        ),
        Metric(
            "error_free", 1.0 if failures == 0 else 0.0, kind="ratio", floor=1.0
        ),
        Metric(
            "stats_consistent",
            1.0 if stats_consistent else 0.0,
            kind="ratio",
            floor=1.0,
        ),
        Metric(
            "clean_drain", 1.0 if clean_drain else 0.0, kind="ratio", floor=1.0
        ),
        Metric(
            "http_503_retry_after_present",
            1.0 if retry_after_seen else 0.0,
            kind="ratio",
            floor=1.0,
        ),
    ]


@pytest.fixture(scope="module")
def scale_setup():
    # The cheap variant of the scenario config: the mix/schedule
    # properties under test do not depend on database scale.
    config = SETUP_CONFIG.replace(scale_factor=0.01, sampling_ratio=0.05)
    return _build_setup(requests_per_client=20, config=config)


def test_scale_mix_working_set_is_bounded_and_deterministic(scale_setup):
    session, schedule = scale_setup
    rebuilt = build_schedule(
        SCALE_MIX,
        session.database,
        ClosedLoop(clients=CLIENTS, requests_per_client=20),
        seed=SCHEDULE_SEED,
    )
    assert schedule.fingerprint() == rebuilt.fingerprint()
    distinct = {request.sql for request in schedule.requests}
    # The scenario's premise: the working set overflows one worker's
    # prepared cache but a quarter of it fits comfortably.
    assert len(distinct) <= 24
    assert len(distinct) > SETUP_CONFIG.prepared_cache_size


def test_refused_request_carries_retry_after_hint(scale_setup):
    session, _ = scale_setup
    assert _retry_after_surfaces(session)
