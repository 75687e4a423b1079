"""Workload replay under load: throughput retention + bitwise stability.

The serving claim the replay subsystem exists to check (Sec. 6.3.4 and
the workload argument of the paper): putting the predictor under
sustained mixed traffic costs *latency*, never *prediction quality* —
the distributions served under concurrent load are bitwise identical to
idle ones, interval calibration does not move, and the stack retains a
usable fraction of its idle throughput.

One warmed session, one seeded mixed TPC-H/micro schedule, four
measurements:

* idle sequential serve time of the whole schedule (the baseline);
* the same schedule replayed **open-loop** in-process with compressed
  arrival pacing (thread-pool dispatch, the session lock serializes
  the engine) — ``open_loop_retained_throughput`` guards the facade's
  concurrency overhead with a hard floor;
* the same schedule replayed **closed-loop over HTTP** (4 clients
  against an 8-slot admission gate) — ``http_closed_retained_throughput``
  guards the full wire path, and ``http_503_free`` pins that a client
  count below the admission cap never sees an over-capacity refusal;
* determinism cross-checks, all hard-floored flags: rebuilt schedules
  fingerprint-identical, two in-process replays bitwise identical,
  HTTP responses bitwise identical to in-process ones.

``calibration_coverage_load`` / ``calibration_coverage_idle`` are
fidelity metrics: the fraction of simulated actual times covered by
the 90% interval, measured from responses served under load and idle —
deterministic given the seed, banded tightly by the guard.
"""

import threading

import pytest

from repro.api import HttpClient, Session, SessionConfig
from repro.benchreport import Metric, register
from repro.replay import (
    ClosedLoop,
    HttpTarget,
    InProcessTarget,
    PoissonArrivals,
    ReplayRunner,
    build_schedule,
    parse_mix,
)
from repro.replay.report import calibration_under_load
from repro.serving import build_server

SETUP_CONFIG = SessionConfig(
    scale_factor=0.01,
    db_seed=11,
    calibration_seed=0,
    calibration_repetitions=6,
    sampling_ratio=0.05,
    sampling_seed=1,
)
SCHEDULE_SEED = 23
HTTP_CLIENTS = 4
MAX_IN_FLIGHT = 8


def _build_setup(rate: float, duration: float):
    """(session, open-loop schedule) for the scenario/test, warmed nowhere."""
    session = Session(SETUP_CONFIG)
    schedule = build_schedule(
        parse_mix("mixed"),
        session.database,
        PoissonArrivals(rate),
        seed=SCHEDULE_SEED,
        duration_seconds=duration,
    )
    return session, schedule


@register("replay_load", tags=("replay", "service", "throughput", "http"))
def scenario(ctx):
    """Mixed-workload replay: retained throughput, 503-free closed loop, bitwise stability."""
    rate = ctx.pick(quick=30.0, full=60.0)
    duration = ctx.pick(quick=1.0, full=2.5)
    session, schedule = _build_setup(rate, duration)
    rebuilt = build_schedule(
        parse_mix("mixed"),
        session.database,
        PoissonArrivals(rate),
        seed=SCHEDULE_SEED,
        duration_seconds=duration,
    )
    schedule_determinism = schedule.fingerprint() == rebuilt.fingerprint()

    # Warm every distinct query once so all measured passes replay
    # cached plans/prepares and the numbers isolate serving overhead.
    # time_scale compresses the arrival pacing to ~1ms so the measured
    # replay wall time is dispatch + serving, not schedule span.
    target = InProcessTarget(session)
    runner = ReplayRunner(target, time_scale=0.001)
    warm = runner.run(schedule)

    idle_seconds, _ = ctx.best_of(
        lambda: [target.predict(request) for request in schedule.requests], 3
    )
    open_seconds, open_run = ctx.best_of(lambda: runner.run(schedule), 3)
    bitwise_inproc = (
        warm.results_signature() == open_run.results_signature()
    )
    calibration = calibration_under_load(open_run, session)

    server = build_server(session, port=0, max_in_flight=MAX_IN_FLIGHT)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        closed = build_schedule(
            parse_mix("mixed"),
            session.database,
            ClosedLoop(
                clients=HTTP_CLIENTS,
                requests_per_client=max(len(schedule) // HTTP_CLIENTS, 2),
            ),
            seed=SCHEDULE_SEED,
        )
        http_runner = ReplayRunner(
            HttpTarget(HttpClient(server.url))
        )
        http_seconds, http_run = ctx.best_of(
            lambda: http_runner.run(closed), 2
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    http_503_free = (
        1.0 if not http_run.error_counts().get("over-capacity") else 0.0
    )
    # The closed-loop schedule replays its own queries; compare its
    # per-request idle baseline for a dimensionless retention ratio.
    http_idle_seconds, _ = ctx.best_of(
        lambda: [target.predict(request) for request in closed.requests], 2
    )

    return [
        Metric("idle_serve_seconds", idle_seconds, kind="timing", unit="s"),
        Metric("open_replay_seconds", open_seconds, kind="timing", unit="s"),
        Metric("http_closed_seconds", http_seconds, kind="timing", unit="s"),
        Metric(
            "open_loop_retained_throughput",
            idle_seconds / open_seconds,
            kind="ratio",
            floor=0.1,
        ),
        Metric(
            "http_closed_retained_throughput",
            http_idle_seconds / http_seconds,
            kind="ratio",
            floor=0.02,
        ),
        Metric("http_503_free", http_503_free, kind="ratio", floor=1.0),
        Metric(
            "schedule_determinism",
            1.0 if schedule_determinism else 0.0,
            kind="ratio",
            floor=1.0,
        ),
        Metric(
            "bitwise_under_load",
            1.0 if bitwise_inproc else 0.0,
            kind="ratio",
            floor=1.0,
        ),
        Metric(
            "http_bitwise_vs_inproc",
            1.0 if not http_run.failed and _http_matches(http_run, session) else 0.0,
            kind="ratio",
            floor=1.0,
        ),
        Metric("calibration_coverage_load", calibration.coverage_under_load),
        Metric("calibration_coverage_idle", calibration.coverage_idle),
        # The closed-loop invariant: N serial clients can never have
        # more than N requests in flight. A flag, not the raw gauge —
        # the gauge's lower range is timing-dependent.
        Metric(
            "closed_loop_bounded",
            1.0 if 0 < http_run.max_in_flight <= HTTP_CLIENTS else 0.0,
            kind="ratio",
            floor=1.0,
        ),
    ]


def _http_matches(http_run, session: Session) -> bool:
    """Every HTTP response bitwise-equals an idle re-serve on ``session``.

    ``session`` is the very session the server wrapped, so the check
    compares the wire round-trip (JSON floats and all) against the
    in-process result payloads. The re-serve carries the scheduled
    request's full fan-out overrides — a mix component requesting its
    own variants/mpls/confidences must be compared like for like.
    """
    from repro.api.wire import PredictRequest

    by_index = {r.index: r for r in http_run.schedule.requests}
    for observation in http_run.succeeded:
        request = by_index[observation.index]
        idle = session.predict(
            PredictRequest(
                sql=request.sql,
                variants=request.variants,
                mpls=request.mpls,
                confidences=request.confidences,
            )
        )
        if idle.results != observation.response.results:
            return False
    return True


@pytest.fixture(scope="module")
def replay_setup():
    return _build_setup(rate=25.0, duration=1.0)


def test_replay_open_loop_bitwise_and_complete(replay_setup):
    session, schedule = replay_setup
    runner = ReplayRunner(InProcessTarget(session), time_scale=0.05)
    first = runner.run(schedule)
    second = runner.run(schedule)
    assert not first.failed and not second.failed
    assert first.results_signature() == second.results_signature()
