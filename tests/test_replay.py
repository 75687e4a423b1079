"""Workload replay: determinism, load models, concurrency, bugfix pins.

The contract under test (ISSUE 5 acceptance):

* same seed + mix + arrival model ⇒ the identical request schedule and
  bitwise-identical in-process predictions;
* a closed-loop client count actually bounds in-flight requests — with
  clients ≤ the server's admission cap, a replay sees zero 503s;
* ``Session.stats()`` is safe to call concurrently with traffic (no
  torn ``CacheStats`` reads, no blocking behind batches);
* ``HttpClient`` retries 503 admission refusals behind a seeded,
  jittered, deterministic backoff.
"""

import random
import threading

import numpy as np
import pytest

from repro.api import ClientConfig, HttpClient, Session, SessionConfig
from repro.api.client import ApiError
from repro.caching import ByteBudgetLRU
from repro.datagen import TpchConfig, generate_tpch
from repro.errors import ReproError
from repro.replay import (
    BurstyArrivals,
    ClosedLoop,
    DriftTrajectory,
    FeedbackPoint,
    HttpTarget,
    InProcessTarget,
    MixComponent,
    PoissonArrivals,
    ReplayReport,
    ReplayRunner,
    UniformArrivals,
    WorkloadMix,
    build_schedule,
    parse_arrival,
    parse_mix,
    run_feedback_loop,
)
from repro.replay.report import calibration_under_load
from repro.serving import build_server

SESSION_CONFIG = SessionConfig(
    scale_factor=0.01,
    db_seed=5,
    calibration_seed=0,
    calibration_repetitions=5,
    sampling_ratio=0.05,
    sampling_seed=1,
)


@pytest.fixture(scope="module")
def database():
    return generate_tpch(TpchConfig(scale_factor=0.01, seed=5))


@pytest.fixture(scope="module")
def session():
    return Session(SESSION_CONFIG)


# ---------------------------------------------------------------------------
# mixes


def test_mix_presets_parse_and_draw(database):
    for name in ("tpch", "micro", "mixed", "multitenant"):
        mix = parse_mix(name)
        drawer = mix.drawer(database, 3)
        sql, component = drawer.draw()
        assert sql.upper().startswith("SELECT")
        assert component in mix.components


def test_mix_spec_parsing():
    mix = parse_mix("tpch=0.7,micro-join=0.3")
    assert [c.kind for c in mix.components] == ["tpch", "micro-join"]
    assert np.isclose(mix.weights().sum(), 1.0)
    single = parse_mix("tpch:6")
    assert single.components[0].kind == "tpch:6"


def test_mix_validation_errors():
    with pytest.raises(ReproError):
        parse_mix("nonsense-mix")
    with pytest.raises(ReproError):
        MixComponent("tpch", weight=0.0)
    with pytest.raises(ReproError):
        MixComponent("micro-scan:3")
    with pytest.raises(ReproError):
        MixComponent("tpch:999")
    with pytest.raises(ReproError):
        MixComponent("tpch", pool_size=0)
    with pytest.raises(ReproError):
        WorkloadMix("empty", ())


def test_pool_size_bounds_distinct_queries(database):
    mix = WorkloadMix("pooled", (MixComponent("tpch", pool_size=3),))
    drawer = mix.drawer(database, 11)
    drawn = {drawer.draw()[0] for _ in range(60)}
    assert 1 <= len(drawn) <= 3


def test_template_component_sticks_to_its_template(database):
    mix = WorkloadMix("only-q6", (MixComponent("tpch:6",),))
    drawer = mix.drawer(database, 0)
    for _ in range(5):
        sql, _ = drawer.draw()
        assert "l_discount BETWEEN" in sql  # Q6's signature predicate


# ---------------------------------------------------------------------------
# arrival processes


def test_arrival_offsets_sorted_bounded_deterministic():
    for process in (
        PoissonArrivals(50.0),
        UniformArrivals(50.0),
        BurstyArrivals(50.0),
    ):
        first = process.offsets(np.random.default_rng(4), 2.0)
        again = process.offsets(np.random.default_rng(4), 2.0)
        assert np.array_equal(first, again)
        assert np.all(np.diff(first) >= 0)
        assert first.size == 0 or (first[0] >= 0 and first[-1] < 2.0)


def test_arrival_rates_are_respected():
    rng = np.random.default_rng(0)
    poisson = PoissonArrivals(100.0).offsets(rng, 10.0)
    assert 700 <= poisson.size <= 1300
    uniform = UniformArrivals(10.0).offsets(np.random.default_rng(0), 2.0)
    assert uniform.size == 20
    bursty = BurstyArrivals(100.0).offsets(np.random.default_rng(1), 10.0)
    assert 700 <= bursty.size <= 1300  # modulation preserves the average


def test_bursty_concentrates_arrivals():
    process = BurstyArrivals(
        80.0, burst_factor=8.0, period_seconds=1.0, on_fraction=0.25
    )
    offsets = process.offsets(np.random.default_rng(2), 8.0)
    in_burst = np.sum((offsets % 1.0) < 0.25)
    # 25% of the time carries well over half the arrivals.
    assert in_burst / offsets.size > 0.5


def test_parse_arrival_forms_and_errors():
    assert isinstance(parse_arrival("poisson:20"), PoissonArrivals)
    assert isinstance(parse_arrival("uniform:5"), UniformArrivals)
    bursty = parse_arrival("bursty:20:6:2:0.4")
    assert (bursty.burst_factor, bursty.period_seconds, bursty.on_fraction) == (
        6.0, 2.0, 0.4,
    )
    for bad in ("poisson", "poisson:x", "trickle:5", "bursty:1:2:3:4:5"):
        with pytest.raises(ReproError):
            parse_arrival(bad)
    with pytest.raises(ReproError):
        PoissonArrivals(0.0)
    with pytest.raises(ReproError):
        BurstyArrivals(10.0, on_fraction=1.5)


# ---------------------------------------------------------------------------
# schedules: the determinism acceptance criterion


def test_same_seed_same_schedule(database):
    mix = parse_mix("mixed")
    arrival = PoissonArrivals(40.0)
    one = build_schedule(mix, database, arrival, seed=9, duration_seconds=1.5)
    two = build_schedule(mix, database, arrival, seed=9, duration_seconds=1.5)
    assert one.requests == two.requests
    assert one.fingerprint() == two.fingerprint()
    other = build_schedule(mix, database, arrival, seed=10, duration_seconds=1.5)
    assert one.fingerprint() != other.fingerprint()


def test_closed_loop_schedule_shape(database):
    load = ClosedLoop(clients=3, requests_per_client=4, think_seconds=0.01)
    schedule = build_schedule(parse_mix("tpch"), database, load, seed=2)
    assert schedule.mode == "closed"
    assert len(schedule) == 12
    assert schedule.think_seconds == 0.01
    for client in range(3):
        assert len(schedule.client_requests(client)) == 4
    # client-major draw order: adding a client must not perturb the
    # queries earlier clients replay
    bigger = build_schedule(
        parse_mix("tpch"), database,
        ClosedLoop(clients=4, requests_per_client=4, think_seconds=0.01),
        seed=2,
    )
    assert bigger.client_requests(0) == schedule.client_requests(0)
    assert bigger.client_requests(2) == schedule.client_requests(2)


def test_multitenant_fanout_rides_the_schedule(database):
    schedule = build_schedule(
        parse_mix("multitenant"), database, UniformArrivals(60.0),
        seed=4, duration_seconds=1.0,
    )
    fanouts = {request.mpls for request in schedule.requests}
    assert (1, 4) in fanouts  # the dashboard tenant's override
    assert None in fanouts    # the ad-hoc tenants defer to defaults


def test_empty_schedule_is_an_error(database):
    with pytest.raises(ReproError):
        build_schedule(
            parse_mix("tpch"), database, PoissonArrivals(0.5),
            seed=1, duration_seconds=0.01,
        )


# ---------------------------------------------------------------------------
# replay runs: bitwise reproducibility + closed-loop bounding


def test_open_loop_inprocess_bitwise_identical(session):
    schedule = build_schedule(
        parse_mix("mixed"), session.database, UniformArrivals(30.0),
        seed=7, duration_seconds=1.0,
    )
    runner = ReplayRunner(InProcessTarget(session), time_scale=0.02)
    first = runner.run(schedule)
    second = runner.run(schedule)
    assert not first.failed and not second.failed
    assert len(first.observations) == len(schedule)
    signature = first.results_signature()
    assert signature == second.results_signature()
    assert signature  # non-empty: the comparison is meaningful


def test_closed_loop_bounds_in_flight_no_503s(session):
    """clients ≤ max_in_flight ⇒ zero over-capacity refusals."""
    server = build_server(session, port=0, max_in_flight=3)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        schedule = build_schedule(
            parse_mix("mixed"), session.database,
            ClosedLoop(clients=3, requests_per_client=5),
            seed=13,
        )
        run = ReplayRunner(HttpTarget(HttpClient(server.url))).run(schedule)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert run.error_counts().get("over-capacity", 0) == 0
    assert not run.failed
    assert 0 < run.max_in_flight <= 3
    # and the wire did not perturb a single bit vs an idle re-serve
    by_index = {r.index: r for r in schedule.requests}
    for observation in run.succeeded:
        idle = session.predict(by_index[observation.index].sql)
        assert idle.results == observation.response.results


def test_replay_report_and_calibration(session):
    schedule = build_schedule(
        parse_mix("mixed"), session.database, UniformArrivals(25.0),
        seed=3, duration_seconds=1.0,
    )
    run = ReplayRunner(InProcessTarget(session), time_scale=0.02).run(schedule)
    calibration = calibration_under_load(run, session, confidence=0.9)
    report = ReplayReport.from_run(run, calibration=calibration)
    assert report.requests_total == len(schedule)
    assert report.requests_failed == 0
    assert report.throughput_qps > 0
    assert report.latency.p50 <= report.latency.p95 <= report.latency.p99
    assert report.cache_trajectory[-1][0] == len(schedule)
    assert calibration.matches_idle
    assert calibration.samples == len(schedule)
    assert 0.0 <= calibration.coverage_under_load <= 1.0
    assert calibration.coverage_under_load == calibration.coverage_idle
    rendered = report.render()
    assert "bitwise equal to idle" in rendered
    assert report.to_dict()["schedule_fingerprint"] == schedule.fingerprint()


def test_runner_isolates_bad_queries(session):
    schedule = build_schedule(
        parse_mix("tpch"), session.database, UniformArrivals(5.0),
        seed=1, duration_seconds=1.0,
    )
    broken = schedule.requests[0]
    poisoned = schedule.requests[1:] + (
        type(broken)(
            index=broken.index,
            at_seconds=broken.at_seconds,
            client=broken.client,
            sql="SELEC nope",
        ),
    )
    patched = type(schedule)(
        mode=schedule.mode,
        requests=poisoned,
        clients=schedule.clients,
        duration_seconds=schedule.duration_seconds,
        seed=schedule.seed,
        mix_description=schedule.mix_description,
        load_description=schedule.load_description,
    )
    run = ReplayRunner(InProcessTarget(session), time_scale=0.01).run(patched)
    assert len(run.failed) == 1
    assert run.error_counts() == {"sql-parse": 1}
    assert len(run.succeeded) == len(schedule) - 1


# ---------------------------------------------------------------------------
# bugfix pins: stats under traffic, 503 retry


def test_session_stats_safe_and_nonblocking_under_traffic(session):
    """Concurrent stats() probes: no exception, no torn/regressing counters."""
    queries = [
        request.sql
        for request in build_schedule(
            parse_mix("tpch"), session.database, UniformArrivals(30.0),
            seed=21, duration_seconds=1.0,
        ).requests
    ]
    stop = threading.Event()
    errors: list[Exception] = []

    def traffic():
        try:
            while not stop.is_set():
                session.predict_batch(queries[:10])
        except Exception as error:  # noqa: BLE001 — surfaced in assertions
            errors.append(error)

    thread = threading.Thread(target=traffic, daemon=True)
    thread.start()
    try:
        last_lookups = -1
        last_served = -1
        for _ in range(300):
            report = session.stats()
            lookups = report.prepared_cache.lookups
            assert lookups >= last_lookups
            assert report.stats.queries_served >= last_served
            assert report.sampling_bytes_used >= 0
            rate = report.prepared_cache.hit_rate
            assert rate is None or 0.0 <= rate <= 1.0
            last_lookups = lookups
            last_served = report.stats.queries_served
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not errors


def test_byte_budget_lru_stats_consistent_under_threads():
    cache = ByteBudgetLRU(max_bytes=1024)
    per_thread = 500

    def worker(seed: int):
        rng = random.Random(seed)
        for i in range(per_thread):
            key = rng.randrange(32)
            if rng.random() < 0.5:
                cache.get(key)
            else:
                cache.put(key, i, nbytes=rng.choice((64, 128, 2048)))

    threads = [
        threading.Thread(target=worker, args=(seed,)) for seed in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats, entries, bytes_used = cache.snapshot()
    assert stats.lookups == stats.hits + stats.misses
    assert 0 <= bytes_used <= 1024
    assert entries == len(cache)


def test_http_client_retries_503_with_seeded_backoff(monkeypatch):
    client = HttpClient(
        "http://127.0.0.1:1",
        config=ClientConfig(retries_503=3, backoff_seconds=0.05, backoff_seed=42),
    )
    attempts = []

    def flaky_exchange(method, path, payload):
        attempts.append(path)
        if len(attempts) < 3:
            raise ApiError(503, "over-capacity", "at capacity")
        return {"ok": True}

    delays = []
    monkeypatch.setattr(client, "_exchange", flaky_exchange)
    monkeypatch.setattr(
        "repro.api.client.time.sleep", lambda seconds: delays.append(seconds)
    )
    assert client.request_json("GET", "/v1/healthz") == {"ok": True}
    assert len(attempts) == 3
    assert client.retries_performed == 2
    # the jitter is drawn from random.Random(backoff_seed): recompute it
    expected_rng = random.Random(42)
    expected = [
        0.05 * (2.0 ** attempt) * (0.5 + 0.5 * expected_rng.random())
        for attempt in range(2)
    ]
    assert delays == expected
    assert all(0.025 <= d <= 0.2 for d in delays)


def test_http_client_retry_budget_exhausts(monkeypatch):
    client = HttpClient("http://127.0.0.1:1", config=ClientConfig(retries_503=2))

    def always_full(method, path, payload):
        raise ApiError(503, "over-capacity", "at capacity")

    monkeypatch.setattr(client, "_exchange", always_full)
    monkeypatch.setattr("repro.api.client.time.sleep", lambda seconds: None)
    with pytest.raises(ApiError) as info:
        client.request_json("POST", "/v1/predict", {})
    assert info.value.code == "over-capacity"
    assert client.retries_performed == 2


def test_http_client_does_not_retry_other_errors(monkeypatch):
    client = HttpClient("http://127.0.0.1:1", config=ClientConfig(retries_503=5))
    attempts = []

    def parse_error(method, path, payload):
        attempts.append(1)
        raise ApiError(400, "sql-parse", "bad sql")

    monkeypatch.setattr(client, "_exchange", parse_error)
    with pytest.raises(ApiError):
        client.request_json("POST", "/v1/predict", {})
    assert len(attempts) == 1
    assert client.retries_performed == 0


# ---------------------------------------------------------------------------
# the online feedback loop (ISSUE 8): trajectory math + closed loop


def _point(index, online, static, shifted=False, drift=False):
    return FeedbackPoint(
        index=index,
        sql="SELECT 1",
        actual_seconds=1.0,
        shifted=shifted,
        online_covered=online,
        static_covered=static,
        drift_detected=drift,
        scale=None,
    )


class TestDriftTrajectory:
    def test_coverage_slices_and_skips_none(self):
        trajectory = DriftTrajectory(
            confidence=0.9,
            shift_index=2,
            shift_factor=3.0,
            points=(
                _point(0, True, True),
                _point(1, None, False),
                _point(2, False, False, shifted=True),
                _point(3, True, False, shifted=True),
            ),
            drifts_detected=1,
        )
        assert trajectory.coverage() == pytest.approx(2 / 3)
        assert trajectory.coverage(end=2) == pytest.approx(1.0)
        assert trajectory.post_shift_coverage() == pytest.approx(0.5)
        assert trajectory.post_shift_coverage(static=True) == 0.0
        assert trajectory.coverage(start=4) is None
        summary = trajectory.summary()
        assert summary["points"] == 4
        assert summary["drifts_detected"] == 1
        assert "feedback loop" in trajectory.render()

    def test_recovery_counts_rolling_window(self):
        # 3 misses then 10 hits after the shift: with window=4 and
        # target 0.75 the rolling mean first clears at the 6th
        # post-shift observation ([miss, hit, hit, hit] = 0.75); full
        # coverage needs one more hit to flush the last miss out.
        points = [_point(i, True, True) for i in range(2)]
        flags = [False, False, False] + [True] * 10
        points += [
            _point(2 + i, flag, False, shifted=True)
            for i, flag in enumerate(flags)
        ]
        trajectory = DriftTrajectory(
            confidence=0.9,
            shift_index=2,
            shift_factor=3.0,
            points=tuple(points),
            drifts_detected=1,
        )
        assert trajectory.recovery_observations(window=4, target=0.75) == 6
        assert trajectory.recovery_observations(window=4, target=1.0) == 7
        assert trajectory.recovery_observations(window=14, target=1.0) is None

    def test_no_shift_means_no_recovery_number(self):
        trajectory = DriftTrajectory(
            confidence=0.9,
            shift_index=None,
            shift_factor=1.0,
            points=(_point(0, True, True),),
            drifts_detected=0,
        )
        assert trajectory.recovery_observations() is None
        assert "no shift injected" in trajectory.render()

    def test_loop_validation_rejects_bad_knobs(self):
        with pytest.raises(ReproError):
            run_feedback_loop(None, None, None, confidence=1.5)
        with pytest.raises(ReproError):
            run_feedback_loop(None, None, None, shift_at=1.0)
        with pytest.raises(ReproError):
            run_feedback_loop(None, None, None, shift_factor=0.0)


def test_feedback_loop_recovers_from_injected_shift():
    """End-to-end ISSUE 8 acceptance, sized for tier-1.

    Same constants as the ``drift_recovery`` bench: the online arm must
    detect the 3x shift, re-form coverage, and beat the static mirror.
    """
    config = SessionConfig(
        scale_factor=0.01,
        db_seed=11,
        calibration_seed=0,
        calibration_repetitions=6,
        sampling_ratio=0.05,
        sampling_seed=1,
        feedback_window=64,
        feedback_min_observations=12,
        feedback_fast_window=12,
    )
    online = Session(config)
    mirror = Session(config)
    schedule = build_schedule(
        parse_mix("mixed"),
        online.database,
        ClosedLoop(clients=1, requests_per_client=80),
        seed=37,
    )
    trajectory = run_feedback_loop(
        schedule,
        InProcessTarget(online),
        mirror,
        confidence=0.9,
        shift_at=0.4,
        shift_factor=3.0,
    )
    assert len(trajectory.points) == 80
    assert trajectory.shift_index == 32
    assert trajectory.drifts_detected >= 1
    post_online = trajectory.post_shift_coverage()
    post_static = trajectory.post_shift_coverage(static=True)
    assert post_online >= 0.5
    assert post_static <= 0.3
    recovery = trajectory.recovery_observations(window=15, target=0.85)
    assert recovery is not None and recovery <= 40
    # The observations all landed on the loop's tenant, and the ack
    # trail is visible in the session's stats snapshot.
    feedback = online.stats().feedback
    assert feedback.observations == 80
    assert feedback.drifts_detected == trajectory.drifts_detected
