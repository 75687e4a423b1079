"""Unit tests for the layered serving tier (repro.serving).

Covers the layers in isolation: admission policies and their
``Retry-After`` derivation, consistent-hash routing determinism,
cross-worker stats aggregation (sums, hit-rate recombination,
None-on-zero-traffic), the SO_REUSEPORT-unavailable fallback, a shared
listening socket's losing accept, the router's byte-for-byte relay of a
forwarded answer and its local fallback on a truncated one, the client
side of the ``Retry-After`` contract, and the client's typed transport
errors.
The multi-process integration paths live in ``test_serving_pool.py``.
"""

import json
import random
import select
import socket
import threading
import warnings
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import Session, SessionConfig
from repro.api.client import RETRY_AFTER_CAP_SECONDS, ApiError, HttpClient
from repro.api.config import ClientConfig
from repro.api.wire import (
    SCHEMA_VERSION,
    AdmissionStats,
    BatchRequest,
    StatsSnapshot,
    decode,
    dumps,
    encode,
    loads,
)
from repro.caching import CacheStats
from repro.errors import ServingError, SessionError, WireError, error_code
from repro.feedback import FeedbackStats, TenantFeedback
from repro.service import ServiceReport
from repro.service.cache import plan_signature_hash
from repro.serving import (
    BoundedInFlight,
    ConsistentHashRouter,
    aggregate_report_records,
    aggregate_snapshots,
    resolve_mode,
)
from repro.serving import pool as pool_module
from repro.serving.app import SessionApp, WireApp
from repro.serving.routing import RoutedApp
from repro.serving.transport import HttpTransport, WireResponse
from repro.workloads.tpch_templates import TPCH_TEMPLATES


# ---------------------------------------------------------------------------
# admission


class TestBoundedInFlight:
    def test_admits_up_to_capacity_then_refuses(self):
        policy = BoundedInFlight(2)
        assert policy.admit()
        assert policy.admit()
        assert not policy.admit()
        policy.release()
        assert policy.admit()
        for _ in range(2):
            policy.release()

    def test_in_flight_tracks_admissions(self):
        policy = BoundedInFlight(3)
        assert policy.in_flight() == 0
        policy.admit()
        policy.admit()
        assert policy.in_flight() == 2
        policy.release()
        assert policy.in_flight() == 1
        policy.release()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(WireError, match="max_in_flight must be >= 1"):
            BoundedInFlight(0)

    def test_retry_after_is_one_second_at_refusal(self):
        # The wire contract: the pre-refactor server always sent
        # ``Retry-After: 1``; a full-but-not-overcommitted semaphore
        # must keep producing exactly that.
        policy = BoundedInFlight(4)
        for _ in range(4):
            policy.admit()
        assert not policy.admit()
        assert policy.retry_after_seconds() == 1
        for _ in range(4):
            policy.release()

    def test_retry_after_floor_is_one_when_idle(self):
        assert BoundedInFlight(8).retry_after_seconds() == 1


# ---------------------------------------------------------------------------
# routing


class TestConsistentHashRouter:
    def test_owner_is_deterministic_and_in_range(self):
        router = ConsistentHashRouter(4)
        keys = [f"plan-{i}" for i in range(200)]
        owners = [router.owner(key) for key in keys]
        assert owners == [ConsistentHashRouter(4).owner(k) for k in keys]
        assert set(owners) <= set(range(4))

    def test_single_worker_owns_everything(self):
        router = ConsistentHashRouter(1)
        assert {router.owner(f"k{i}") for i in range(50)} == {0}

    def test_ring_is_reasonably_balanced(self):
        router = ConsistentHashRouter(4)
        rng = random.Random(7)
        counts = [0, 0, 0, 0]
        for _ in range(2000):
            counts[router.owner(f"key-{rng.random()}")] += 1
        # 64 virtual nodes per worker: no worker should starve or hog.
        assert min(counts) > 2000 / 4 * 0.4
        assert max(counts) < 2000 / 4 * 2.0

    def test_hash_is_crc32_not_process_seeded(self):
        # Every worker process must compute the same owner; builtin
        # hash() is per-process randomized and must not be involved.
        router = ConsistentHashRouter(3)
        key = "SELECT * FROM orders"
        point = zlib.crc32(key.encode("utf-8"))
        assert router.owner(key) == router._owners[
            min(
                (i for i, p in enumerate(router._points) if p > point),
                default=0,
            )
        ]

    def test_scaling_preserves_most_placements(self):
        # The consistent-hashing property: growing the pool moves only
        # ~1/new_workers of the keys, not all of them.
        before = ConsistentHashRouter(3)
        after = ConsistentHashRouter(4)
        keys = [f"plan-{i}" for i in range(1000)]
        moved = sum(before.owner(k) != after.owner(k) for k in keys)
        assert moved < 600

    def test_rejects_bad_arguments(self):
        with pytest.raises(ServingError):
            ConsistentHashRouter(0)
        with pytest.raises(ServingError):
            ConsistentHashRouter(2, replicas=0)


# ---------------------------------------------------------------------------
# stats aggregation


def _report_record(
    served=0, failed=0, plans=0, prepares=0, prepare_hits=0, assemblies=0,
    cache_hits=0, cache_misses=0, entries=0,
):
    lookups = prepares + prepare_hits
    cache_lookups = cache_hits + cache_misses
    return {
        "schema_version": SCHEMA_VERSION,
        "stats": {
            "queries_served": served,
            "queries_failed": failed,
            "plans_built": plans,
            "prepares_run": prepares,
            "prepare_cache_hits": prepare_hits,
            "assemblies": assemblies,
            "prepare_hit_rate": prepare_hits / lookups if lookups else None,
        },
        "prepared_cache": {
            "hits": cache_hits,
            "misses": cache_misses,
            "evictions": 0,
            "oversized": 0,
            "hit_rate": (
                cache_hits / cache_lookups if cache_lookups else None
            ),
        },
        "prepared_entries": entries,
        "sampling_cache": {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "oversized": 0,
            "hit_rate": None,
        },
        "sampling_entries": 0,
        "sampling_bytes_used": 0,
        "sampling_bytes_budget": 1024,
    }


class TestStatsAggregation:
    def test_aggregate_of_one_record_is_identity(self):
        # workers=1 must be indistinguishable from the pre-refactor
        # server on /v1/stats — byte-identical under the wire encoder.
        record = _report_record(
            served=5, plans=5, prepares=2, prepare_hits=3,
            cache_hits=3, cache_misses=2, entries=2,
        )
        assert dumps(aggregate_report_records([record])) == dumps(record)

    def test_counters_sum_and_rates_recombine(self):
        a = _report_record(
            served=8, failed=1, plans=9, prepares=4, prepare_hits=4,
            cache_hits=4, cache_misses=4, entries=4,
        )
        b = _report_record(
            served=2, failed=0, plans=2, prepares=2, prepare_hits=0,
            cache_hits=0, cache_misses=2, entries=2,
        )
        merged = aggregate_report_records([a, b])
        assert merged["stats"]["queries_served"] == 10
        assert merged["stats"]["queries_failed"] == 1
        assert merged["stats"]["plans_built"] == 11
        # 4 hits over 10 lookups — NOT the mean of 0.5 and 0.0.
        assert merged["stats"]["prepare_hit_rate"] == pytest.approx(0.4)
        assert merged["prepared_cache"]["hits"] == 4
        assert merged["prepared_cache"]["misses"] == 6
        assert merged["prepared_cache"]["hit_rate"] == pytest.approx(0.4)
        assert merged["prepared_entries"] == 6
        assert merged["sampling_bytes_budget"] == 2048

    def test_zero_traffic_pool_reports_none_rates(self):
        merged = aggregate_report_records(
            [_report_record(), _report_record(), _report_record()]
        )
        assert merged["stats"]["prepare_hit_rate"] is None
        assert merged["prepared_cache"]["hit_rate"] is None
        assert merged["sampling_cache"]["hit_rate"] is None

    def test_aggregate_parses_as_service_report(self):
        merged = aggregate_report_records(
            [_report_record(served=3, plans=3), _report_record(served=4, plans=4)]
        )
        report = decode(ServiceReport, merged)
        assert report.stats.queries_served == 7

    def test_empty_input_raises_serving_error(self):
        with pytest.raises(ServingError):
            aggregate_report_records([])

    def test_stats_records_missing_fields_default_to_zero(self):
        merged = aggregate_report_records(
            [{"schema_version": 1}, {"stats": {"queries_served": 3}}]
        )
        assert merged["stats"]["queries_served"] == 3
        assert merged["stats"]["prepare_hit_rate"] is None
        assert merged["prepared_cache"] == encode(CacheStats())


def _v2_record(served=0, admission=None, feedback=None, **kwargs):
    record = _report_record(served=served, **kwargs)
    record["schema_version"] = 2
    if admission is not None:
        record["admission"] = encode(admission)
    if feedback is not None:
        record["feedback"] = encode(feedback)
    return record


def _tenant(
    name, observations=10, fill=10, active=True, drifts=0, last=None, scale=None
):
    return TenantFeedback(
        tenant=name,
        observations=observations,
        window_fill=fill,
        active=active,
        drifts_detected=drifts,
        last_drift_observation=last,
        scale=scale,
    )


def _feedback(*tenants):
    return FeedbackStats(
        observations=sum(t.observations for t in tenants),
        drifts_detected=sum(t.drifts_detected for t in tenants),
        tenants=tuple(tenants),
    )


class TestTypedAggregation:
    def test_single_v2_record_is_byte_identical(self):
        record = _v2_record(
            served=3,
            plans=3,
            admission=AdmissionStats(
                capacity=4, in_flight=1, admitted_total=9, refused_total=2
            ),
            feedback=_feedback(_tenant("default", drifts=1, last=8, scale=1.4)),
        )
        assert dumps(aggregate_report_records([record])) == dumps(record)

    def test_sections_sum_across_workers(self):
        a = _v2_record(
            served=2,
            admission=AdmissionStats(
                capacity=4, in_flight=1, admitted_total=10, refused_total=3
            ),
            feedback=_feedback(_tenant("alpha", observations=6, fill=6)),
        )
        b = _v2_record(
            served=5,
            admission=AdmissionStats(
                capacity=4, in_flight=0, admitted_total=7, refused_total=0
            ),
            feedback=_feedback(
                _tenant("alpha", observations=4, fill=4, active=False, drifts=2, last=9),
                _tenant("beta", observations=1, fill=1, scale=2.0),
            ),
        )
        merged = StatsSnapshot.from_dict(aggregate_report_records([a, b]))
        assert merged.admission == AdmissionStats(
            capacity=8, in_flight=1, admitted_total=17, refused_total=3
        )
        alpha, beta = merged.feedback.tenants
        assert alpha.observations == 10
        assert alpha.window_fill == 10
        assert alpha.active  # any shard active
        assert alpha.drifts_detected == 2
        assert alpha.last_drift_observation == 9
        assert beta.scale == 2.0  # exactly one shard reported one
        assert merged.feedback.observations == 11

    def test_conformal_scale_dropped_when_shards_disagree(self):
        # Quantiles of disjoint windows do not combine; a pool-wide
        # scale is only honest when exactly one shard owns the window.
        a = _v2_record(feedback=_feedback(_tenant("t", scale=1.5)))
        b = _v2_record(feedback=_feedback(_tenant("t", scale=2.5)))
        merged = StatsSnapshot.from_dict(aggregate_report_records([a, b]))
        (tenant,) = merged.feedback.tenants
        assert tenant.scale is None

    def test_version_stamp_is_max_of_inputs(self):
        v1 = _report_record(served=1)
        v1["schema_version"] = 1
        v2 = _v2_record(
            served=2,
            feedback=_feedback(_tenant("t")),
        )
        merged = aggregate_report_records([v1, v2])
        assert merged["schema_version"] == 2
        assert "feedback" in merged
        only_v1 = aggregate_report_records([v1, dict(v1)])
        assert only_v1["schema_version"] == 1
        assert "feedback" not in only_v1
        assert "admission" not in only_v1

    def test_aggregate_snapshots_typed_round_trip(self):
        snapshots = [
            StatsSnapshot.from_dict(_v2_record(served=3)),
            StatsSnapshot.from_dict(_v2_record(served=4)),
        ]
        pooled = aggregate_snapshots(snapshots)
        assert pooled.stats.queries_served == 7
        assert pooled.admission is None
        assert pooled.feedback is None
        with pytest.raises(ServingError):
            aggregate_snapshots([])


# ---------------------------------------------------------------------------
# pool mode resolution (the SO_REUSEPORT-unavailable fallback)


class TestResolveMode:
    def test_explicit_modes_pass_through(self, monkeypatch):
        monkeypatch.setattr(pool_module, "reuseport_available", lambda: True)
        assert resolve_mode("handoff") == "handoff"
        assert resolve_mode("reuseport") == "reuseport"

    def test_auto_prefers_reuseport_when_available(self, monkeypatch):
        monkeypatch.setattr(pool_module, "reuseport_available", lambda: True)
        assert resolve_mode("auto") == "reuseport"

    def test_auto_falls_back_to_handoff_without_reuseport(self, monkeypatch):
        monkeypatch.setattr(pool_module, "reuseport_available", lambda: False)
        assert resolve_mode("auto") == "handoff"

    def test_explicit_reuseport_errors_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(pool_module, "reuseport_available", lambda: False)
        with pytest.raises(ServingError, match="SO_REUSEPORT"):
            resolve_mode("reuseport")

    def test_unknown_mode_is_a_serving_error(self):
        with pytest.raises(ServingError, match="unknown serving mode"):
            resolve_mode("round-robin")

    def test_serving_error_carries_wire_code(self):
        assert error_code(ServingError("boom")) == "serving"


# ---------------------------------------------------------------------------
# client configuration (ClientConfig)


class TestClientConfig:
    URL = "http://127.0.0.1:1"

    def test_default_config(self):
        client = HttpClient(self.URL)
        assert client.config == ClientConfig()
        assert client.config.wire_version == SCHEMA_VERSION

    def test_timeout_positional_folds_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            client = HttpClient(self.URL, 5.0)
        assert client.config == ClientConfig(timeout=5.0)

    def test_bad_timeout_is_bad_request(self):
        with pytest.raises(ApiError) as caught:
            HttpClient(self.URL, 0.0)
        assert caught.value.code == "bad-request"
        assert "timeout" in caught.value.remote_message

    def test_json_round_trip(self):
        config = ClientConfig(
            timeout=12.0, retries_503=3, backoff_seconds=0.2, backoff_seed=9,
            observe_tenant="replica-a",
        )
        record = json.loads(json.dumps(config.to_dict()))
        assert ClientConfig.from_dict(record) == config
        # Unknown fields from a newer writer are ignored.
        record["future_knob"] = True
        assert ClientConfig.from_dict(record) == config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"retries_503": -1},
            {"backoff_seconds": 0.0},
            {"retry_after_cap_seconds": 0.0},
            {"wire_version": 3},
            {"observe_tenant": ""},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SessionError):
            ClientConfig(**kwargs)


# ---------------------------------------------------------------------------
# transport: one listening socket shared by several workers


class _HealthApp(WireApp):
    def health(self):
        return {"schema_version": SCHEMA_VERSION, "status": "ok"}

    def handle_get(self, path):
        return WireResponse(200, self.health())


class TestSharedListeningSocket:
    def test_losing_accept_returns_instead_of_blocking(self):
        # Handoff workers adopt one listening socket, and every worker's
        # serve loop wakes on each new connection. One accept wins; the
        # loser must fall back to its loop, where it can see shutdown(),
        # instead of blocking until some later connection arrives.
        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()
        first = HttpTransport.from_listening_socket(_HealthApp(), listener)
        second = HttpTransport.from_listening_socket(_HealthApp(), listener)
        loser = threading.Thread(target=second._handle_request_noblock)
        try:
            with socket.create_connection(address, timeout=5.0) as conn:
                assert select.select([listener], [], [], 5.0)[0]
                first._handle_request_noblock()
                loser.start()
                loser.join(2.0)
                assert not loser.is_alive(), "losing accept() blocked"
                conn.sendall(
                    b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n"
                    b"Connection: close\r\n\r\n"
                )
                reply = b""
                while chunk := conn.recv(65536):
                    reply += chunk
            assert reply.startswith(b"HTTP/1.1 200")
            assert reply.endswith(dumps(_HealthApp().health()).encode())
        finally:
            if loser.is_alive():
                # Release the blocked accept so no thread outlives the test.
                socket.create_connection(address, timeout=5.0).close()
                loser.join(5.0)
            first.server_close()
            second.server_close()
        assert not loser.is_alive()


#: A reply that declares more body than it sends before hanging up.
TRUNCATED_REPLY = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 100\r\n\r\n{\"schema_version\": "
)


@contextmanager
def _one_shot_peer(answer):
    """A raw-socket server for one connection: it reads the request,
    then ``answer(conn)`` decides what (if anything) goes back before
    the connection closes. Yields the server's base URL."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as request:
            conn.settimeout(10.0)
            length = 0
            while (line := request.readline()) not in (b"\r\n", b""):
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            request.read(length)
            answer(conn)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield "http://127.0.0.1:%d" % listener.getsockname()[1]
    finally:
        thread.join(10.0)
        listener.close()
    assert not thread.is_alive()


class _Recording(WireApp):
    """Passes POSTs through and keeps every answer it gave."""

    def __init__(self, inner):
        self.inner = inner
        self.answers = []

    def handle_post(self, path, read_body):
        response = self.inner.handle_post(path, read_body)
        self.answers.append(response)
        return response


class TestRoutedRelay:
    def test_forwarded_batch_bytes_equal_the_owners_answer(
        self, tpch_db, calibrated_units
    ):
        # Worker 0 forwards a batch whose first query worker 1 owns; the
        # owner's 200 body must reach the client byte for byte, not
        # decoded and re-encoded on the way.
        session = Session.from_components(
            tpch_db, calibrated_units,
            SessionConfig(sampling_ratio=0.05, sampling_seed=3),
        )
        router = ConsistentHashRouter(2)
        rng = np.random.default_rng(5)
        queries = [
            TPCH_TEMPLATES[i % len(TPCH_TEMPLATES)].instantiate(rng)
            for i in range(24)
        ]
        owned = [
            sql for sql in queries
            if router.owner_point(plan_signature_hash(session.plan(sql))) == 1
        ]
        assert owned
        owner = _Recording(SessionApp(session))
        transport = HttpTransport(owner)
        serving = threading.Thread(target=transport.serve_forever)
        serving.start()
        try:
            front = RoutedApp(
                SessionApp(session), session, router,
                {0: "http://127.0.0.1:9", 1: transport.url}, self_index=0,
            )
            record = BatchRequest(
                queries=tuple(owned[:3]) + ("SELEC nope",),
                variants=("all", "nocov"), mpls=(1, 4),
                confidences=(0.5, 0.9),
            ).to_dict(version=1)
            relayed = front.handle_post("/v1/predict-batch", lambda: record)
        finally:
            transport.shutdown()
            serving.join(10.0)
            transport.server_close()
        (answer,) = owner.answers
        assert relayed.status == 200
        assert answer.body is not None
        assert relayed.body == answer.body
        assert relayed.record["schema_version"] == 1
        assert relayed.record == loads(answer.body)
        session.close()

    def test_truncated_peer_reply_is_served_locally(
        self, tpch_db, calibrated_units
    ):
        # The owner hangs up partway through its answer: the router must
        # treat it as unreachable and serve the request itself, not 500.
        session = Session.from_components(
            tpch_db, calibrated_units,
            SessionConfig(sampling_ratio=0.05, sampling_seed=3),
        )
        router = ConsistentHashRouter(2)
        rng = np.random.default_rng(5)
        sql = next(
            sql
            for sql in (
                TPCH_TEMPLATES[i % len(TPCH_TEMPLATES)].instantiate(rng)
                for i in range(24)
            )
            if router.owner_point(plan_signature_hash(session.plan(sql))) == 1
        )
        record = {"sql": sql}
        local = SessionApp(session)
        with _one_shot_peer(lambda conn: conn.sendall(TRUNCATED_REPLY)) as url:
            front = RoutedApp(local, session, router, {1: url}, self_index=0)
            served = front.handle_post("/v1/predict", lambda: record)
        assert served.status == 200
        # This worker prepared the plan itself: the next local answer is
        # the same one, from its cache.
        assert served.record["prepare_was_cached"] is False
        again = local.handle_post("/v1/predict", lambda: record).record
        assert again["prepare_was_cached"] is True
        assert served.record["results"] == again["results"]
        session.close()


# ---------------------------------------------------------------------------
# client transport errors


class TestClientTransportErrors:
    """Failures after the connection is made are ``ApiError(0,
    "transport")``, like a refused connection, not raw stdlib errors."""

    @pytest.mark.parametrize("answer", [
        pytest.param(lambda conn: None, id="closes-without-answering"),
        pytest.param(
            lambda conn: conn.sendall(TRUNCATED_REPLY), id="truncated-body"
        ),
    ])
    def test_broken_reply_is_transport_error(self, answer):
        with _one_shot_peer(answer) as url:
            with pytest.raises(ApiError) as caught:
                HttpClient(url, timeout=10.0).healthz()
        assert caught.value.status == 0
        assert caught.value.code == "transport"

    def test_silence_past_the_timeout_is_transport_error(self):
        released = threading.Event()
        with _one_shot_peer(lambda conn: released.wait(10.0)) as url:
            try:
                with pytest.raises(ApiError) as caught:
                    HttpClient(url, timeout=0.3).healthz()
            finally:
                released.set()
        assert caught.value.status == 0
        assert caught.value.code == "transport"

    def test_refused_connection_is_transport_error(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()
        with pytest.raises(ApiError) as caught:
            HttpClient(f"http://127.0.0.1:{port}", timeout=5.0).healthz()
        assert caught.value.code == "transport"


# ---------------------------------------------------------------------------
# client Retry-After honoring


class TestClientRetryAfter:
    def test_structured_error_carries_retry_after(self):
        error = ApiError(503, "over-capacity", "full", retry_after=1.0)
        assert error.retry_after == 1.0
        # And stays optional: taxonomy tests construct it without one.
        assert ApiError(400, "sql-parse", "bad").retry_after is None

    def test_hint_raises_base_to_retry_after(self):
        client = HttpClient(
            "http://127.0.0.1:1",
            config=ClientConfig(
                retries_503=3, backoff_seconds=0.05, backoff_seed=42
            ),
        )
        # Same jitter stream as the pure-exponential schedule, but the
        # base for attempt 0 is lifted from 0.05s to the server's 1s.
        expected = 1.0 * (0.5 + 0.5 * random.Random(42).random())
        assert client._backoff_delay(0, retry_after=1.0) == pytest.approx(
            expected
        )
        assert client.retries_performed == 1

    def test_longer_exponential_base_is_not_shortened(self):
        client = HttpClient(
            "http://127.0.0.1:1",
            config=ClientConfig(
                retries_503=8, backoff_seconds=0.05, backoff_seed=7
            ),
        )
        # At attempt 6 the exponential base (3.2s) exceeds the 1s hint;
        # the server hint must not make the client retry *sooner*.
        jitter = random.Random(7).random()
        expected = 0.05 * 2.0**6 * (0.5 + 0.5 * jitter)
        assert client._backoff_delay(6, retry_after=1.0) == pytest.approx(
            expected
        )

    def test_hint_is_capped(self):
        client = HttpClient(
            "http://127.0.0.1:1",
            config=ClientConfig(
                retries_503=1, backoff_seconds=0.05, backoff_seed=3
            ),
        )
        jitter = random.Random(3).random()
        expected = RETRY_AFTER_CAP_SECONDS * (0.5 + 0.5 * jitter)
        assert client._backoff_delay(0, retry_after=3600.0) == pytest.approx(
            expected
        )

    def test_no_hint_keeps_exponential_schedule(self):
        client = HttpClient(
            "http://127.0.0.1:1",
            config=ClientConfig(
                retries_503=2, backoff_seconds=0.05, backoff_seed=42
            ),
        )
        rng = random.Random(42)
        expected = [
            0.05 * 2.0**attempt * (0.5 + 0.5 * rng.random())
            for attempt in range(2)
        ]
        got = [client._backoff_delay(attempt) for attempt in range(2)]
        assert got == pytest.approx(expected)
        assert client.retries_performed == 2
