"""The versioned wire schema round-trips bitwise and rejects bad input.

Every object that crosses the HTTP boundary must survive
``to_dict -> json -> from_dict`` **exactly** (Python float repr is
lossless), tolerate unknown fields, refuse foreign schema versions, and
never emit NaN/inf (a variance-0 point mass serializes as plain zeros).
"""

import dataclasses
import json

import pytest

from repro.api import wire
from repro.api.wire import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    AdmissionStats,
    BatchRequest,
    BatchResponse,
    FeedbackApplied,
    IntervalPayload,
    Observation,
    ObserveResponse,
    PredictRequest,
    PredictResponse,
    ResultPayload,
    StatsSnapshot,
    check_emit_version,
    check_schema_version,
    decode,
    dumps,
    encode,
    error_body,
    loads,
)
from repro.feedback import FeedbackStats, TenantFeedback
from repro.caching import CacheStats
from repro.errors import (
    PredictionError,
    SqlParseError,
    WireError,
    error_code,
)
from repro.service import QueryFailure, ServiceReport, ServiceStats
from repro.util import ensure_rng


def rt(record):
    """One JSON round-trip of a wire dict, strict mode."""
    return json.loads(dumps(record))


def random_response(rng, sql="SELECT 1", point_mass=False) -> PredictResponse:
    """A synthetic response with adversarial float values."""
    results = []
    for variant, mpl in (("all", 1), ("nocov", 4)):
        if point_mass:
            mean, variance, std = float(rng.uniform(0, 10)), 0.0, 0.0
        else:
            mean = float(rng.uniform(0, 1000))
            std = float(rng.uniform(0, 50))
            variance = std * std
        intervals = tuple(
            IntervalPayload(c, mean - std, mean + std) for c in (0.5, 0.9)
        )
        results.append(
            ResultPayload(
                variant=variant, mpl=mpl, mean=mean, variance=variance,
                std=std, intervals=intervals,
            )
        )
    return PredictResponse(
        sql=sql, results=tuple(results),
        prepare_was_cached=bool(rng.integers(2)),
    )


class TestRequests:
    def test_predict_request_round_trip(self):
        request = PredictRequest(
            sql="SELECT 1", variants=("all", "nocov"), mpls=(1, 4),
            confidences=(0.5, 0.99),
        )
        assert PredictRequest.from_dict(rt(request.to_dict())) == request

    def test_defaults_stay_none_on_the_wire(self):
        request = PredictRequest(sql="SELECT 1")
        record = request.to_dict()
        assert "variants" not in record and "mpls" not in record
        assert PredictRequest.from_dict(rt(record)) == request

    def test_batch_request_round_trip(self):
        batch = BatchRequest(
            queries=("SELECT 1", "SELECT 2"), mpls=(1, 2),
            skip_failures=False,
        )
        assert BatchRequest.from_dict(rt(batch.to_dict())) == batch

    def test_empty_sql_rejected(self):
        with pytest.raises(WireError):
            PredictRequest(sql="   ")
        with pytest.raises(WireError):
            PredictRequest.from_dict({"schema_version": SCHEMA_VERSION})

    def test_invalid_fanout_is_a_payload_error(self):
        """Bad variants/mpls/confidences are WireErrors (HTTP 400), not
        engine errors (which would surface as 422)."""
        with pytest.raises(WireError):
            PredictRequest(sql="SELECT 1", variants=("warp-speed",))
        with pytest.raises(WireError):
            PredictRequest(sql="SELECT 1", mpls=(0,))
        with pytest.raises(WireError):
            PredictRequest(sql="SELECT 1", confidences=(1.5,))
        with pytest.raises(WireError):
            BatchRequest(queries=("SELECT 1",), variants=("warp-speed",))

    def test_bad_mpls_payload_rejected(self):
        with pytest.raises(WireError):
            PredictRequest.from_dict({"sql": "SELECT 1", "mpls": "1,2"})
        with pytest.raises(WireError):
            PredictRequest.from_dict({"sql": "SELECT 1", "mpls": ["one"]})


class TestResponses:
    def test_property_round_trip_random_responses(self):
        """Many random responses survive JSON bitwise, dataclass-equal."""
        rng = ensure_rng(1234)
        for case in range(50):
            response = random_response(rng, sql=f"SELECT {case}")
            decoded = PredictResponse.from_dict(rt(response.to_dict()))
            assert decoded == response  # exact float equality via __eq__

    def test_point_mass_serializes_nan_inf_free(self):
        """Variance-0 responses emit only finite JSON numbers."""
        rng = ensure_rng(7)
        response = random_response(rng, point_mass=True)
        text = dumps(response.to_dict())
        assert "NaN" not in text and "Infinity" not in text
        decoded = PredictResponse.from_dict(json.loads(text))
        assert decoded == response
        assert decoded.results[0].variance == 0.0
        assert decoded.results[0].std == 0.0

    def test_non_finite_values_refused_at_serialization(self):
        payload = ResultPayload(
            variant="all", mpl=1, mean=float("nan"), variance=1.0,
            std=1.0, intervals=(),
        )
        with pytest.raises(WireError):
            encode(payload)
        with pytest.raises(WireError):
            dumps({"schema_version": SCHEMA_VERSION, "value": float("inf")})

    def test_result_lookup_and_interval_lookup(self):
        rng = ensure_rng(3)
        response = random_response(rng)
        cell = response.result("nocov", 4)
        assert cell.variant == "nocov" and cell.mpl == 4
        assert cell.interval(0.9).confidence == 0.9
        with pytest.raises(WireError):
            response.result("all", 99)
        with pytest.raises(WireError):
            cell.interval(0.42)

    def test_unknown_fields_tolerated(self):
        rng = ensure_rng(11)
        record = random_response(rng).to_dict()
        record["deployment_zone"] = "us-east-1"
        record["results"][0]["novel_diagnostic"] = {"depth": 3}
        decoded = PredictResponse.from_dict(record)
        assert decoded.results[0].mean == record["results"][0]["mean"]


class TestSchemaVersion:
    def test_supported_versions_accepted(self):
        for version in SUPPORTED_SCHEMA_VERSIONS:
            assert check_schema_version({"schema_version": version}) == version
        # absent -> assumed current
        assert check_schema_version({}) == SCHEMA_VERSION

    @pytest.mark.parametrize("version", [0, 3, 99, "1.0", "2", True, None])
    def test_foreign_version_rejected(self, version):
        with pytest.raises(WireError) as caught:
            check_schema_version({"schema_version": version})
        assert caught.value.code == "schema-version"

    @pytest.mark.parametrize("version", [0, 3, "2", None])
    def test_foreign_emit_version_rejected(self, version):
        with pytest.raises(WireError) as caught:
            check_emit_version(version)
        assert caught.value.code == "schema-version"

    def test_rejection_covers_every_top_level_reader(self):
        foreign = {"schema_version": SCHEMA_VERSION + 1}
        for reader in (
            PredictRequest.from_dict,
            BatchRequest.from_dict,
            PredictResponse.from_dict,
            BatchResponse.from_dict,
            Observation.from_dict,
            ObserveResponse.from_dict,
            StatsSnapshot.from_dict,
            lambda record: decode(ServiceReport, record),
        ):
            with pytest.raises(WireError):
                reader(dict(foreign))


class TestServiceRecords:
    def test_query_failure_round_trip(self):
        failure = QueryFailure(
            index=3, sql="SELEC nope",
            error="SqlParseError: expected SELECT", code="sql-parse",
        )
        assert decode(QueryFailure, rt(encode(failure))) == failure

    def test_query_failure_none_sql(self):
        failure = QueryFailure(index=0, sql=None, error="boom")
        decoded = decode(QueryFailure, rt(encode(failure)))
        assert decoded.sql is None and decoded.code == "internal"

    def test_service_stats_round_trip_and_null_hit_rate(self):
        idle = ServiceStats()
        record = rt(encode(idle))
        assert record["prepare_hit_rate"] is None  # JSON null, not 0.0
        assert decode(ServiceStats, record) == idle

        busy = ServiceStats(
            queries_served=7, queries_failed=1, plans_built=4,
            prepares_run=3, prepare_cache_hits=9, assemblies=28,
        )
        record = rt(encode(busy))
        assert record["prepare_hit_rate"] == pytest.approx(9 / 12)
        assert decode(ServiceStats, record) == busy

    def test_cache_stats_round_trip(self):
        stats = CacheStats(hits=5, misses=3, evictions=2, oversized=1)
        assert decode(CacheStats, rt(encode(stats))) == stats
        assert rt(encode(CacheStats()))["hit_rate"] is None

    def test_service_report_round_trip(self):
        report = ServiceReport(
            stats=ServiceStats(queries_served=2, prepares_run=2),
            prepared_cache=CacheStats(hits=1, misses=2),
            prepared_entries=2,
            sampling_cache=CacheStats(hits=40, misses=8, evictions=3),
            sampling_entries=12,
            sampling_bytes_used=4096,
            sampling_bytes_budget=1 << 20,
        )
        decoded = decode(ServiceReport, rt(encode(report)))
        assert decoded == report
        # and the rendering helpers still work on the decoded copy
        assert "prepared cache" in "\n".join(decoded.cache_lines())

    def test_batch_response_round_trip(self):
        rng = ensure_rng(99)
        batch = BatchResponse(
            responses=(random_response(rng), random_response(rng, "SELECT 2")),
            failures=(QueryFailure(1, "SELEC", "parse", code="sql-parse"),),
            elapsed_seconds=0.125,
            stats=ServiceStats(queries_served=2, prepares_run=2),
        )
        assert BatchResponse.from_dict(rt(batch.to_dict())) == batch


class TestErrorBodies:
    def test_error_body_carries_stable_code(self):
        body = error_body(SqlParseError("expected SELECT at position 0"))
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["error"]["code"] == "sql-parse"
        assert body["error"]["type"] == "SqlParseError"
        assert "expected SELECT" in body["error"]["message"]

    def test_error_codes_cover_the_hierarchy(self):
        assert error_code(SqlParseError("x")) == "sql-parse"
        assert error_code(PredictionError("x")) == "prediction"
        assert error_code(WireError("x")) == "bad-request"
        assert error_code(WireError("x", code="schema-version")) == "schema-version"
        assert error_code(ValueError("x")) == "internal"

    def test_loads_rejects_non_json_and_non_objects(self):
        with pytest.raises(WireError) as caught:
            loads(b"not json {")
        assert caught.value.code == "bad-json"
        with pytest.raises(WireError):
            loads(b"[1, 2, 3]")
        # An integer literal past python's int-conversion limit, and
        # nesting past the recursion limit.
        deep = "[" * 100_000 + "]" * 100_000
        for text in ('{"mpls": [%s]}' % ("1" * 5000), deep):
            with pytest.raises(WireError) as caught:
                loads(text)
            assert caught.value.code == "bad-json"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_loads_refuses_what_dumps_refuses(self, token):
        """The NaN/Infinity tokens python's json module accepts are not
        JSON: ``dumps`` never writes them, and ``loads`` refuses them."""
        with pytest.raises(WireError) as caught:
            loads('{"sql": "S", "confidences": [%s]}' % token)
        assert caught.value.code == "bad-json"
        with pytest.raises(WireError):
            dumps({"x": float(token.lower().replace("infinity", "inf"))})


def sample_feedback_stats() -> FeedbackStats:
    return FeedbackStats(
        observations=40,
        drifts_detected=1,
        tenants=(
            TenantFeedback(
                tenant="default", observations=25, window_fill=25,
                active=True, drifts_detected=1, last_drift_observation=12,
                scale=1.75,
            ),
            TenantFeedback(
                tenant="reporting", observations=15, window_fill=15,
                active=False, drifts_detected=0,
                last_drift_observation=None, scale=None,
            ),
        ),
    )


class TestObservations:
    def test_observation_round_trip(self):
        observation = Observation(
            sql="SELECT 1", actual_seconds=2.5, tenant="reporting",
            predicted_mean=2.0, predicted_std=0.5, variant="nocov", mpl=4,
        )
        assert Observation.from_dict(rt(observation.to_dict())) == observation

    def test_observation_without_prediction_round_trips(self):
        observation = Observation(sql="SELECT 1", actual_seconds=0.25)
        record = observation.to_dict()
        assert "predicted_mean" not in record
        assert Observation.from_dict(rt(record)) == observation

    def test_observation_is_v2_only(self):
        observation = Observation(sql="SELECT 1", actual_seconds=1.0)
        with pytest.raises(WireError) as caught:
            observation.to_dict(1)
        assert caught.value.code == "schema-version"
        record = observation.to_dict()
        record["schema_version"] = 1
        with pytest.raises(WireError) as caught:
            Observation.from_dict(record)
        assert caught.value.code == "schema-version"

    def test_observation_validation(self):
        with pytest.raises(WireError):
            Observation(sql="  ", actual_seconds=1.0)
        with pytest.raises(WireError):
            Observation(sql="SELECT 1", actual_seconds=-1.0)
        with pytest.raises(WireError):  # mean without std
            Observation(sql="SELECT 1", actual_seconds=1.0, predicted_mean=2.0)
        with pytest.raises(WireError):
            Observation(
                sql="SELECT 1", actual_seconds=1.0,
                predicted_mean=1.0, predicted_std=-0.5,
            )

    def test_observe_response_round_trip(self):
        for scale in (None, 1.25):
            ack = ObserveResponse(
                tenant="default", observations=21, window_fill=21,
                active=True, drift_detected=False, drifts_total=0,
                scale=scale,
            )
            assert ObserveResponse.from_dict(rt(ack.to_dict())) == ack


class TestCrossVersion:
    """v1 emission is the explicit down-conversion the server performs."""

    def test_v1_request_form_has_no_v2_fields(self):
        request = PredictRequest(sql="SELECT 1", confidences=(0.9,))
        record = request.to_dict(1)
        assert record["schema_version"] == 1
        assert "tenant" not in record
        assert PredictRequest.from_dict(rt(record)) == request

    def test_tenant_cannot_be_emitted_at_v1(self):
        request = PredictRequest(sql="SELECT 1", tenant="reporting")
        with pytest.raises(WireError) as caught:
            request.to_dict(1)
        assert caught.value.code == "schema-version"
        batch = BatchRequest(queries=("SELECT 1",), tenant="reporting")
        with pytest.raises(WireError):
            batch.to_dict(1)

    def test_v1_reader_ignores_tenant(self):
        """A v1 server's tolerance: the field is unknown, not an error."""
        record = PredictRequest(sql="SELECT 1", tenant="reporting").to_dict()
        record["schema_version"] = 1
        decoded = PredictRequest.from_dict(record)
        assert decoded.tenant is None

    def test_response_down_conversion_drops_feedback(self):
        rng = ensure_rng(21)
        base = random_response(rng)
        annotated = PredictResponse(
            sql=base.sql, results=base.results,
            prepare_was_cached=base.prepare_was_cached,
            feedback=FeedbackApplied(
                tenant="default", observations=30,
                scales=((0.5, 0.9), (0.9, None)),
            ),
        )
        v1 = annotated.to_dict(1)
        assert v1["schema_version"] == 1 and "feedback" not in v1
        # byte-identical to the same response never annotated
        assert dumps(v1) == dumps(base.to_dict(1))
        v2 = annotated.to_dict()
        assert PredictResponse.from_dict(rt(v2)) == annotated
        assert PredictResponse.from_dict(rt(v2)).feedback.scales[1][1] is None

    def test_batch_response_version_threads_to_members(self):
        rng = ensure_rng(5)
        batch = BatchResponse(
            responses=(random_response(rng),), failures=(),
            elapsed_seconds=0.5, stats=ServiceStats(queries_served=1),
        )
        record = batch.to_dict(1)
        assert record["schema_version"] == 1
        assert record["responses"][0]["schema_version"] == 1

    def test_stats_snapshot_cross_version(self):
        report = ServiceReport(
            stats=ServiceStats(queries_served=2, prepares_run=2),
            prepared_cache=CacheStats(hits=1, misses=2),
            prepared_entries=2,
            sampling_cache=CacheStats(hits=4, misses=1),
            sampling_entries=3,
            sampling_bytes_used=1024,
            sampling_bytes_budget=1 << 20,
        )
        snapshot = StatsSnapshot(
            report=report,
            admission=AdmissionStats(
                capacity=8, in_flight=1, admitted_total=10, refused_total=2
            ),
            feedback=sample_feedback_stats(),
        )
        # v1: exactly the flat report a pre-feedback server wrote
        v1 = snapshot.to_dict(1)
        assert dumps(v1) == dumps(encode(report, version=1))
        decoded_v1 = StatsSnapshot.from_dict(rt(v1))
        assert decoded_v1.admission is None and decoded_v1.feedback is None
        assert decoded_v1.report == report
        # v2: sections survive the round trip exactly
        decoded_v2 = StatsSnapshot.from_dict(rt(snapshot.to_dict()))
        assert decoded_v2 == snapshot
        assert "feedback" in snapshot.render()

    def test_feedback_section_round_trip(self):
        stats = sample_feedback_stats()
        assert decode(FeedbackStats, rt(encode(stats))) == stats

    def test_error_bodies_stamp_the_requested_version(self):
        body = error_body(WireError("nope"), version=1)
        assert body["schema_version"] == 1
        assert body["error"]["code"] == "bad-request"

    def test_cross_version_property_round_trip(self):
        """Random responses survive emission at every supported version."""
        rng = ensure_rng(4321)
        for case in range(25):
            response = random_response(rng, sql=f"SELECT {case}")
            for version in SUPPORTED_SCHEMA_VERSIONS:
                record = rt(response.to_dict(version))
                assert record["schema_version"] == version
                assert PredictResponse.from_dict(record) == response


class TestFieldTables:
    """One table per record drives both directions, so it must be whole."""

    def test_every_wire_record_has_a_table(self):
        assert set(wire._TABLES) == {
            PredictRequest, BatchRequest, IntervalPayload, ResultPayload,
            FeedbackApplied, PredictResponse, BatchResponse, QueryFailure,
            ServiceStats, CacheStats, ServiceReport, TenantFeedback,
            FeedbackStats, AdmissionStats, wire.SchedulerStats, Observation,
            ObserveResponse, StatsSnapshot,
        }

    @pytest.mark.parametrize("cls", list(wire._TABLES), ids=lambda c: c.__name__)
    def test_rows_match_dataclass_fields_in_order(self, cls):
        rows = [field for field in wire._TABLES[cls].fields if not field.derived]
        assert [row.key for row in rows] == [
            field.name for field in dataclasses.fields(cls)
        ]
        # Decoding is positional: an older version reads a prefix of the
        # rows and leaves the newer, trailing ones at their defaults.
        versions = [row.since for row in rows]
        assert versions == sorted(versions)

    def test_derived_rows_are_encoded_never_decoded(self):
        busy = ServiceStats(prepares_run=1, prepare_cache_hits=3)
        record = encode(busy)
        assert record["prepare_hit_rate"] == 0.75
        record["prepare_hit_rate"] = "ignored"
        assert decode(ServiceStats, record) == busy


class TestKinds:
    """JSON values of the wrong kind are 400s naming record and field."""

    @pytest.mark.parametrize(
        "cls, record, field",
        [
            (PredictRequest, {"sql": "S", "mpls": [1.7]}, "mpls"),
            (PredictRequest, {"sql": "S", "mpls": [True]}, "mpls"),
            (PredictRequest, {"sql": "S", "mpls": [float("inf")]}, "mpls"),
            (PredictRequest, {"sql": "S", "variants": [1]}, "variants"),
            (PredictRequest, {"sql": "S", "confidences": ["x"]}, "confidences"),
            (PredictRequest, {"sql": ["S"]}, "sql"),
            (PredictRequest, {"sql": "S", "tenant": 7}, "tenant"),
            (PredictRequest, {"sql": "S", "deadline_ms": 2.5}, "deadline_ms"),
            (BatchRequest, {"queries": ["S"], "skip_failures": "no"}, "skip_failures"),
            (BatchRequest, {"queries": ["S"], "skip_failures": 0}, "skip_failures"),
            (BatchRequest, {"queries": "S"}, "queries"),
            (Observation, {"sql": "S", "actual_seconds": "x"}, "actual_seconds"),
            (Observation, {"sql": "S", "actual_seconds": [1]}, "actual_seconds"),
            (Observation, {"sql": "S", "actual_seconds": 1, "mpl": "x"}, "mpl"),
            (Observation, {"sql": "S", "actual_seconds": 1, "mpl": 1e300}, "mpl"),
            (ObserveResponse, {"active": "yes"}, "active"),
            # Float fields take finite JSON numbers only.
            (PredictRequest, {"sql": "S", "confidences": ["0.9"]}, "confidences"),
            (PredictRequest, {"sql": "S", "confidences": [True]}, "confidences"),
            (Observation, {"sql": "S", "actual_seconds": True}, "actual_seconds"),
            (Observation, {"sql": "S", "actual_seconds": "2.5"}, "actual_seconds"),
            (
                Observation,
                {"sql": "S", "actual_seconds": float("inf")},
                "actual_seconds",
            ),
            (
                ObserveResponse,
                {"scale": float("nan"), "window_fill": 1, "observations": 1},
                "scale",
            ),
        ],
    )
    def test_wrong_kind_names_the_field(self, cls, record, field):
        with pytest.raises(WireError) as caught:
            cls.from_dict(record)
        assert caught.value.code == "bad-request"
        assert f"{cls.__name__}.{field}" in str(caught.value)

    @pytest.mark.parametrize(
        "record, field",
        [
            ({"confidence": 0.9, "low": "Infinity", "high": "nan"}, "low"),
            ({"confidence": 0.9, "low": 1.0, "high": "nan"}, "high"),
            ({"confidence": 0.9, "low": float("-inf"), "high": 1.0}, "low"),
            ({"confidence": 0.9, "low": 1.0, "high": float("nan")}, "high"),
            ({"confidence": True, "low": 1.0, "high": 2.0}, "confidence"),
            ({"confidence": "0.9", "low": 1.0, "high": 2.0}, "confidence"),
            ({"confidence": 0.9, "low": None, "high": 2.0}, "low"),
            ({"confidence": 0.9, "low": 10**400, "high": 2.0}, "low"),
        ],
    )
    def test_floats_are_finite_json_numbers(self, record, field):
        with pytest.raises(WireError) as caught:
            decode(IntervalPayload, record)
        assert caught.value.code == "bad-request"
        assert f"IntervalPayload.{field}" in str(caught.value)

    def test_integers_decode_as_floats(self):
        interval = decode(IntervalPayload, {"confidence": 0.9, "low": 0, "high": 2})
        assert interval == IntervalPayload(0.9, 0.0, 2.0)
        assert type(interval.low) is float and type(interval.high) is float

    def test_feedback_scales_are_strict(self):
        record = {
            "tenant": "t", "observations": 3,
            "scales": [{"confidence": "0.5", "scale": 1.0}],
        }
        with pytest.raises(WireError) as caught:
            decode(FeedbackApplied, record)
        assert "FeedbackApplied.scales" in str(caught.value)
        record["scales"] = [{"confidence": 0.5, "scale": True}]
        with pytest.raises(WireError):
            decode(FeedbackApplied, record)

    def test_missing_required_key_names_it(self):
        with pytest.raises(WireError) as caught:
            Observation.from_dict({"sql": "SELECT 1"})
        assert caught.value.code == "bad-request"
        assert "Observation needs 'actual_seconds'" in str(caught.value)

    def test_nested_failure_names_the_innermost_field(self):
        record = BatchResponse(
            responses=(random_response(ensure_rng(2)),), failures=(),
            elapsed_seconds=0.5, stats=ServiceStats(),
        ).to_dict()
        record["responses"][0]["results"][1]["intervals"][0]["low"] = "low"
        with pytest.raises(WireError) as caught:
            BatchResponse.from_dict(record)
        assert caught.value.code == "bad-request"
        assert "IntervalPayload.low" in str(caught.value)
        record["responses"][0]["schema_version"] = 9
        with pytest.raises(WireError) as caught:
            BatchResponse.from_dict(record)
        assert caught.value.code == "schema-version"

    def test_well_formed_values_decode_unchanged(self):
        request = PredictRequest.from_dict(
            {"sql": "S", "mpls": [1, 4], "confidences": [0.5, 1e-3],
             "deadline_ms": 5, "priority": -2}
        )
        assert request.mpls == (1, 4) and request.confidences == (0.5, 0.001)
        assert (request.deadline_ms, request.priority) == (5, -2)
