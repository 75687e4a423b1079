"""The Session facade: config, defaults, lifecycle, engine agreement."""

import pytest

from batch_oracle import predict_query_oracle
from repro.api import PredictRequest, Session, SessionConfig
from repro.core import Variant
from repro.errors import SessionError, SqlError
from repro.service import PredictionService, ServiceReport, ServiceStats


@pytest.fixture(scope="module")
def session(tpch_db, calibrated_units):
    return Session.from_components(
        tpch_db,
        calibrated_units,
        SessionConfig(sampling_ratio=0.05, sampling_seed=3),
    )


SQL_A = "SELECT COUNT(*) FROM orders WHERE o_totalprice > 100000"
SQL_B = (
    "SELECT COUNT(*) FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey AND o_totalprice > 150000"
)


class TestSessionConfig:
    def test_defaults_validate(self):
        config = SessionConfig()
        assert config.estimator == "sampling"
        assert config.variants() == (Variant.ALL,)

    def test_round_trip_with_unknown_fields(self):
        config = SessionConfig(
            scale_factor=0.01, default_variants=("all", "nocov"),
            default_mpls=(1, 4), estimator="histogram",
        )
        record = config.to_dict()
        record["future_knob"] = True
        assert SessionConfig.from_dict(record) == config

    @pytest.mark.parametrize(
        "changes",
        [
            {"machine": "PC99"},
            {"estimator": "tarot"},
            {"sampling_ratio": 0.0},
            {"scale_factor": -1.0},
            {"calibration_repetitions": 1},
            {"default_variants": ()},
            {"default_variants": ("warp",)},
            {"default_mpls": (0,)},
            {"default_confidences": (1.5,)},
        ],
    )
    def test_invalid_configs_rejected(self, changes):
        with pytest.raises(SessionError):
            SessionConfig(**changes)

    def test_saved_batch_kernel_field_still_loads(self):
        """Configs saved while ``batch_kernel`` chose between two
        bit-identical batch paths load as plain unknown fields."""
        record = SessionConfig().to_dict()
        assert "batch_kernel" not in record
        record["batch_kernel"] = "scalar"
        assert SessionConfig.from_dict(record) == SessionConfig()

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(SessionError):
            SessionConfig.from_dict("scale_factor: 1")


class TestSessionServing:
    def test_predict_matches_the_engine(self, session):
        """The facade serves the scalar per-query assembly's numbers."""
        response = session.predict(SQL_A)
        engine = predict_query_oracle(session.service, SQL_A)
        result = engine.result(Variant.ALL, 1)
        cell = response.result("all", 1)
        assert cell.mean == result.mean
        assert cell.variance == result.distribution.variance
        interval = cell.interval(0.9)
        assert (interval.low, interval.high) == result.confidence_interval(0.9)

    def test_request_overrides_config_defaults(self, session):
        response = session.predict(
            PredictRequest(
                sql=SQL_A, variants=("all", "nocov"), mpls=(1, 4),
                confidences=(0.8,),
            )
        )
        assert {(r.variant, r.mpl) for r in response.results} == {
            ("all", 1), ("all", 4), ("nocov", 1), ("nocov", 4),
        }
        assert [i.confidence for i in response.results[0].intervals] == [0.8]

    def test_config_defaults_apply(self, tpch_db, calibrated_units):
        fanned = Session.from_components(
            tpch_db, calibrated_units,
            SessionConfig(
                sampling_seed=3, default_variants=("nocov",),
                default_mpls=(2,), default_confidences=(0.5,),
            ),
        )
        response = fanned.predict(SQL_A)
        assert [(r.variant, r.mpl) for r in response.results] == [("nocov", 2)]

    def test_bad_fanout_rejected_at_request_construction(self, session):
        from repro.errors import WireError

        with pytest.raises(WireError):
            session.predict(PredictRequest(sql=SQL_A, mpls=(0,)))
        with pytest.raises(WireError):
            session.predict(PredictRequest(sql=SQL_A, confidences=(2.0,)))

    def test_bad_fanout_rejected_by_session_guard(self, session):
        # Defense in depth: the session re-checks resolved fan-outs (via
        # the single wire validator) even for callers that bypass the
        # wire objects' own validation.
        from repro.errors import WireError

        with pytest.raises(WireError):
            session._fanout(None, (0,), None)
        with pytest.raises(WireError):
            session._fanout(None, None, (2.0,))

    def test_batch_skips_failures_with_codes(self, session):
        batch = session.predict_batch([SQL_A, "SELEC nope", SQL_B])
        assert len(batch) == 2
        assert [response.sql for response in batch] == [SQL_A, SQL_B]
        (failure,) = batch.failures
        assert failure.index == 1 and failure.code == "sql-parse"
        assert batch.stats.queries_served == 2

    def test_batch_abort_mode_raises(self, session):
        from repro.api.wire import BatchRequest

        with pytest.raises(SqlError):
            session.predict_batch(
                BatchRequest(queries=(SQL_A, "SELEC nope"), skip_failures=False)
            )

    def test_explain_and_plan(self, session):
        assert "SeqScan" in session.explain(SQL_A)
        assert session.plan(SQL_A).root is not None

    def test_stats_snapshot(self, session):
        from repro.api.wire import StatsSnapshot

        snapshot = session.stats()
        assert isinstance(snapshot, StatsSnapshot)
        assert isinstance(snapshot.report, ServiceReport)
        # the delegated ServiceReport surface keeps old callers working
        assert snapshot.stats.queries_served >= 1
        assert snapshot.sampling_bytes_budget > 0
        assert snapshot.feedback is not None
        assert snapshot.feedback.observations == 0


class TestSessionLifecycle:
    def test_warmup_then_serve_hits_cache(self, tpch_db, calibrated_units):
        fresh = Session.from_components(
            tpch_db, calibrated_units, SessionConfig(sampling_seed=3)
        )
        warmed = fresh.warmup([SQL_A, SQL_B])
        assert warmed == 2
        response = fresh.predict(SQL_A)
        assert response.prepare_was_cached

    def test_default_warmup_uses_templates(self, tpch_db, calibrated_units):
        fresh = Session.from_components(
            tpch_db, calibrated_units, SessionConfig(sampling_seed=3)
        )
        assert fresh.warmup() > 0

    def test_close_is_terminal_and_idempotent(self, tpch_db, calibrated_units):
        closing = Session.from_components(
            tpch_db, calibrated_units, SessionConfig(sampling_seed=3)
        )
        closing.predict(SQL_A)
        assert len(closing.service.prepared_cache) == 1
        closing.close()
        closing.close()
        assert closing.closed
        # both cache layers dropped their (potentially large) artifacts
        assert len(closing.service.prepared_cache) == 0
        assert len(closing.service.sampling_engine) == 0
        with pytest.raises(SessionError):
            closing.predict(SQL_A)
        with pytest.raises(SessionError):
            closing.warmup([SQL_A])

    def test_context_manager_closes(self, tpch_db, calibrated_units):
        with Session.from_components(
            tpch_db, calibrated_units, SessionConfig(sampling_seed=3)
        ) as scoped:
            scoped.predict(SQL_A)
        assert scoped.closed

    def test_components_session_has_no_simulator(self, session):
        with pytest.raises(SessionError):
            _ = session.simulator


class TestHitRateConsistency:
    """Satellite: both stats layers say None (not 0.0) on zero traffic."""

    def test_zero_traffic_is_none(self):
        assert ServiceStats().prepare_hit_rate is None

    def test_matches_cache_stats_semantics(self, tpch_db, calibrated_units):
        from repro.caching import CacheStats

        assert CacheStats().hit_rate is None
        service = PredictionService(
            tpch_db, calibrated_units, sampling_ratio=0.05, seed=3
        )
        assert service.stats.prepare_hit_rate is None
        assert service.prepared_cache.stats.hit_rate is None
        service.predict_query(SQL_A)
        assert service.stats.prepare_hit_rate == 0.0
        service.predict_query(SQL_A)
        assert service.stats.prepare_hit_rate == 0.5
