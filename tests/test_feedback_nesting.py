"""Served intervals nest under feedback, for every tenant state.

A conformal window certifies a confidence ``c`` only once it holds
``⌈(n+1)·c⌉ <= n`` scores, so a partly filled window can serve 0.9
conformally while 0.99 stays on the static normal quantile. Heavy-tailed
residuals put the conformal 0.9 scale above the static 2.576, and
choosing each level's scale on its own then served a 0.99 interval
*inside* the 0.9 one. The session walks the requested levels in
ascending confidence and serves each at the larger of its own scale and
the scale served below (docs/feedback.md). These properties are checked
over seeded random window fills, drift truncations, and confidence sets
in any request order — plus the observe-free path, which must stay
bitwise-identical to the static profile.
"""

import math
import random

import pytest

from batch_oracle import predict_query_oracle
from repro.api import (
    BatchRequest,
    Observation,
    PredictRequest,
    Session,
    SessionConfig,
)
from repro.api.session import nested_levels, static_scale
from repro.api.wire import dumps, loads

SQLS = (
    "SELECT COUNT(*) FROM orders WHERE o_totalprice > 100000",
    (
        "SELECT COUNT(*) FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey AND o_totalprice > 150000"
    ),
)
CONFIDENCE_CHOICES = (0.2, 0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999)


def _confidences(rng):
    """A random request fan-out: 1-5 levels, in random order."""
    levels = rng.sample(CONFIDENCE_CHOICES, rng.randint(1, 5))
    rng.shuffle(levels)
    return tuple(levels)


def _assert_nested(confidences, intervals):
    ordered = sorted(zip(confidences, intervals))
    for (_, (low, high)), (_, (wider_low, wider_high)) in zip(
        ordered, ordered[1:]
    ):
        assert 0.0 <= wider_low <= low <= high <= wider_high, ordered


def _assert_reported_scales_served(response):
    """A reported scale is the interval's multiplier, bit for bit."""
    scales = dict(response.feedback.scales)
    for result in response.results:
        for interval in result.intervals:
            scale = scales[interval.confidence]
            if scale is not None:
                assert interval.low == max(result.mean - scale * result.std, 0.0)
                assert interval.high == max(result.mean + scale * result.std, 0.0)


class TestNestedLevels:
    def test_served_scales_are_monotone_in_confidence(self):
        rng = random.Random(5)
        for _ in range(2000):
            confidences = _confidences(rng)
            own = [
                None if rng.random() < 0.4 else rng.lognormvariate(0.5, 0.8)
                for _ in confidences
            ]
            levels = nested_levels(confidences, own)
            order = sorted(range(len(confidences)), key=confidences.__getitem__)
            served = [levels[i][0] for i in order]
            assert served == sorted(served)
            for index, (scale, static) in enumerate(levels):
                mine = own[index]
                if mine is None:
                    mine = static_scale(confidences[index])
                assert scale >= mine
                if static is not None:
                    # A static recipe serves some level's own static scale.
                    assert scale == static_scale(static)
                    assert static <= confidences[index]

    def test_fully_conformal_monotone_scales_pass_through(self):
        levels = nested_levels((0.99, 0.5, 0.9), (4.0, 0.7, 2.5))
        assert levels == [(4.0, None), (0.7, None), (2.5, None)]

    def test_static_level_above_wider_conformal_one(self):
        # The field defect: 0.9 conformal at 3.8, 0.99 uncertifiable.
        (low_level, high_level) = nested_levels((0.9, 0.99), (3.8, None))
        assert low_level == (3.8, None)
        assert high_level == (3.8, None)
        # A static scale above the conformal one keeps the static recipe.
        assert nested_levels((0.5, 0.99), (0.9, None))[1] == (
            static_scale(0.99), 0.99,
        )

    def test_static_scale_is_the_normal_quantile(self):
        assert static_scale(0.99) == pytest.approx(2.5758293035489)
        assert static_scale(0.9) == pytest.approx(1.6448536269514722)


@pytest.fixture(scope="module")
def session(tpch_db, calibrated_units):
    # A small window so random fills cross every state — inactive,
    # partly certified, fully certified — and a twitchy detector so
    # bursts of outliers truncate it.
    return Session.from_components(
        tpch_db,
        calibrated_units,
        SessionConfig(
            sampling_ratio=0.05,
            sampling_seed=3,
            default_variants=("all", "nocov"),
            default_mpls=(1, 2),
            feedback_window=64,
            feedback_min_observations=8,
            feedback_fast_window=6,
            feedback_drift_threshold=4.0,
        ),
    )


class TestSessionServesNestedIntervals:
    def test_random_fills_truncations_and_fanouts(self, session):
        rng = random.Random(17)
        bases = {sql: session.predict(sql).results[0] for sql in SQLS}
        drifts = 0
        corrected = 0
        lifted = 0
        for trial in range(40):
            tenant = f"tenant-{trial}"
            # Heavy-tailed residuals, with occasional bursts that fire
            # the drift detector and truncate the window.
            for _ in range(rng.randint(0, 90)):
                sql = rng.choice(SQLS)
                base = bases[sql]
                factor = rng.lognormvariate(0.0, rng.choice((0.3, 1.2)))
                if rng.random() < 0.05:
                    factor *= 20.0
                ack = session.observe(Observation(
                    sql=sql,
                    actual_seconds=base.mean * factor,
                    tenant=tenant,
                    predicted_mean=base.mean,
                    predicted_std=base.std,
                ))
                drifts += ack.drift_detected
            for _ in range(3):
                confidences = _confidences(rng)
                response = session.predict(PredictRequest(
                    sql=rng.choice(SQLS),
                    tenant=tenant,
                    confidences=confidences,
                ))
                for result in response.results:
                    assert tuple(i.confidence for i in result.intervals) == (
                        confidences
                    )
                    _assert_nested(
                        confidences,
                        [(i.low, i.high) for i in result.intervals],
                    )
                if response.feedback is not None:
                    corrected += 1
                    # None: the level kept its static interval.
                    served = {
                        c: static_scale(c) if s is None else s
                        for c, s in response.feedback.scales
                    }
                    ordered = [served[c] for c in sorted(served)]
                    assert ordered == sorted(ordered)
                    _assert_reported_scales_served(response)
                    # Count levels served above their own scale: the
                    # cases a per-level choice would have mis-nested.
                    _, own = session._feedback.scales_for(tenant, confidences)
                    lifted += sum(
                        served[c] > (s if s is not None else static_scale(c))
                        for c, s in zip(confidences, own)
                    )
        assert drifts > 0
        assert corrected > 0
        assert lifted > 0

    def test_static_winner_keeps_the_static_interval_bits(
        self, tpch_db, calibrated_units
    ):
        service_session = Session.from_components(
            tpch_db,
            calibrated_units,
            SessionConfig(
                sampling_ratio=0.05, sampling_seed=3,
                feedback_window=64, feedback_min_observations=8,
            ),
        )
        sql = SQLS[0]
        base = service_session.predict(sql).results[0]
        # Scores ~0.5: the certified 0.5 level is conformal and narrow,
        # 0.99 is uncertifiable from 10 scores and stays static.
        for _ in range(10):
            service_session.observe(Observation(
                sql=sql,
                actual_seconds=base.mean + 0.5 * base.std,
                tenant="calm",
                predicted_mean=base.mean,
                predicted_std=base.std,
            ))
        confidences = (0.99, 0.5)
        response = service_session.predict(PredictRequest(
            sql=sql, tenant="calm", confidences=confidences,
        ))
        static = service_session.predict(PredictRequest(
            sql=sql, confidences=confidences,
        ))
        assert response.feedback is not None
        served = dict(response.feedback.scales)
        assert served[0.99] is None
        assert served[0.5] == pytest.approx(0.5)
        corrected_99 = response.results[0].intervals[0]
        static_99 = static.results[0].intervals[0]
        assert (corrected_99.low, corrected_99.high) == (
            static_99.low, static_99.high,
        )
        service_session.close()

    def test_observe_free_tenant_serves_the_static_profile(self, session):
        rng = random.Random(3)
        service = session.service
        for _ in range(10):
            confidences = _confidences(rng)
            sql = rng.choice(SQLS)
            response = session.predict(PredictRequest(
                sql=sql, tenant="never-observed", confidences=confidences,
            ))
            assert response.feedback is None
            prediction = predict_query_oracle(
                service, sql, variants=session.config.variants(),
                mpls=session.config.default_mpls,
            )
            for payload, result in zip(
                response.results, prediction.results.values()
            ):
                for interval in payload.intervals:
                    expected = result.confidence_interval(interval.confidence)
                    assert (interval.low, interval.high) == expected
                    assert math.isfinite(interval.high)


class TestBatchesUnderFeedback:
    def test_batch_responses_equal_single_predicts(
        self, tpch_db, calibrated_units
    ):
        """A batch for an active tenant serves each query's single answer.

        Scores of 3 certify 0.5 and 0.9 conformally at a scale of 3,
        above the static 2.576 of the uncertifiable 0.99, so 0.99 is
        lifted to the scale served below it; 0.999's static 3.29 wins,
        so it keeps its static interval, which the batch precomputes.
        """
        session = Session.from_components(
            tpch_db,
            calibrated_units,
            SessionConfig(
                sampling_ratio=0.05, sampling_seed=3,
                feedback_window=64, feedback_min_observations=8,
            ),
        )
        tenant = "batched"
        confidences = (0.99, 0.5, 0.999, 0.9)
        base = session.predict(SQLS[0]).results[0]
        session.predict(SQLS[1])  # warm, so cache flags agree too
        for _ in range(12):
            ack = session.observe(Observation(
                sql=SQLS[0],
                actual_seconds=base.mean + 3.0 * base.std,
                tenant=tenant,
                predicted_mean=base.mean,
                predicted_std=base.std,
            ))
        assert ack.active
        own = session._feedback.scales_for(tenant, confidences)[1]
        served = nested_levels(confidences, own)
        assert own[0] is None and own[2] is None
        assert served[0] == (own[3], None) and own[3] > static_scale(0.99)
        assert served[2] == (static_scale(0.999), 0.999)

        fanout = {
            "variants": ("all", "nocov", "novar[x]"),
            "mpls": (1, 3),
            "confidences": confidences,
        }
        queries = (SQLS[1], SQLS[0], SQLS[1])
        batch = session.predict_batch(
            BatchRequest(queries=queries, tenant=tenant, **fanout)
        )
        assert batch.failures == ()
        assert len(batch) == len(queries)
        for sql, response in zip(queries, batch):
            single = session.predict(
                PredictRequest(sql=sql, tenant=tenant, **fanout)
            )
            assert single.feedback is not None
            for version in (1, 2):
                assert dumps(response.to_dict(version)) == dumps(
                    single.to_dict(version)
                )
        session.close()

    def test_one_feedback_snapshot_per_batch(
        self, tpch_db, calibrated_units, monkeypatch
    ):
        """An observe landing mid-batch does not split the batch's state.

        The recalibrator is read once per batch: an observation injected
        right after that read moves the tenant's window, yet every
        response still carries the annotation and the intervals of the
        state before it, in the typed answer and the wire text alike.
        """
        session = Session.from_components(
            tpch_db,
            calibrated_units,
            SessionConfig(
                sampling_ratio=0.05, sampling_seed=3,
                feedback_window=64, feedback_min_observations=8,
            ),
        )
        tenant = "mid-batch"
        base = session.predict(SQLS[0]).results[0]
        for _ in range(12):
            session.observe(Observation(
                sql=SQLS[0],
                actual_seconds=base.mean + 3.0 * base.std,
                tenant=tenant,
                predicted_mean=base.mean,
                predicted_std=base.std,
            ))
        recalibrator = session._feedback
        read = recalibrator.scales_for
        reads = []

        def read_then_observe(name, confidences):
            answer = read(name, confidences)
            reads.append(answer)
            recalibrator.observe(
                name, base.mean, base.std, base.mean + 40.0 * base.std
            )
            return answer

        monkeypatch.setattr(recalibrator, "scales_for", read_then_observe)
        request = BatchRequest(
            queries=(SQLS[0], SQLS[1], SQLS[0], SQLS[0]),
            tenant=tenant,
            confidences=(0.5, 0.9, 0.99),
        )
        batch = session.predict_batch(request)
        assert len(reads) == 1
        (feedback,) = {response.feedback for response in batch}
        assert feedback is not None and feedback.observations == 12
        firsts = [r for r in batch if r.sql == SQLS[0]]
        assert len(firsts) == 3
        assert all(r.results == firsts[0].results for r in firsts)

        record = loads(session.predict_batch_json(request))
        assert len(reads) == 2
        (observations,) = {
            response["feedback"]["observations"]
            for response in record["responses"]
        }
        assert observations == 13
        served = [r["results"] for r in record["responses"] if r["sql"] == SQLS[0]]
        assert served[0] == served[1] == served[2]
        session.close()
