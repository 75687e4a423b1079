"""One prediction path: a single predict is a batch of one.

``Session.predict`` serves its query through the same batch step as
``Session.predict_batch`` (docs/service.md "Batch kernels"), so a single
answer equals its batch answer by construction. What still needs a test
is that the one path serves the right numbers: every served float is
compared bit for bit with the scalar per-query loop
(``batch_oracle.predict_query_oracle``) over seeded random fan-outs —
variant subsets under any spelling, repeated variants and mpls, any
confidence order — cold and warm, for a tenant without an active
feedback window and, through ``ServedLevels.bounds``, for one with it.
Failures raise what the scalar loop raises and count nothing served.
"""

import random
import struct

import numpy as np
import pytest

from batch_oracle import predict_query_oracle
from repro.api import (
    BatchRequest,
    Observation,
    PredictRequest,
    Session,
    SessionConfig,
)
from repro.api.render import ServedLevels
from repro.api.wire import dumps, loads
from repro.core.predictor import Variant
from repro.errors import PredictionError
from repro.workloads.tpch_templates import TPCH_TEMPLATES

SQL = "SELECT COUNT(*) FROM orders WHERE o_totalprice > 100000"
JOIN_SQL = (
    "SELECT COUNT(*) FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey AND o_totalprice > 150000"
)
SPELLINGS = {
    "all": ("all", "ALL", "All"),
    "novar[c]": ("novar[c]", "NoVar[c]"),
    "novar[x]": ("novar[x]", "NOVAR[X]"),
    "nocov": ("nocov", "NoCov"),
}
MPL_CHOICES = (1, 2, 3, 5)
CONFIDENCE_CHOICES = (0.2, 0.5, 0.8, 0.9, 0.95, 0.99)


def _session(tpch_db, calibrated_units, **changes):
    return Session.from_components(
        tpch_db,
        calibrated_units,
        SessionConfig(sampling_ratio=0.05, sampling_seed=3, **changes),
    )


def _fanout(rng):
    """A random request fan-out, repeats and mixed spellings included."""
    names = [
        rng.choice(SPELLINGS[name])
        for name in rng.choices(sorted(SPELLINGS), k=rng.randint(1, 5))
    ]
    mpls = rng.choices(MPL_CHOICES, k=rng.randint(1, 4))
    confidences = rng.choices(CONFIDENCE_CHOICES, k=rng.randint(1, 4))
    return {
        "variants": tuple(names),
        "mpls": tuple(mpls),
        "confidences": tuple(confidences),
    }


def _distinct(fanout):
    """Distinct (variant, mpl) cells; omitted fields take config defaults."""
    defaults = SessionConfig()
    names = fanout.get("variants", defaults.default_variants)
    mpls = fanout.get("mpls", defaults.default_mpls)
    variants = dict.fromkeys(Variant.from_name(name) for name in names)
    return len(variants) * len(dict.fromkeys(mpls))


def _oracle(service, sql, fanout):
    return predict_query_oracle(
        service,
        sql,
        variants=tuple(Variant.from_name(n) for n in fanout["variants"]),
        mpls=fanout["mpls"],
    )


def _pack(values):
    return [struct.pack("<d", value) for value in values]


def _served(response):
    """Every served float of a response, cell by cell, as exact bytes."""
    return [
        (
            payload.variant,
            payload.mpl,
            _pack([payload.mean, payload.variance, payload.std]),
            [
                (interval.confidence, _pack([interval.low, interval.high]))
                for interval in payload.intervals
            ],
        )
        for payload in response.results
    ]


def _expected(prediction, levels):
    """The scalar loop's cells, intervals through ``levels``' rule."""
    results = list(prediction.results.items())
    static = np.array(
        [
            [result.confidence_interval(c) for c in levels.confidences]
            for _, result in results
        ],
        dtype=np.float64,
    ).reshape(len(results), len(levels.confidences), 2)
    bounds = levels.bounds(
        np.array([result.mean for _, result in results]),
        np.array([result.std for _, result in results]),
        static,
    ).tolist()
    return [
        (
            variant.wire_name,
            mpl,
            _pack([result.mean, result.distribution.variance, result.std]),
            [
                (confidence, _pack(pair))
                for confidence, pair in zip(levels.confidences, served)
            ],
        )
        for ((variant, mpl), result), served in zip(results, bounds)
    ]


def _cold_pool(seed, count):
    rng = np.random.default_rng(seed)
    return [
        TPCH_TEMPLATES[index % 4].instantiate(rng) for index in range(count)
    ]


class TestSingleEqualsScalarOracle:
    def test_random_fanouts_cold_and_warm(self, tpch_db, calibrated_units):
        """Two identically built sessions: one serves, one runs the oracle.

        Each pool query is cold on both at its first request and warm
        afterwards, so cache flags agree along with every number.
        """
        serving = _session(tpch_db, calibrated_units)
        reference = _session(tpch_db, calibrated_units)
        rng = random.Random(19)
        pool = _cold_pool(19, 6) + [SQL, JOIN_SQL]
        requests = [rng.choice(pool) for _ in range(24)]
        cold = 0
        for sql in requests:
            fanout = _fanout(rng)
            before = serving.service.stats.snapshot()
            response = serving.predict(PredictRequest(
                sql=sql, tenant="never-observed", **fanout
            ))
            delta = serving.service.stats.snapshot().since(before)
            prediction = _oracle(reference.service, sql, fanout)
            levels = ServedLevels(tuple(fanout["confidences"]))
            assert response.feedback is None
            assert response.prepare_was_cached == prediction.prepare_was_cached
            cold += not response.prepare_was_cached
            assert _served(response) == _expected(prediction, levels)
            assert len(response.results) == _distinct(fanout)
            assert (delta.queries_served, delta.assemblies) == (
                1, _distinct(fanout)
            )
        assert 0 < cold < len(requests)

    def test_clamped_bounds(self, tpch_db, calibrated_units):
        """A tiny, uncertain prediction's wide interval clamps at zero."""
        session = _session(tpch_db, calibrated_units)
        sql = "SELECT * FROM region"
        fanout = {
            "variants": ("all", "nocov"),
            "mpls": (5, 1),
            "confidences": (0.99, 0.5),
        }
        response = session.predict(PredictRequest(sql=sql, **fanout))
        prediction = _oracle(session.service, sql, fanout)
        levels = ServedLevels(fanout["confidences"])
        assert _served(response) == _expected(prediction, levels)
        assert response.result("all", 5).interval(0.99).low == 0.0

    def test_active_tenant_serves_the_interval_rule(
        self, tpch_db, calibrated_units
    ):
        session = _session(
            tpch_db, calibrated_units,
            feedback_window=64, feedback_min_observations=8,
        )
        base = session.predict(SQL).results[0]
        for step in range(14):
            session.observe(Observation(
                sql=SQL,
                actual_seconds=base.mean + (0.5 + step % 4) * base.std,
                tenant="active",
                predicted_mean=base.mean,
                predicted_std=base.std,
            ))
        rng = random.Random(23)
        corrected = 0
        for sql in (SQL, JOIN_SQL) * 5:
            fanout = _fanout(rng)
            response = session.predict(PredictRequest(
                sql=sql, tenant="active", **fanout
            ))
            prediction = _oracle(session.service, sql, fanout)
            levels = ServedLevels.snapshot(
                session._feedback, "active", fanout["confidences"]
            )
            corrected += levels.recipes is not None
            assert response.feedback == levels.feedback
            assert _served(response) == _expected(prediction, levels)
        assert corrected > 0


class _PoisonedAssembler:
    """Fails on both assembly paths with one message."""

    def unit_moments(self, options):
        raise PredictionError("poisoned assembler")

    def assemble(self, units, options):
        raise PredictionError("poisoned assembler")


class TestFailureParity:
    @pytest.fixture
    def session(self, tpch_db, calibrated_units):
        return _session(tpch_db, calibrated_units)

    def _assert_parity(self, session, sql):
        fanout = {"variants": ("all", "nocov"), "mpls": (1, 2),
                  "confidences": (0.9,)}
        before = session.service.stats.snapshot()
        with pytest.raises(Exception) as single:
            session.predict(PredictRequest(sql=sql, **fanout))
        delta = session.service.stats.snapshot().since(before)
        assert (delta.queries_served, delta.assemblies) == (0, 0)
        with pytest.raises(Exception) as oracle:
            _oracle(session.service, sql, fanout)
        assert type(single.value) is type(oracle.value)
        assert str(single.value) == str(oracle.value)
        return single.value

    def test_parse_error(self, session):
        error = self._assert_parity(session, "SELEC nope")
        assert type(error).__name__ == "SqlParseError"

    def test_catalog_error(self, session):
        error = self._assert_parity(session, "SELECT COUNT(*) FROM nosuchtable")
        assert "nosuchtable" in str(error)

    def test_assembly_error(self, session):
        session.predict(SQL)  # plan and prepare, so the poison sticks
        planned = session.service.plan(SQL)
        prepared, _ = session.service.prepare(planned)
        prepared._assembler = _PoisonedAssembler()
        prepared._assembler_root = planned.root
        error = self._assert_parity(session, SQL)
        assert str(error) == "poisoned assembler"


class TestRepeatedFanoutEntries:
    """Repeated variants and mpls serve one cell each, on every path."""

    FANOUTS = (
        {"variants": ("all", "all")},
        {"variants": ("all", "ALL"), "mpls": (2, 2)},
        {
            "variants": ("nocov", "all", "NoCov"),
            "mpls": (4, 1, 4),
            "confidences": (0.9, 0.5, 0.9),
        },
    )

    @pytest.mark.parametrize("fanout", FANOUTS)
    def test_single_equals_batch_typed_and_text(
        self, tpch_db, calibrated_units, fanout
    ):
        session = _session(tpch_db, calibrated_units)
        session.predict(SQL)  # warm, so cache flags agree
        before = session.service.stats.snapshot()
        single = session.predict(PredictRequest(sql=SQL, **fanout))
        assert session.service.stats.snapshot().since(before).assemblies == (
            _distinct(fanout)
        )
        assert len(single.results) == _distinct(fanout)
        batch = session.predict_batch(BatchRequest(queries=(SQL, SQL), **fanout))
        assert batch.stats.assemblies == 2 * _distinct(fanout)
        for version in (1, 2):
            expected = dumps(single.to_dict(version))
            for response in batch:
                assert dumps(response.to_dict(version)) == expected
            text = session.predict_batch_json(
                BatchRequest(queries=(SQL, SQL), **fanout), version
            )
            for record in loads(text)["responses"]:
                assert dumps(record) == expected
