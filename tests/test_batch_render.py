"""The batch endpoint's JSON text, differentially against the typed answer.

``/v1/predict-batch`` writes :func:`repro.api.render.batch_json`: text
rendered straight from the kernels' arrays. Its contract is that it is
byte-identical to ``dumps(BatchResponse.to_dict(version))`` of the
typed rendering (:func:`repro.api.render.batch_response`) of the same
columns. Every case here serves one batch into columns once and renders
it both ways, over seeded random batches: every variant, mpl and
confidence subset in random orders; duplicate SQL, parse failures and
isolated plan errors; SQL text that needs JSON escaping; zero-variance
point masses; and a feedback tenant with lifted and static-kept levels.
"""

import itertools
import random

import numpy as np
import pytest

from repro.api import BatchRequest, Observation, Session, SessionConfig
from repro.api.render import batch_json, batch_response
from repro.api.wire import BatchResponse, dumps, loads
from repro.errors import PredictionError, WireError
from repro.workloads.tpch_templates import TPCH_TEMPLATES

VARIANTS = ("all", "novar[c]", "novar[x]", "nocov")
MPLS = (1, 2, 4)
CONFIDENCES = (0.5, 0.9, 0.99)
#: Plans fine, and needs escaping: non-ASCII, quotes and backslashes
#: inside a literal, newlines between clauses.
ESCAPED_SQL = (
    "SELECT COUNT(*)\nFROM orders\r\n"
    "WHERE o_orderstatus = 'é\"\\\\ü\t€' AND o_totalprice > 100000"
)
#: Fail to parse; their SQL and error text land in ``failures``.
BAD_SQLS = ("SELEC nope", "SELECT COUNT(*) FROM orders WHERE o_comment = 'it''s ü\n\"'")
TENANT = "batched"


def _subsets(items):
    return [
        combo
        for size in range(1, len(items) + 1)
        for combo in itertools.combinations(items, size)
    ]


def _pool():
    rng = np.random.default_rng(18)
    pool = [template.instantiate(rng) for template in TPCH_TEMPLATES[:6]]
    pool.append("SELECT COUNT(*) FROM orders WHERE o_totalprice > 100000")
    pool.append(ESCAPED_SQL)
    return pool


@pytest.fixture(scope="module")
def session(tpch_db, calibrated_units):
    session = Session.from_components(
        tpch_db,
        calibrated_units,
        SessionConfig(
            sampling_ratio=0.05, sampling_seed=3,
            feedback_window=64, feedback_min_observations=8,
        ),
    )
    session.predict_batch(_pool())  # warm
    yield session
    session.close()


def _both(session, request):
    """Serve ``request`` once; render its columns both ways, per version."""
    columns, levels = session._serve_batch(request)
    typed = batch_response(columns, levels)
    return {
        version: (batch_json(columns, levels, version), dumps(typed.to_dict(version)))
        for version in (1, 2)
    }, typed


def _assert_identical(session, request):
    rendered, typed = _both(session, request)
    for version, (text, expected) in rendered.items():
        assert text == expected, (version, request)
        assert dumps(BatchResponse.from_dict(loads(text)).to_dict(version)) == text
    return typed


def _random_queries(rng, pool):
    queries = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
    queries += rng.sample(queries, rng.randint(0, len(queries)))  # duplicates
    for bad in BAD_SQLS:
        if rng.random() < 0.3:
            queries.insert(rng.randint(0, len(queries)), bad)
    return tuple(queries)


class TestByteIdentity:
    def test_every_fanout_subset(self, session):
        rng = random.Random(20140901)
        pool = _pool()
        mpl_subsets = _subsets(MPLS)
        confidence_subsets = [()] + _subsets(CONFIDENCES)
        cases = itertools.product(_subsets(VARIANTS), confidence_subsets)
        for case, (variants, confidences) in enumerate(cases):
            variants = rng.sample(variants, len(variants))
            mpls = list(mpl_subsets[case % len(mpl_subsets)])
            rng.shuffle(mpls)
            confidences = rng.sample(confidences, len(confidences))
            _assert_identical(session, BatchRequest(
                queries=_random_queries(rng, pool),
                variants=tuple(variants),
                mpls=tuple(mpls),
                confidences=tuple(confidences),
            ))

    def test_duplicates_failures_and_escaping(self, session):
        queries = (ESCAPED_SQL, BAD_SQLS[0], ESCAPED_SQL, BAD_SQLS[1], ESCAPED_SQL)
        typed = _assert_identical(session, BatchRequest(
            queries=queries, variants=VARIANTS, mpls=MPLS,
            confidences=CONFIDENCES,
        ))
        assert [failure.index for failure in typed.failures] == [1, 3]
        assert [response.sql for response in typed] == [ESCAPED_SQL] * 3
        text = session.predict_batch_json(BatchRequest(queries=queries))
        assert text.isascii() and "\\u00e9" in text and "\\n" in text

    def test_isolated_plan_error(self, session):
        pool = _pool()
        planned = session.plan(pool[1])
        prepared, _ = session.service.prepare(planned)
        healthy = prepared.assembler(planned)

        class Poisoned:
            def unit_moments(self, options):
                raise PredictionError("poisoned assembler")

        prepared._assembler = Poisoned()
        try:
            typed = _assert_identical(session, BatchRequest(
                queries=(pool[0], pool[1], pool[2], pool[1]),
                variants=("all", "nocov"), mpls=(1, 2),
                confidences=(0.9,),
            ))
        finally:
            prepared._assembler = healthy
        assert [f.index for f in typed.failures] == [1, 3]
        assert {f.code for f in typed.failures} == {"prediction"}
        assert len(typed) == 2

    def test_zero_variance_point_masses(self, tpch_db, calibrated_units):
        flat = Session.from_components(
            tpch_db,
            calibrated_units.without_variance(),
            SessionConfig(sampling_ratio=0.05, sampling_seed=3),
        )
        typed = _assert_identical(flat, BatchRequest(
            queries=tuple(_pool()[:4]) * 2, variants=("novar[x]", "all"),
            mpls=(1, 3), confidences=(0.5, 0.99),
        ))
        point_masses = [
            result for response in typed for result in response.results
            if result.variance == 0.0
        ]
        assert len(point_masses) >= 4
        for cell in point_masses:
            for interval in cell.intervals:
                assert interval.low == interval.high == max(cell.mean, 0.0)
        flat.close()

    def test_feedback_tenant_lifted_and_static_levels(self, session):
        base = session.predict(_pool()[6]).results[0]
        for _ in range(12):
            session.observe(Observation(
                sql=_pool()[6], actual_seconds=base.mean + 3.0 * base.std,
                tenant=TENANT, predicted_mean=base.mean,
                predicted_std=base.std,
            ))
        # 0.5 and 0.9 are certified; 0.99 is lifted to the 0.9 scale and
        # 0.999 keeps its static interval.
        confidences = (0.99, 0.5, 0.999, 0.9)
        typed = _assert_identical(session, BatchRequest(
            queries=tuple(_pool()) + (BAD_SQLS[0],), variants=VARIANTS,
            mpls=(4, 1), confidences=confidences, tenant=TENANT,
        ))
        scales = dict(typed.responses[0].feedback.scales)
        assert scales[0.999] is None and scales[0.99] == scales[0.9]
        rendered, _ = _both(session, BatchRequest(
            queries=(_pool()[0],), confidences=confidences, tenant=TENANT,
        ))
        assert '"feedback": ' in rendered[2][0]
        assert '"feedback"' not in rendered[1][0]


class TestNonFinite:
    @pytest.mark.parametrize("field", ["mean", "std", "intervals"])
    def test_same_wire_error_code_on_both_paths(self, session, field):
        request = BatchRequest(
            queries=tuple(_pool()[:3]), variants=("all", "nocov"),
            mpls=(1, 2), confidences=CONFIDENCES,
        )
        columns, levels = session._serve_batch(request)
        slot = columns.served[-1].slot
        target = getattr(columns.assembly, field, None)
        if target is None:
            target = columns.intervals
        target[slot, -1, -1] = np.nan if field != "intervals" else np.inf
        codes = []
        for render in (
            lambda: batch_json(columns, levels, 2),
            lambda: dumps(batch_response(columns, levels).to_dict(2)),
        ):
            with pytest.raises(WireError) as caught:
                render()
            codes.append(caught.value.code)
        assert codes == ["bad-request", "bad-request"]
