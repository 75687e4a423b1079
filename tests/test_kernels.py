"""The SoA batch kernels, differentially locked to the scalar per-query loop.

The contract under test (docs/service.md "Batch kernels"): every number
``PredictionService.predict_batch`` serves — means, variances, stds,
all three variance-breakdown terms, per-unit means, and both bounds of
every confidence interval — is *bitwise* identical to assembling each
query on its own, as the oracle in ``batch_oracle.py`` does (one scalar
``predict_query_oracle`` call per query). Closeness is not enough: the
kernels serve single queries too, so they must answer exactly what the
scalar path answers, one query at a time. The harness therefore packs
every float with ``struct.pack("<d", ...)`` and compares bytes across
hundreds of seeded random batches (ragged sizes, duplicate SQL,
variant/mpl/confidence fan-outs, point-mass variances, single-node and
empty-sample plans), plus the algebraic properties that make a batch
kernel trustworthy: permutation invariance, batch-of-N == N batches-of-1,
and cache-hit == cold-miss.
"""

import struct
import zlib

import numpy as np
import pytest

from batch_oracle import predict_batch_oracle, predict_query_oracle
from repro.core.predictor import Variant
from repro.errors import PredictionError
from repro.service import (
    PredictionService,
    ServiceStats,
    plan_signature,
    plan_signature_hash,
)
from repro.service.kernels import (
    assemble_batch,
    batch_intervals,
    build_batch_plan,
)
from repro.serving.routing import ConsistentHashRouter
from repro.workloads.tpch_templates import TPCH_TEMPLATES

ALL_VARIANTS = tuple(Variant)
MPL_CHOICES = (1, 2, 3, 5)
CONFIDENCE_CHOICES = (0.2, 0.5, 0.9, 0.95, 0.99)

#: Handwritten edge plans: single-node scans, selective predicates that
#: leave (nearly) empty samples, joins small and large.
EDGE_SQLS = [
    "SELECT * FROM region",
    "SELECT * FROM nation",
    "SELECT * FROM supplier WHERE s_acctbal > 500",
    "SELECT * FROM orders WHERE o_totalprice > 999999999",
    "SELECT * FROM customer WHERE c_acctbal > 0",
    "SELECT * FROM nation, region WHERE n_regionkey = r_regionkey",
    (
        "SELECT * FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey AND o_totalprice > 100000"
    ),
    (
        "SELECT * FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey AND o_totalprice > 200000"
    ),
]


def _query_pool():
    rng = np.random.default_rng(20140901)
    pool = list(EDGE_SQLS)
    for template in TPCH_TEMPLATES[:4]:
        pool.append(template.instantiate(rng))
    return pool


@pytest.fixture(scope="module")
def service(tpch_db, calibrated_units):
    svc = PredictionService(
        tpch_db, calibrated_units, sampling_ratio=0.05, seed=3
    )
    # Warm every pool plan once so differential runs compare warm state
    # against warm state; per-query cache flags are only comparable on
    # equal cache states.
    svc.predict_batch(_query_pool())
    return svc


@pytest.fixture(scope="module")
def pool():
    return _query_pool()


def _pack(value):
    return struct.pack("<d", value)


def _result_payload(result, confidences):
    """Every served number of one PredictionResult, as exact bytes."""
    breakdown = result.breakdown
    blob = [
        _pack(result.mean),
        _pack(breakdown.variance),
        _pack(result.std),
        _pack(breakdown.exact_selectivity_term),
        _pack(breakdown.bounded_covariance_term),
        _pack(breakdown.cost_unit_term),
    ]
    for name, value in breakdown.per_unit_mean.items():
        blob.append(name.encode())
        blob.append(_pack(value))
    for confidence in confidences:
        low, high = result.confidence_interval(confidence)
        blob.append(_pack(low))
        blob.append(_pack(high))
    return blob


def _query_payload(prediction, confidences):
    blob = [repr(prediction.sql).encode(), prediction.prepare_was_cached]
    for (variant, mpl), result in prediction.results.items():
        blob.append((variant.value, mpl))
        blob.extend(_result_payload(result, confidences))
    return blob


def _soa(service, queries, variants, mpls, confidences, skip_failures):
    """The batch path, precomputing the requested intervals."""
    return service.predict_batch(
        queries,
        variants=variants,
        mpls=mpls,
        skip_failures=skip_failures,
        confidences=confidences,
    )


def _oracle(service, queries, variants, mpls, confidences, skip_failures):
    """One scalar ``predict_query_oracle`` per query; intervals on demand."""
    return predict_batch_oracle(
        service,
        queries,
        variants=variants,
        mpls=mpls,
        skip_failures=skip_failures,
    )


def _batch_payloads(serve, service, queries, variants, mpls, confidences,
                    skip_failures=False):
    batch = serve(service, queries, variants, mpls, confidences, skip_failures)
    payloads = [
        _query_payload(prediction, confidences) for prediction in batch
    ]
    failures = [
        (failure.index, failure.sql, failure.code) for failure in batch.failures
    ]
    return payloads, failures


# ---------------------------------------------------------------------------
# BatchPlan: interning and dedup.
# ---------------------------------------------------------------------------


def _entries(service, queries):
    entries = []
    for sql in queries:
        planned = service.plan(sql)
        prepared, _ = service.prepare(planned)
        entries.append((planned, prepared))
    return entries


class TestBatchPlan:
    def test_empty_batch(self, service):
        batch_plan = build_batch_plan([])
        assert len(batch_plan) == 0
        assert batch_plan.num_queries == 0
        assert batch_plan.query_slots.tolist() == []

    def test_batch_of_one(self, service, pool):
        entries = _entries(service, [pool[0]])
        batch_plan = build_batch_plan(entries)
        assert len(batch_plan) == 1
        assert batch_plan.query_slots.tolist() == [0]
        assert batch_plan.planned == [entries[0][0]]
        assert batch_plan.prepared == [entries[0][1]]
        assert batch_plan.signatures == [plan_signature(entries[0][0])]

    def test_all_identical_plans_share_one_slot(self, service, pool):
        batch_plan = build_batch_plan(_entries(service, [pool[0]] * 5))
        assert len(batch_plan) == 1
        assert batch_plan.query_slots.tolist() == [0] * 5
        assert batch_plan.num_queries == 5

    def test_dedup_keys_on_signature_not_hash(self, service, pool):
        batch_plan = build_batch_plan(
            _entries(service, [pool[0], pool[1], pool[0]])
        )
        assert len(batch_plan) == 2
        assert batch_plan.query_slots.tolist() == [0, 1, 0]
        assert batch_plan.signatures[0] != batch_plan.signatures[1]


# ---------------------------------------------------------------------------
# The differential harness: SoA bitwise == the per-query oracle over
# random batches.
# ---------------------------------------------------------------------------


def _random_batch(rng, pool):
    size = int(rng.integers(0, 9))
    queries = [pool[int(i)] for i in rng.integers(0, len(pool), size=size)]
    variants = [
        ALL_VARIANTS[int(i)]
        for i in rng.permutation(len(ALL_VARIANTS))[: int(rng.integers(1, 5))]
    ]
    mpls = [
        MPL_CHOICES[int(i)]
        for i in rng.permutation(len(MPL_CHOICES))[: int(rng.integers(1, 4))]
    ]
    confidences = tuple(
        CONFIDENCE_CHOICES[int(i)]
        for i in sorted(
            rng.permutation(len(CONFIDENCE_CHOICES))[: int(rng.integers(0, 4))]
        )
    )
    return queries, variants, mpls, confidences


class TestDifferential:
    @pytest.mark.parametrize("seed", range(10))
    def test_soa_bitwise_equals_scalar_on_random_batches(
        self, service, pool, seed
    ):
        """20 random batches per seed, 200 total: every byte must agree."""
        rng = np.random.default_rng(1000 + seed)
        for _ in range(20):
            queries, variants, mpls, confidences = _random_batch(rng, pool)
            oracle, oracle_failures = _batch_payloads(
                _oracle, service, queries, variants, mpls, confidences
            )
            soa, soa_failures = _batch_payloads(
                _soa, service, queries, variants, mpls, confidences
            )
            assert soa == oracle
            assert soa_failures == oracle_failures

    def test_empty_batch(self, service):
        for serve in (_oracle, _soa):
            batch = serve(service, [], (Variant.ALL,), (1,), (0.5,), False)
            assert batch.predictions == []
            assert batch.failures == []

    def test_skip_failures_differential(self, service, pool):
        queries = [pool[0], "SELEC nope", pool[1], pool[0]]
        oracle, oracle_failures = _batch_payloads(
            _oracle, service, queries, [Variant.ALL, Variant.NO_COV], [1, 3],
            (0.5, 0.99), skip_failures=True,
        )
        soa, soa_failures = _batch_payloads(
            _soa, service, queries, [Variant.ALL, Variant.NO_COV], [1, 3],
            (0.5, 0.99), skip_failures=True,
        )
        assert soa == oracle
        assert len(soa_failures) == 1
        assert soa_failures == oracle_failures
        assert soa_failures[0][0] == 1

    def test_abort_on_failure_raises_like_scalar(self, service, pool):
        """Both raise; only the per-query loop counts the query before
        the failure as served."""
        from repro.errors import SqlError

        queries = [pool[0], "SELEC nope"]  # pool[0] is warm
        before = service.stats.snapshot()
        with pytest.raises(SqlError):
            service.predict_batch(queries)
        # An aborted batch counts no query: only the prepare-cache
        # lookup of the query before the failure moved.
        assert service.stats.since(before) == ServiceStats(
            prepare_cache_hits=1
        )

        before = service.stats.snapshot()
        with pytest.raises(SqlError):
            predict_batch_oracle(service, queries)
        assert service.stats.since(before) == ServiceStats(
            queries_served=1, prepare_cache_hits=1, assemblies=1
        )

    def test_point_mass_variance_intervals(self, tpch_db, calibrated_units):
        """Zero-variance units + NoVar[X]: variance 0, interval (m, m)."""
        flat = PredictionService(
            tpch_db,
            calibrated_units.without_variance(),
            sampling_ratio=0.05,
            seed=3,
        )
        queries = EDGE_SQLS[:3] * 2
        variants = [Variant.NO_VAR_X, Variant.ALL]
        flat.predict_batch(queries, variants=variants)  # warm
        confidences = (0.5, 0.9)
        oracle, _ = _batch_payloads(
            _oracle, flat, queries, variants, [1, 2], confidences
        )
        soa, _ = _batch_payloads(
            _soa, flat, queries, variants, [1, 2], confidences
        )
        assert soa == oracle
        batch = flat.predict_batch(
            queries, variants=variants, confidences=confidences
        )
        point_masses = 0
        for prediction in batch:
            result = prediction.result(Variant.NO_VAR_X, 1)
            if result.breakdown.variance == 0.0:
                point_masses += 1
                clamped = max(result.mean, 0.0)
                assert result.confidence_interval(0.9) == (clamped, clamped)
        assert point_masses == len(queries)

    def test_repeated_fanout_entries_serve_each_cell_once(self, service, pool):
        """Repeated variants and mpls are served and counted once, in
        first-occurrence order, as the scalar loop's result keys are."""
        variants = [Variant.NO_COV, Variant.ALL, Variant.NO_COV]
        mpls = [3, 1, 3, 3]
        confidences = (0.9, 0.5)
        before = service.stats.snapshot()
        oracle = predict_query_oracle(
            service, pool[2], variants=variants, mpls=mpls
        )
        oracle_delta = service.stats.snapshot().since(before)
        before = service.stats.snapshot()
        (soa,) = _soa(
            service, [pool[2]], variants, mpls, confidences, False
        ).predictions
        soa_delta = service.stats.snapshot().since(before)
        assert list(soa.results) == list(oracle.results) == [
            (Variant.NO_COV, 3), (Variant.ALL, 3),
            (Variant.NO_COV, 1), (Variant.ALL, 1),
        ]
        assert _query_payload(soa, confidences) == _query_payload(
            oracle, confidences
        )
        assert soa_delta == oracle_delta
        assert soa_delta.assemblies == 4

    def test_bad_confidence_rejected(self, service, pool):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="confidence"):
                service.predict_batch([pool[0]], confidences=(bad,))


# ---------------------------------------------------------------------------
# Algebraic properties of a trustworthy batch kernel.
# ---------------------------------------------------------------------------


class TestBatchProperties:
    VARIANTS = (Variant.ALL, Variant.NO_VAR_X)
    MPLS = (1, 3)
    CONFIDENCES = (0.5, 0.95)

    def _payloads(self, service, queries):
        return _batch_payloads(
            _soa, service, queries, self.VARIANTS, self.MPLS, self.CONFIDENCES
        )[0]

    def test_permutation_invariance(self, service, pool):
        rng = np.random.default_rng(7)
        queries = [pool[int(i)] for i in rng.integers(0, len(pool), size=7)]
        order = [int(i) for i in rng.permutation(len(queries))]
        straight = self._payloads(service, queries)
        shuffled = self._payloads(service, [queries[i] for i in order])
        assert [straight[i] for i in order] == shuffled

    def test_batch_of_n_equals_n_batches_of_one(self, service, pool):
        queries = [pool[0], pool[3], pool[0], pool[5]]
        whole = self._payloads(service, queries)
        singles = [self._payloads(service, [sql])[0] for sql in queries]
        assert whole == singles

    def test_cache_hit_equals_cold_miss(self, tpch_db, calibrated_units):
        """Two identically-built services: cold oracle == warm SoA."""
        queries = [EDGE_SQLS[0], EDGE_SQLS[5], EDGE_SQLS[0]]

        def fresh():
            return PredictionService(
                tpch_db, calibrated_units, sampling_ratio=0.05, seed=3
            )

        cold, _ = _batch_payloads(
            _oracle, fresh(), queries, self.VARIANTS, self.MPLS,
            self.CONFIDENCES,
        )
        warm_service = fresh()
        warm_service.predict_batch(queries)  # populate the prepared cache
        warm, _ = _batch_payloads(
            _soa, warm_service, queries, self.VARIANTS, self.MPLS,
            self.CONFIDENCES,
        )
        # Cache flags legitimately differ between a cold and a warm run;
        # every served number must not.
        def strip(payloads):
            return [payload[2:] for payload in payloads]

        assert strip(warm) == strip(cold)
        assert [payload[:1] for payload in warm] == [
            payload[:1] for payload in cold
        ]

    def test_counters_match_scalar_on_completed_batches(
        self, tpch_db, calibrated_units
    ):
        queries = [EDGE_SQLS[0], EDGE_SQLS[1], EDGE_SQLS[0]]

        def deltas(serve):
            svc = PredictionService(
                tpch_db, calibrated_units, sampling_ratio=0.05, seed=3
            )
            svc.predict_batch(queries)  # identical warm state for both
            batch = serve(
                svc, queries, self.VARIANTS, self.MPLS, (), False
            )
            return batch.stats

        assert deltas(_soa) == deltas(_oracle)


# ---------------------------------------------------------------------------
# Interned plan-signature hashing: one definition for every consumer.
# ---------------------------------------------------------------------------


class _PlannedStub:
    """A mutable stand-in exposing just what plan_signature reads."""

    def __init__(self, planned):
        self.root = planned.root
        self.alias_tables = planned.alias_tables


class TestSignatureInterning:
    def test_signature_and_hash_are_interned(self, optimizer):
        planned = optimizer.plan_sql(EDGE_SQLS[0])
        signature = plan_signature(planned)
        cached = planned.cached_plan_signature
        assert cached[0] is planned.root
        assert cached[1] == signature
        assert cached[2] == zlib.crc32(signature.encode("utf-8"))
        # Repeat reads resolve from the interned tuple.
        assert plan_signature(planned) is cached[1]
        assert plan_signature_hash(planned) == cached[2]

    def test_hash_matches_crc32_of_signature(self, optimizer):
        for sql in EDGE_SQLS[:4]:
            planned = optimizer.plan_sql(sql)
            assert plan_signature_hash(planned) == zlib.crc32(
                plan_signature(planned).encode("utf-8")
            )

    def test_router_agrees_with_interned_hash(self, optimizer):
        """The ring must place the interned hash exactly where it places
        the signature string — the regression the shared definition
        exists to prevent."""
        router = ConsistentHashRouter(workers=5, replicas=16)
        for sql in EDGE_SQLS:
            planned = optimizer.plan_sql(sql)
            assert router.owner(plan_signature(planned)) == router.owner_point(
                plan_signature_hash(planned)
            )

    def test_root_replacement_invalidates_cache(self, optimizer):
        first = optimizer.plan_sql(EDGE_SQLS[0])
        second = optimizer.plan_sql(EDGE_SQLS[5])
        stub = _PlannedStub(first)
        original = plan_signature(stub)
        assert original == plan_signature(first)
        stub.root = second.root
        stub.alias_tables = second.alias_tables
        assert plan_signature(stub) == plan_signature(second)
        assert plan_signature_hash(stub) == plan_signature_hash(second)

    def test_frozen_stand_ins_still_answer(self, optimizer):
        planned = optimizer.plan_sql(EDGE_SQLS[0])

        class _Frozen:
            __slots__ = ("root", "alias_tables")

            def __init__(self):
                object.__setattr__(self, "root", planned.root)
                object.__setattr__(
                    self, "alias_tables", planned.alias_tables
                )

            def __setattr__(self, name, value):
                raise AttributeError(name)

        frozen = _Frozen()
        assert plan_signature(frozen) == plan_signature(planned)
        assert plan_signature_hash(frozen) == plan_signature_hash(planned)


# ---------------------------------------------------------------------------
# assemble_batch isolation and interval validation.
# ---------------------------------------------------------------------------


class _PoisonedAssembler:
    def unit_moments(self, options):
        raise PredictionError("poisoned assembler")


class TestAssembleBatchIsolation:
    def _batch_plan(self, service, queries, poison_slot=None):
        batch_plan = build_batch_plan(_entries(service, queries))
        if poison_slot is not None:
            prepared = batch_plan.prepared[poison_slot]
            prepared._assembler = _PoisonedAssembler()
            prepared._assembler_root = batch_plan.planned[poison_slot].root
        return batch_plan

    def test_isolate_records_plan_errors(self, tpch_db, calibrated_units):
        svc = PredictionService(
            tpch_db, calibrated_units, sampling_ratio=0.05, seed=3
        )
        batch_plan = self._batch_plan(
            svc, [EDGE_SQLS[0], EDGE_SQLS[1]], poison_slot=1
        )
        assembly = assemble_batch(
            batch_plan, svc._concurrent, (Variant.ALL,), (1,), isolate=True
        )
        assert set(assembly.plan_errors) == {1}
        assert (assembly.mean[1] == 0.0).all()
        assert assembly.mean[0, 0, 0] > 0.0

    def test_no_isolation_raises(self, tpch_db, calibrated_units):
        svc = PredictionService(
            tpch_db, calibrated_units, sampling_ratio=0.05, seed=3
        )
        batch_plan = self._batch_plan(svc, [EDGE_SQLS[0]], poison_slot=0)
        with pytest.raises(PredictionError, match="poisoned"):
            assemble_batch(
                batch_plan, svc._concurrent, (Variant.ALL,), (1,)
            )

    def test_interval_confidence_validation(self, service, pool):
        batch_plan = build_batch_plan(_entries(service, [pool[0]]))
        assembly = assemble_batch(
            batch_plan, service._concurrent, (Variant.ALL,), (1,)
        )
        intervals = batch_intervals(assembly, (0.5, 0.9))
        assert intervals.shape == (1, 1, 1, 2, 2)
        assert (intervals[..., 0] <= intervals[..., 1]).all()
        with pytest.raises(ValueError, match="confidence"):
            batch_intervals(assembly, (1.0,))
