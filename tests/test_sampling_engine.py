"""The shared sub-plan sampling engine: cache primitives, canonical
signatures, estimator/LEC/service integration, entry byte accounting,
and the satellite regressions (empty intermediates, signature
collisions, sample-size fallback)."""

import gc
import math
import tracemalloc

import pytest

from repro.caching import ByteBudgetLRU, CacheStats
from repro.core import LeastExpectedCostChooser, UncertaintyPredictor
from repro.plan import (
    HashJoinNode,
    IndexScanNode,
    MergeJoinNode,
    PredicateKind,
    ScanPredicate,
    SeqScanNode,
    SortNode,
    assign_op_ids,
)
from repro.sampling import SamplingEngine, subplan_signature
from repro.sampling.estimator import NodeSelectivity, SelectivityEstimator
from repro.sampling.sample_db import MIN_SAMPLE_ROWS
from repro.service import PredictionService
from repro.workloads import tpch_workload


# ---------------------------------------------------------------------------
# ByteBudgetLRU
# ---------------------------------------------------------------------------


class TestByteBudgetLRU:
    def test_evicts_by_bytes_not_count(self):
        cache = ByteBudgetLRU(max_bytes=100)
        cache.put("a", "A", 40)
        cache.put("b", "B", 40)
        assert cache.get("a") == "A"  # refreshes "a"
        cache.put("c", "C", 40)  # 120 bytes: evicts LRU "b"
        assert cache.get("b") is None
        assert cache.get("a") == "A"
        assert cache.get("c") == "C"
        assert cache.stats.evictions == 1
        assert cache.bytes_used == 80

    def test_oversized_entry_rejected(self):
        cache = ByteBudgetLRU(max_bytes=100)
        cache.put("small", "s", 10)
        assert not cache.put("huge", "h", 101)
        assert cache.get("huge") is None
        assert cache.get("small") == "s"  # nothing was evicted for it
        assert cache.stats.oversized == 1

    def test_replacing_key_updates_bytes(self):
        cache = ByteBudgetLRU(max_bytes=100)
        cache.put("a", "A", 60)
        cache.put("a", "A2", 30)
        assert cache.bytes_used == 30
        assert cache.get("a") == "A2"

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            ByteBudgetLRU(max_bytes=0)

    def test_clear(self):
        cache = ByteBudgetLRU(max_bytes=100)
        cache.put("a", "A", 60)
        cache.clear()
        assert len(cache) == 0 and cache.bytes_used == 0


class TestCacheStats:
    def test_no_lookups_has_no_rate(self):
        stats = CacheStats()
        assert stats.hit_rate is None
        assert stats.describe() == "no lookups"

    def test_rate_after_lookups(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == pytest.approx(0.75)
        assert stats.describe() == "75% (3/4)"

    def test_shared_between_both_cache_layers(self):
        # One stats dataclass for PreparedCache and the sampling engine.
        from repro.service import PreparedCache

        assert isinstance(PreparedCache(maxsize=2).stats, CacheStats)
        assert isinstance(SamplingEngine().stats, CacheStats)


# ---------------------------------------------------------------------------
# Canonical sub-plan signatures
# ---------------------------------------------------------------------------


def _scan(alias, table="orders", predicates=()):
    return SeqScanNode(table=table, alias=alias, predicates=list(predicates))


class TestSubplanSignature:
    def test_invariant_to_op_ids(self):
        a = assign_op_ids(
            HashJoinNode(keys=[("a.k", "b.k")], children=[_scan("a"), _scan("b")])
        )
        b = HashJoinNode(keys=[("a.k", "b.k")], children=[_scan("a"), _scan("b")])
        for position, node in enumerate(b.walk()):
            node.op_id = position + 40  # wildly different numbering
        assert subplan_signature(a, {}) == subplan_signature(b, {})

    def test_invariant_to_join_input_order(self):
        forward = HashJoinNode(
            keys=[("a.k", "b.k")], children=[_scan("a"), _scan("b")]
        )
        swapped = HashJoinNode(
            keys=[("b.k", "a.k")], children=[_scan("b"), _scan("a")]
        )
        assert subplan_signature(forward, {}) == subplan_signature(swapped, {})

    def test_invariant_to_join_algorithm(self):
        hash_join = HashJoinNode(
            keys=[("a.k", "b.k")], children=[_scan("a"), _scan("b")]
        )
        merge_join = MergeJoinNode(
            keys=[("a.k", "b.k")], children=[_scan("a"), _scan("b")]
        )
        assert subplan_signature(hash_join, {}) == subplan_signature(merge_join, {})

    def test_invariant_to_scan_access_path(self):
        predicate = ScanPredicate("a", "o_totalprice", PredicateKind.GT, (10.0,))
        seq = SeqScanNode(table="orders", alias="a", predicates=[predicate])
        index = IndexScanNode(
            table="orders",
            alias="a",
            index_column="o_totalprice",
            index_predicate=predicate,
            predicates=[],
        )
        assert subplan_signature(seq, {}) == subplan_signature(index, {})

    def test_sort_is_transparent(self):
        join = HashJoinNode(
            keys=[("a.k", "b.k")], children=[_scan("a"), _scan("b")]
        )
        sorted_join = SortNode(
            keys=[("a.k", False)],
            children=[
                HashJoinNode(
                    keys=[("a.k", "b.k")], children=[_scan("a"), _scan("b")]
                )
            ],
        )
        assert subplan_signature(join, {}) == subplan_signature(sorted_join, {})

    def test_different_keys_differ(self):
        one = HashJoinNode(keys=[("a.k", "b.k")], children=[_scan("a"), _scan("b")])
        other = HashJoinNode(
            keys=[("a.j", "b.j")], children=[_scan("a"), _scan("b")]
        )
        assert subplan_signature(one, {}) != subplan_signature(other, {})

    def test_different_copies_differ(self):
        scan = _scan("a")
        assert subplan_signature(scan, {"a": 0}) != subplan_signature(scan, {"a": 1})

    def test_different_constants_differ(self):
        low = _scan(
            "a",
            predicates=[ScanPredicate("a", "o_totalprice", PredicateKind.GT, (1.0,))],
        )
        high = _scan(
            "a",
            predicates=[ScanPredicate("a", "o_totalprice", PredicateKind.GT, (2.0,))],
        )
        assert subplan_signature(low, {}) != subplan_signature(high, {})


# ---------------------------------------------------------------------------
# Estimator integration
# ---------------------------------------------------------------------------

SQL_JOIN = (
    "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey "
    "AND o_totalprice > 150000"
)
SQL_AGG = (
    "SELECT l_returnflag, SUM(l_quantity) AS s FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey GROUP BY l_returnflag"
)


def _assert_estimates_identical(reference, served):
    assert reference.per_node.keys() == served.per_node.keys()
    for op_id, ref in reference.per_node.items():
        hot = served.per_node[op_id]
        assert ref.mean == hot.mean
        assert ref.variance == hot.variance
        assert ref.var_components == hot.var_components
        assert ref.source == hot.source
        assert ref.alias_of == hot.alias_of
    assert reference.sample_run_counts == served.sample_run_counts


class TestEstimatorWithEngine:
    @pytest.mark.parametrize("sql", [SQL_JOIN, SQL_AGG])
    def test_cached_estimates_bitwise_identical(self, optimizer, sample_db, sql):
        planned = optimizer.plan_sql(sql)
        reference = SelectivityEstimator(sample_db, planned).estimate()
        engine = SamplingEngine()
        SelectivityEstimator(sample_db, planned, engine=engine).estimate()
        served = SelectivityEstimator(sample_db, planned, engine=engine).estimate()
        assert engine.stats.hits > 0
        _assert_estimates_identical(reference, served)

    def test_second_pass_hits_every_memoizable_node(self, optimizer, sample_db):
        planned = optimizer.plan_sql(SQL_JOIN)
        engine = SamplingEngine()
        SelectivityEstimator(sample_db, planned, engine=engine).estimate()
        stored = len(engine)
        before = engine.stats.misses
        SelectivityEstimator(sample_db, planned, engine=engine).estimate()
        assert engine.stats.misses == before  # no new misses
        assert len(engine) == stored

    def test_engines_keyed_by_sample_fingerprint(
        self, tpch_db, optimizer, sample_db, small_sample_db
    ):
        planned = optimizer.plan_sql(SQL_JOIN)
        engine = SamplingEngine()
        big = SelectivityEstimator(sample_db, planned, engine=engine).estimate()
        small = SelectivityEstimator(
            small_sample_db, planned, engine=engine
        ).estimate()
        # Different sample sets must not share entries.
        root = planned.root.op_id
        assert big.per_node[root].sample_sizes != small.per_node[root].sample_sizes
        reference = SelectivityEstimator(small_sample_db, planned).estimate()
        _assert_estimates_identical(reference, small)

    def test_engine_is_always_truthy(self):
        assert bool(SamplingEngine())  # even when empty (len() == 0)


class TestLecEngineSharing:
    def test_candidates_share_sampling_work(self, tpch_db, sample_db, calibrated_units):
        chooser = LeastExpectedCostChooser(tpch_db, calibrated_units)
        sql = (
            "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey "
            "AND o_orderdate <= DATE '1994-01-01'"
        )
        candidates = chooser.candidates(sql, sample_db)
        assert candidates
        # The candidate configs share at least their leaf scans.
        assert chooser.engine.stats.hits > 0

    def test_engine_does_not_change_the_choice(
        self, tpch_db, sample_db, calibrated_units
    ):
        sql = (
            "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey "
            "AND o_totalprice > 200000"
        )
        with_engine = LeastExpectedCostChooser(tpch_db, calibrated_units)
        without = LeastExpectedCostChooser(tpch_db, calibrated_units)
        without._engine = None
        a = with_engine.candidates(sql, sample_db)
        b = without.candidates(sql, sample_db)
        assert [c.label for c in a] == [c.label for c in b]
        for x, y in zip(a, b):
            assert x.expected_cost == y.expected_cost
            assert x.cost_std == y.cost_std

    def test_shared_engine_across_choosers(self, tpch_db, sample_db, calibrated_units):
        engine = SamplingEngine()
        sql = "SELECT * FROM orders WHERE o_totalprice > 200000"
        LeastExpectedCostChooser(
            tpch_db, calibrated_units, engine=engine
        ).candidates(sql, sample_db)
        misses = engine.stats.misses
        LeastExpectedCostChooser(
            tpch_db, calibrated_units, engine=engine
        ).candidates(sql, sample_db)
        assert engine.stats.misses == misses  # second chooser fully served


class TestServiceEngine:
    BATCH = [
        "SELECT l_returnflag, SUM(l_quantity) AS s FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey GROUP BY l_returnflag",
        "SELECT l_shipmode, COUNT(*) AS n FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey GROUP BY l_shipmode",
    ]

    def test_distinct_metrics_share_subplans(self, tpch_db, calibrated_units):
        service = PredictionService(tpch_db, calibrated_units, sampling_ratio=0.05)
        batch = service.predict_batch(self.BATCH)
        assert len(batch) == 2
        # Distinct plans: no prepared-cache hit, but the join below the
        # aggregates is sampled once.
        assert batch.stats.prepare_cache_hits == 0
        assert service.sampling_engine.stats.hits > 0

    def test_engine_off_matches_engine_on(self, tpch_db, calibrated_units):
        on = PredictionService(tpch_db, calibrated_units, sampling_ratio=0.05)
        off = PredictionService(
            tpch_db, calibrated_units, sampling_ratio=0.05, sampling_engine_bytes=0
        )
        assert off.sampling_engine is None
        for sql in self.BATCH:
            a = on.predict_query(sql).result()
            b = off.predict_query(sql).result()
            assert a.mean == b.mean
            assert a.std == b.std

    def test_report_exposes_both_cache_layers(self, tpch_db, calibrated_units):
        service = PredictionService(tpch_db, calibrated_units, sampling_ratio=0.05)
        service.predict_batch(self.BATCH + self.BATCH)
        report = service.report()
        assert report.stats.queries_served == 4
        assert report.prepared_cache.hits == 2  # the repeated pair
        assert report.sampling_entries == len(service.sampling_engine)
        assert report.sampling_bytes_used > 0
        text = report.render()
        assert "prepared cache" in text and "sampling engine" in text

    def test_report_with_engine_disabled(self, tpch_db, calibrated_units):
        service = PredictionService(
            tpch_db, calibrated_units, sampling_ratio=0.05, sampling_engine_bytes=0
        )
        service.predict_query(self.BATCH[0])
        report = service.report()
        assert report.sampling_entries == 0
        assert report.sampling_cache.hit_rate is None
        assert "no lookups" in report.render()


# ---------------------------------------------------------------------------
# Satellite regressions
# ---------------------------------------------------------------------------


class TestEmptyIntermediates:
    """A predicate that eliminates every sample tuple must not poison the
    variance math (NaN / negative values from the n_k - 1 denominators or
    the Q_{k,j} counters)."""

    EMPTY_SCAN = "SELECT * FROM lineitem WHERE l_quantity < -5"
    EMPTY_JOIN = (
        "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey "
        "AND o_totalprice < -1"
    )

    @pytest.mark.parametrize("sql", [EMPTY_SCAN, EMPTY_JOIN])
    def test_estimates_stay_finite(self, optimizer, sample_db, sql):
        planned = optimizer.plan_sql(sql)
        estimate = SelectivityEstimator(sample_db, planned).estimate()
        for selectivity in estimate.per_node.values():
            if selectivity.source == "alias":
                continue
            assert math.isfinite(selectivity.mean)
            assert math.isfinite(selectivity.variance)
            assert selectivity.variance >= 0.0
            for component in selectivity.var_components.values():
                assert math.isfinite(component) and component >= 0.0

    @pytest.mark.parametrize("sql", [EMPTY_SCAN, EMPTY_JOIN])
    def test_prediction_stays_finite(self, optimizer, sample_db, calibrated_units, sql):
        planned = optimizer.plan_sql(sql)
        prediction = UncertaintyPredictor(calibrated_units).predict(
            planned, sample_db
        )
        assert math.isfinite(prediction.mean) and prediction.mean >= 0.0
        assert math.isfinite(prediction.std) and prediction.std >= 0.0

    def test_non_finite_optimizer_estimate_is_guarded(
        self, optimizer, sample_db, monkeypatch
    ):
        # Both fallback paths (empty intermediate, aggregate) clamp the
        # optimizer's estimate; min(nan, 1.0) is nan and used to leak
        # through the aggregate path.
        planned = optimizer.plan_sql(
            "SELECT COUNT(*) AS n FROM orders, lineitem "
            "WHERE o_orderkey = l_orderkey GROUP BY o_orderpriority"
        )
        monkeypatch.setattr(
            planned, "est_selectivity", lambda node: float("nan")
        )
        estimate = SelectivityEstimator(sample_db, planned).estimate()
        for selectivity in estimate.per_node.values():
            if selectivity.source == "alias":
                continue
            assert math.isfinite(selectivity.mean)
            assert 0.0 <= selectivity.mean <= 1.0

    def test_empty_results_are_memoized_but_not_their_fallback(
        self, optimizer, sample_db, monkeypatch
    ):
        # An empty intermediate and its run counts depend only on the
        # subtree, so they are stored; its selectivity is the optimizer
        # fallback, which reads the consuming plan's estimate, so each
        # plan gets its own.
        engine = SamplingEngine()
        first_plan = optimizer.plan_sql(self.EMPTY_SCAN)
        root = first_plan.root.op_id
        first = SelectivityEstimator(sample_db, first_plan, engine=engine).estimate()
        assert len(engine) == 1
        second_plan = optimizer.plan_sql(self.EMPTY_SCAN)
        monkeypatch.setattr(second_plan, "est_selectivity", lambda node: 0.25)
        hits = engine.stats.hits
        served = SelectivityEstimator(
            sample_db, second_plan, engine=engine
        ).estimate()
        assert engine.stats.hits == hits + 1
        assert first.per_node[root].mean != 0.25
        assert served.per_node[root].mean == 0.25
        assert served.per_node[root].variance == 0.25 * 0.25
        reference = SelectivityEstimator(sample_db, second_plan).estimate()
        _assert_estimates_identical(reference, served)


class TestEntryBytes:
    def test_charged_bytes_track_what_clear_frees(self, optimizer, sample_db):
        plans = [optimizer.plan_sql(sql) for sql in tpch_workload(300, seed=11)]
        engine = SamplingEngine()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            for planned in plans:
                SelectivityEstimator(sample_db, planned, engine=engine).estimate()
            gc.collect()
            charged = engine.bytes_used
            before = tracemalloc.get_traced_memory()[0]
            engine.clear()
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            if started:
                tracemalloc.stop()
        assert len(plans) == 300 and freed > 0
        assert 0.8 * freed <= charged <= 1.25 * freed, (charged, freed)


class TestMinSampleSizeFallback:
    def test_sample_free_estimate_reports_documented_floor(self):
        selectivity = NodeSelectivity(
            op_id=0,
            mean=0.5,
            variance=0.0,
            var_components={},
            leaf_aliases=(),
            sample_sizes={},
            source="optimizer",
        )
        assert selectivity.min_sample_size() == MIN_SAMPLE_ROWS

    def test_alias_nodes_hit_the_fallback(self, optimizer, sample_db):
        # ORDER BY produces a Sort node whose selectivity is an alias
        # pass-through with no sample sizes of its own.
        planned = optimizer.plan_sql(
            "SELECT * FROM orders WHERE o_totalprice > 100000 "
            "ORDER BY o_totalprice"
        )
        estimate = SelectivityEstimator(sample_db, planned).estimate()
        aliases = [
            s for s in estimate.per_node.values() if s.source == "alias"
        ]
        assert aliases, "expected a Sort alias node in the plan"
        for selectivity in aliases:
            assert selectivity.min_sample_size() == MIN_SAMPLE_ROWS

    def test_sampled_estimate_ignores_the_floor(self, optimizer, sample_db):
        planned = optimizer.plan_sql("SELECT * FROM orders")
        estimate = SelectivityEstimator(sample_db, planned).estimate()
        root = estimate.per_node[planned.root.op_id]
        assert root.min_sample_size() == min(root.sample_sizes.values())
        assert root.min_sample_size() > MIN_SAMPLE_ROWS
