"""Tests for sample tables and the Algorithm-1 selectivity estimator."""

import sys
import threading

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling import SampleDatabase, SelectivityEstimator
from repro.sampling.gee import gee_distinct_estimate, gee_selectivity


class TestSampleDatabase:
    def test_sample_sizes(self, tpch_db, sample_db):
        for name in tpch_db.table_names:
            expected = max(2, int(np.ceil(tpch_db.table(name).num_rows * 0.1)))
            assert sample_db.sample_size(name) == min(
                expected, tpch_db.table(name).num_rows
            )

    def test_indices_within_bounds_and_unique(self, tpch_db, sample_db):
        for name in tpch_db.table_names:
            indices = sample_db.sample_indices(name)
            assert indices.min() >= 0
            assert indices.max() < tpch_db.table(name).num_rows
            assert len(np.unique(indices)) == len(indices)

    def test_copies_differ(self, tpch_db, sample_db):
        a = sample_db.sample_indices("lineitem", 0)
        b = sample_db.sample_indices("lineitem", 1)
        assert not np.array_equal(a, b)

    def test_copy_assignment_for_self_join(self, sample_db):
        assignment = sample_db.assign_copies({"n1": "nation", "n2": "nation"})
        assert {assignment["n1"], assignment["n2"]} == {0, 1}

    def test_too_many_occurrences_rejected(self, sample_db):
        with pytest.raises(SamplingError):
            sample_db.assign_copies({"a": "nation", "b": "nation", "c": "nation"})

    def test_invalid_ratio(self, tpch_db):
        with pytest.raises(SamplingError):
            SampleDatabase(tpch_db, sampling_ratio=0.0)
        with pytest.raises(SamplingError):
            SampleDatabase(tpch_db, sampling_ratio=1.5)

    def test_sample_pages_positive(self, sample_db):
        assert sample_db.sample_pages("lineitem") >= 1

    def test_sample_column_is_the_materialized_sample(self, tpch_db, sample_db):
        values = sample_db.sample_column("orders", "o_totalprice", copy=1)
        expected = tpch_db.table("orders").column("o_totalprice")[
            sample_db.sample_indices("orders", 1)
        ]
        assert np.array_equal(values, expected)

    def test_sample_column_is_cached_and_read_only(self, sample_db):
        first = sample_db.sample_column("lineitem", "l_shipmode")
        assert sample_db.sample_column("lineitem", "l_shipmode") is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = "MAIL"

    def test_concurrent_first_reads_share_one_array(self, tpch_db):
        samples = SampleDatabase(tpch_db, sampling_ratio=0.05, seed=2)
        columns = tpch_db.table("lineitem").schema.names
        barrier = threading.Barrier(4)
        seen = [[] for _ in range(4)]

        def read(mine):
            barrier.wait(timeout=10)
            for column in columns:
                mine.append(samples.sample_column("lineitem", column, copy=1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(m,)) for m in seen]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        cached = [samples.sample_column("lineitem", c, copy=1) for c in columns]
        for mine in seen:
            assert len(mine) == len(columns)
            assert all(got is want for got, want in zip(mine, cached))


class TestScanEstimates:
    def estimate(self, optimizer, sample_db, sql):
        planned = optimizer.plan_sql(sql)
        return planned, SelectivityEstimator(sample_db, planned).estimate()

    def test_scan_estimate_close_to_truth(self, tpch_db, optimizer, sample_db):
        planned, estimate = self.estimate(
            optimizer, sample_db, "SELECT * FROM orders WHERE o_totalprice <= 225000"
        )
        truth = float(
            (tpch_db.table("orders").column("o_totalprice") <= 225000).mean()
        )
        node = estimate.per_node[planned.root.op_id]
        assert node.mean == pytest.approx(truth, abs=0.05)
        assert node.source == "sample"

    def test_scan_variance_is_bernoulli(self, optimizer, sample_db):
        planned, estimate = self.estimate(
            optimizer, sample_db, "SELECT * FROM orders WHERE o_totalprice <= 225000"
        )
        node = estimate.per_node[planned.root.op_id]
        n = node.sample_sizes["orders"]
        assert node.variance == pytest.approx(
            node.mean * (1 - node.mean) / n, rel=1e-9
        )

    def test_more_samples_smaller_variance(self, tpch_db, optimizer):
        sql = "SELECT * FROM orders WHERE o_totalprice <= 225000"
        small = SampleDatabase(tpch_db, sampling_ratio=0.01, seed=1)
        large = SampleDatabase(tpch_db, sampling_ratio=0.2, seed=1)
        planned = optimizer.plan_sql(sql)
        var_small = SelectivityEstimator(small, planned).estimate().per_node[
            planned.root.op_id
        ].variance
        var_large = SelectivityEstimator(large, planned).estimate().per_node[
            planned.root.op_id
        ].variance
        assert var_large < var_small

    def test_estimator_consistency(self, tpch_db, optimizer):
        """Strong consistency: error shrinks as the sampling ratio grows."""
        sql = "SELECT * FROM lineitem WHERE l_quantity <= 25"
        truth = float((tpch_db.table("lineitem").column("l_quantity") <= 25).mean())
        planned = optimizer.plan_sql(sql)
        errors = []
        for ratio in (0.01, 0.3):
            errs = []
            for seed in range(5):
                samples = SampleDatabase(tpch_db, sampling_ratio=ratio, seed=seed)
                estimate = SelectivityEstimator(samples, planned).estimate()
                errs.append(abs(estimate.per_node[planned.root.op_id].mean - truth))
            errors.append(np.mean(errs))
        assert errors[1] < errors[0]


class TestJoinEstimates:
    def test_join_estimate_close_to_truth(self, tpch_db, optimizer, sample_db, executor):
        sql = (
            "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey "
            "AND o_totalprice <= 225000"
        )
        planned = optimizer.plan_sql(sql)
        estimate = SelectivityEstimator(sample_db, planned).estimate()
        result = executor.execute(planned)
        node = estimate.resolve(planned.root.op_id)
        truth = result.cardinalities[planned.root.op_id] / planned.leaf_row_product(
            planned.root
        )
        # FK-join sample estimates are noisy; demand the right magnitude.
        assert node.mean == pytest.approx(truth, rel=0.6)

    def test_join_variance_components(self, optimizer, sample_db):
        sql = "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey"
        planned = optimizer.plan_sql(sql)
        estimate = SelectivityEstimator(sample_db, planned).estimate()
        node = estimate.resolve(planned.root.op_id)
        assert set(node.var_components) == {"orders", "lineitem"}
        assert all(v >= 0 for v in node.var_components.values())
        assert node.variance == pytest.approx(
            sum(node.var_components.values()), rel=1e-9
        )

    def test_restricted_variance_monotone(self, optimizer, sample_db):
        """S^2(m, n) grows with the shared-relation set (Lemma 12)."""
        sql = (
            "SELECT * FROM customer, orders, lineitem "
            "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"
        )
        planned = optimizer.plan_sql(sql)
        estimate = SelectivityEstimator(sample_db, planned).estimate()
        node = estimate.resolve(planned.root.op_id)
        single = node.restricted_variance(["lineitem"])
        double = node.restricted_variance(["lineitem", "orders"])
        triple = node.restricted_variance(["lineitem", "orders", "customer"])
        assert single <= double <= triple
        assert triple == pytest.approx(node.variance, rel=1e-9)

    def test_empty_sample_join_falls_back(self, tpch_db, optimizer):
        # An impossible predicate empties the sample result.
        sql = (
            "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey "
            "AND o_totalprice < 0"
        )
        samples = SampleDatabase(tpch_db, sampling_ratio=0.02, seed=3)
        planned = optimizer.plan_sql(sql)
        estimate = SelectivityEstimator(samples, planned).estimate()
        node = estimate.resolve(planned.root.op_id)
        assert node.variance >= 0
        assert 0 <= node.mean <= 1


class TestAggregateHandling:
    def test_aggregate_uses_optimizer_estimate(self, optimizer, sample_db):
        sql = "SELECT COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey"
        planned = optimizer.plan_sql(sql)
        estimate = SelectivityEstimator(sample_db, planned).estimate()
        root = estimate.per_node[planned.root.op_id]
        assert root.source == "optimizer"
        assert root.variance == 0.0

    def test_gee_source_when_enabled(self, optimizer, sample_db):
        sql = (
            "SELECT o_orderpriority, COUNT(*) FROM orders "
            "GROUP BY o_orderpriority"
        )
        planned = optimizer.plan_sql(sql)
        estimate = SelectivityEstimator(sample_db, planned, use_gee=True).estimate()
        root = estimate.per_node[planned.root.op_id]
        assert root.source == "gee"
        assert root.mean > 0

    def test_sort_aliases_child_variable(self, optimizer, sample_db):
        sql = (
            "SELECT * FROM orders WHERE o_totalprice > 300000 "
            "ORDER BY o_totalprice"
        )
        planned = optimizer.plan_sql(sql)
        estimate = SelectivityEstimator(sample_db, planned).estimate()
        root = estimate.per_node[planned.root.op_id]
        assert root.source == "alias"
        resolved = estimate.resolve(planned.root.op_id)
        assert resolved.source == "sample"

    def test_sample_run_counts_recorded(self, optimizer, sample_db):
        sql = "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey"
        planned = optimizer.plan_sql(sql)
        estimate = SelectivityEstimator(sample_db, planned).estimate()
        assert len(estimate.sample_run_counts) >= 3
        total = sum(c.nt for c in estimate.sample_run_counts.values())
        assert total > 0


class TestGee:
    def test_exact_when_fully_sampled(self):
        keys = [np.array([1, 1, 2, 3, 3, 3])]
        assert gee_distinct_estimate(keys, scale_up=1.0) == 3.0

    def test_scales_singletons(self):
        keys = [np.array([1, 2, 3, 4])]  # all singletons
        assert gee_distinct_estimate(keys, scale_up=4.0) == pytest.approx(8.0)

    def test_empty_input(self):
        assert gee_distinct_estimate([np.array([], dtype=np.int64)], 2.0) == 0.0

    def test_selectivity_bounded(self):
        keys = [np.array([1, 2, 2, 3])]
        mean, variance = gee_selectivity(keys, scale_up=100.0, denominator=10.0)
        assert 0 < mean <= 1.0
        assert variance >= 0
