"""Tests for the cost-function families, NNLS solver, and grid fitting."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costfuncs import C1, C2, C4, C5, C6, CostFunctionFitter, family_for, nnls
from repro.errors import FittingError
from repro.plan import OpKind
from repro.sampling import SelectivityEstimator


class TestFamilies:
    def test_shapes(self):
        assert C1.num_coefficients == 1
        assert C2.num_coefficients == 2
        assert C4.num_coefficients == 3
        assert C6.num_coefficients == 4

    def test_design_rows(self):
        one = np.array([0.5])
        assert C2.design_matrix({"x": one}).tolist() == [[0.5, 1.0]]
        assert C4.design_matrix({"xl": one}).tolist() == [[0.25, 0.5, 1.0]]
        assert C6.design_matrix({"xl": one, "xr": np.array([0.2])}).tolist() == [
            [0.1, 0.5, 0.2, 1.0]
        ]
        # Two variables: one row per grid point, the first variable slowest.
        design = C6.design_matrix(
            {"xl": np.array([0.5, 1.0]), "xr": np.array([0.2, 0.4])}
        )
        assert design.flags.c_contiguous and design.dtype == np.float64
        assert design.tolist() == [
            [0.1, 0.5, 0.2, 1.0],
            [0.2, 0.5, 0.4, 1.0],
            [0.2, 1.0, 0.2, 1.0],
            [0.4, 1.0, 0.4, 1.0],
        ]
        assert C1.design_matrix({}).tolist() == [[1.0]]

    def test_evaluate(self):
        coefficients = np.array([2.0, 3.0, 1.0])
        design = C5.design_matrix({"xl": np.array([0.5]), "xr": np.array([0.1])})
        value = float(design[0] @ coefficients)
        assert value == pytest.approx(2.0 * 0.5 + 3.0 * 0.1 + 1.0)

    def test_family_mapping(self):
        assert family_for(OpKind.SEQ_SCAN, "cs") is C1
        assert family_for(OpKind.INDEX_SCAN, "cr") is C2
        assert family_for(OpKind.SORT, "co") is C4
        assert family_for(OpKind.HASH_JOIN, "ct") is C5
        assert family_for(OpKind.NESTLOOP_JOIN, "no" if False else "co") is C6
        assert family_for(OpKind.SEQ_SCAN, "cr") is None  # seq scans never seek


class TestNnls:
    def test_recovers_nonnegative_solution(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(0, 1, (30, 3))
        true_b = np.array([2.0, 0.5, 1.0])
        y = A @ true_b
        b, residual = nnls(A, y)
        assert b == pytest.approx(true_b, rel=1e-6)
        assert residual < 1e-8

    def test_clamps_negative_components(self):
        # unconstrained solution has a negative coefficient
        A = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        y = np.array([3.0, 2.0, 1.0])  # decreasing: slope would be negative
        b, _ = nnls(A, y)
        assert np.all(b >= 0)

    def test_bad_shapes(self):
        with pytest.raises(FittingError):
            nnls(np.ones((3, 2)), np.ones(4))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(4, 20), n=st.integers(1, 4))
    def test_matches_scipy(self, seed, m, n):
        """Property: our Lawson-Hanson agrees with scipy.optimize.nnls."""
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        ours, our_res = nnls(A, y)
        reference, ref_res = scipy.optimize.nnls(A, y)
        assert our_res == pytest.approx(ref_res, abs=1e-6)
        assert ours == pytest.approx(reference, abs=1e-5)


class TestFitting:
    def fit(self, optimizer, sample_db, sql):
        planned = optimizer.plan_sql(sql)
        estimate = SelectivityEstimator(sample_db, planned).estimate()
        fitted = CostFunctionFitter(planned, estimate).fit_all()
        return planned, estimate, fitted

    def test_seq_scan_constant(self, tpch_db, optimizer, sample_db):
        planned, _, fitted = self.fit(
            optimizer, sample_db, "SELECT * FROM orders WHERE o_totalprice > 100000"
        )
        scan_functions = fitted[planned.root.op_id].functions
        stats = tpch_db.table_stats("orders")
        # nt must recover exactly |R| (the C1 constant)
        assert scan_functions["ct"].coefficients[0] == pytest.approx(stats.num_rows)
        assert scan_functions["cs"].coefficients[0] == pytest.approx(stats.num_pages)

    def test_index_scan_linear_coefficient(self, tpch_db, optimizer, sample_db):
        planned, estimate, fitted = self.fit(
            optimizer, sample_db,
            "SELECT * FROM lineitem WHERE l_shipdate <= DATE '1992-03-01'",
        )
        node = planned.root
        assert node.kind is OpKind.INDEX_SCAN
        function = fitted[node.op_id].functions["ci"]
        # ni = fetch_factor * |R| * X: the linear coefficient ~ factor * |R|
        rows = tpch_db.table("lineitem").num_rows
        expected = node.index_fetch_factor * rows
        assert function.coefficients[0] == pytest.approx(expected, rel=0.05)

    def test_hash_join_recovers_engine_coefficients(self, tpch_db, optimizer, sample_db):
        planned, estimate, fitted = self.fit(
            optimizer, sample_db,
            "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey",
        )
        join = planned.root
        assert join.kind is OpKind.HASH_JOIN
        function = fitted[join.op_id].functions["ct"]
        # nt = Nl + Nr = |Rl| xl + |Rr| xr: coefficients are the table sizes
        sizes = sorted(function.coefficients[:2])
        expected = sorted(
            [tpch_db.table("orders").num_rows, tpch_db.table("lineitem").num_rows]
        )
        assert sizes[0] == pytest.approx(expected[0], rel=0.05)
        assert sizes[1] == pytest.approx(expected[1], rel=0.05)

    def test_all_coefficients_nonnegative(self, optimizer, sample_db):
        planned, _, fitted = self.fit(
            optimizer, sample_db,
            "SELECT COUNT(*) FROM customer, orders, lineitem "
            "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
            "AND o_totalprice > 150000",
        )
        for op_functions in fitted.values():
            for function in op_functions.functions.values():
                assert np.all(function.coefficients >= 0)

    def test_evaluate_matches_engine_at_estimate(self, tpch_db, optimizer, sample_db):
        """The fitted polynomial reproduces the engine count at the mean."""
        from repro.optimizer import CostModel

        planned, estimate, fitted = self.fit(
            optimizer, sample_db,
            "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey",
        )
        join = planned.root
        function = fitted[join.op_id].functions["ct"]
        values = {
            var_id: estimate.per_node[var_id].mean
            for var_id in function.var_bindings.values()
        }
        got = function.evaluate(values)
        model = CostModel(tpch_db)
        n_left = planned.leaf_row_product(join.children[0]) * values[
            function.var_bindings["xl"]
        ]
        n_right = planned.leaf_row_product(join.children[1]) * values[
            function.var_bindings["xr"]
        ]
        truth = model.operator_counts(join, n_left, n_right, 0).as_dict()["ct"]
        assert got == pytest.approx(truth, rel=1e-6)

    def test_monomials_use_variable_ids(self, optimizer, sample_db):
        planned, estimate, fitted = self.fit(
            optimizer, sample_db,
            "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey",
        )
        function = fitted[planned.root.op_id].functions["ct"]
        var_ids = {
            var_id for _, mono in function.monomials() for var_id in mono
        }
        scan_ids = {node.op_id for node in planned.root.walk() if node.is_scan}
        assert var_ids <= scan_ids

    def test_sort_quadratic_approximates_nlogn(self, tpch_db, optimizer, sample_db):
        planned, estimate, fitted = self.fit(
            optimizer, sample_db,
            "SELECT * FROM orders WHERE o_totalprice > 100000 ORDER BY o_totalprice",
        )
        sort = planned.root
        assert sort.kind is OpKind.SORT
        function = fitted[sort.op_id].functions["co"]
        # The quadratic fit must be a decent approximation of 2 N log2 N at
        # the estimated selectivity.
        var_id = function.var_bindings["xl"]
        x = estimate.per_node[var_id].mean
        n = planned.leaf_row_product(sort.children[0]) * x
        truth = 2.0 * n * np.log2(max(n, 2))
        assert function.evaluate({var_id: x}) == pytest.approx(truth, rel=0.05)
