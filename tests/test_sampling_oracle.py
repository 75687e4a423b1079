"""The sampling pass, differentially locked to its eager reference.

``EagerSelectivityEstimator`` below is the pass the production one
replaced, kept as the oracle: its intermediates carry every column of
every alias, copied at the sample positions by the scan and copied
again after each predicate and each join. The production
:class:`SelectivityEstimator` carries provenance only and gathers a
column where a predicate, a join key or a GEE group key reads it. None
of that may move a bit: every :class:`NodeSelectivity` field and every
sample-run count is compared as bytes, with the engine off, cold and
warm, across seeded TPC-H instantiations and queries covering each
predicate kind, an index scan, a self-join over two sample copies and
GEE group keys.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest

from repro.executor import kernels
from repro.optimizer import OptimizerConfig, Optimizer
from repro.optimizer.cost_model import ResourceCounts
from repro.plan import IndexScanNode
from repro.plan.physical import FilterNode, OpKind
from repro.plan.predicates import ColumnPairScanPredicate
from repro.sampling import SamplingEngine
from repro.sampling.estimator import SelectivityEstimator, _SampleIntermediate
from repro.workloads import seljoin_workload, tpch_workload


@dataclasses.dataclass
class _EagerIntermediate:
    """Sample rows with provenance and every column, copied."""

    columns: dict[str, np.ndarray]
    provenance: dict[str, np.ndarray]
    num_rows: int

    def select(self, mask: np.ndarray) -> "_EagerIntermediate":
        return _EagerIntermediate(
            columns={k: v[mask] for k, v in self.columns.items()},
            provenance={k: v[mask] for k, v in self.provenance.items()},
            num_rows=int(mask.sum()),
        )


def _sample_predicate_mask(data, alias, predicate) -> np.ndarray:
    if isinstance(predicate, ColumnPairScanPredicate):
        return predicate.mask(
            data.columns[f"{alias}.{predicate.left_column}"],
            data.columns[f"{alias}.{predicate.right_column}"],
        )
    return predicate.mask(data.columns[f"{alias}.{predicate.column}"])


class EagerSelectivityEstimator(SelectivityEstimator):
    """Algorithm 1 over intermediates that copy every column."""

    def __init__(self, sample_db, planned, use_gee=False):
        super().__init__(sample_db, planned, use_gee=use_gee)

    def _scan(self, node, run_counts):
        table = self._planned.database.table(node.table)
        alias = node.alias
        copy = self._copies[alias]
        positions = self._samples.sample_indices(node.table, copy)
        n = len(positions)
        columns = {
            f"{alias}.{name}": table.column(name)[positions]
            for name in table.schema.names
        }
        result = _EagerIntermediate(
            columns=columns,
            provenance={alias: np.arange(n, dtype=np.int64)},
            num_rows=n,
        )
        predicates = list(node.predicates)
        if node.kind is OpKind.INDEX_SCAN and node.index_predicate is not None:
            predicates.append(node.index_predicate)
        ops = 0
        for predicate in predicates:
            result = result.select(_sample_predicate_mask(result, alias, predicate))
            ops += predicate.num_ops
        run_counts[node.op_id] = ResourceCounts(
            ns=float(self._samples.sample_pages(node.table)),
            nt=float(n),
            no=float(ops * n),
        )
        return result

    def _join(self, node, left, right, run_counts):
        if node.keys:
            left_cols = [left.columns[lk] for lk, _ in node.keys]
            right_cols = [right.columns[rk] for _, rk in node.keys]
            li, ri = kernels.equijoin_pairs(left_cols, right_cols)
        else:
            li, ri = kernels.cross_join_pairs(left.num_rows, right.num_rows)
        columns = {name: arr[li] for name, arr in left.columns.items()}
        for name, arr in right.columns.items():
            columns[name] = arr[ri]
        provenance = {alias: arr[li] for alias, arr in left.provenance.items()}
        for alias, arr in right.provenance.items():
            provenance[alias] = arr[ri]
        run_counts[node.op_id] = ResourceCounts(
            nt=float(left.num_rows + right.num_rows),
            no=2.0 * (left.num_rows + right.num_rows),
        )
        return _EagerIntermediate(columns, provenance, len(li))

    def _filter(self, node: FilterNode, data, run_counts):
        mask = np.ones(data.num_rows, dtype=bool)
        ops = 0
        for predicate in node.scan_predicates:
            mask &= _sample_predicate_mask(data, predicate.alias, predicate)
            ops += predicate.num_ops
        for predicate in node.compare_predicates:
            left = data.columns[f"{predicate.left_alias}.{predicate.left_column}"]
            right = data.columns[f"{predicate.right_alias}.{predicate.right_column}"]
            mask &= predicate.mask(left, right)
            ops += predicate.num_ops
        run_counts[node.op_id] = ResourceCounts(
            nt=float(data.num_rows), no=float(max(ops, 1) * data.num_rows)
        )
        return data.select(mask)

    def _group_key_values(self, node, child):
        return [child.columns[key] for key in node.group_keys if key in child.columns]


# ---------------------------------------------------------------------------
# Bitwise comparison
# ---------------------------------------------------------------------------


def _bits(value):
    """A comparable image of ``value`` in which floats are their bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return [(_bits(k), _bits(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return [
            (f.name, _bits(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        ]
    return (type(value).__name__, value)


def assert_bitwise_equal(reference, served, context=""):
    assert _bits(reference.per_node) == _bits(served.per_node), context
    assert _bits(reference.sample_run_counts) == _bits(
        served.sample_run_counts
    ), context


# ---------------------------------------------------------------------------
# Coverage queries
# ---------------------------------------------------------------------------

COVERAGE_SQL = {
    "in-list": (
        "SELECT * FROM lineitem WHERE l_shipmode IN ('MAIL', 'SHIP', 'AIR') "
        "AND l_quantity < 30"
    ),
    "between": (
        "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey "
        "AND o_totalprice BETWEEN 50000 AND 150000 "
        "AND l_discount BETWEEN 0.02 AND 0.06"
    ),
    "prefix": (
        "SELECT * FROM part, partsupp WHERE p_partkey = ps_partkey "
        "AND p_type LIKE 'PROMO%'"
    ),
    "column-pair": (
        "SELECT * FROM lineitem WHERE l_commitdate < l_receiptdate "
        "AND l_shipdate < l_commitdate"
    ),
    "cross-input-compare": (
        "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey "
        "AND o_orderdate < l_shipdate AND l_quantity > 10"
    ),
    "index-scan": (
        "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey "
        "AND o_orderdate < DATE '1992-03-01' AND o_totalprice > 100000"
    ),
    "self-join": (
        "SELECT * FROM nation n1, nation n2, supplier "
        "WHERE n1.n_regionkey = n2.n_regionkey "
        "AND s_nationkey = n1.n_nationkey AND n2.n_name <> 'FRANCE'"
    ),
    "empty": (
        "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey "
        "AND o_totalprice < -1"
    ),
    "group-keys": (
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS q "
        "FROM orders, lineitem WHERE o_orderkey = l_orderkey "
        "AND o_orderdate < DATE '1995-01-01' "
        "GROUP BY l_returnflag, l_linestatus"
    ),
    "group-keys-scan": (
        "SELECT l_shipmode, COUNT(*) AS n FROM lineitem "
        "WHERE l_quantity < 20 GROUP BY l_shipmode"
    ),
}


def _workload():
    queries = [(f"tpch-{i}", sql) for i, sql in enumerate(tpch_workload(28, seed=3))]
    queries += [
        (f"seljoin-{i}", sql) for i, sql in enumerate(seljoin_workload(14, seed=4))
    ]
    return queries + sorted(COVERAGE_SQL.items())


WORKLOAD = _workload()


def _kinds(planned):
    return {node.kind for node in planned.root.walk()}


class TestCoverageQueriesExercise:
    """Each coverage query plans into the shape it is named after."""

    def test_index_scan(self, optimizer):
        planned = optimizer.plan_sql(COVERAGE_SQL["index-scan"])
        scans = [n for n in planned.root.walk() if isinstance(n, IndexScanNode)]
        assert scans and scans[0].index_predicate is not None
        assert scans[0].predicates  # a residual predicate too

    def test_cross_input_compare(self, optimizer):
        planned = optimizer.plan_sql(COVERAGE_SQL["cross-input-compare"])
        assert OpKind.FILTER in _kinds(planned)

    def test_self_join_uses_two_copies(self, optimizer, sample_db):
        planned = optimizer.plan_sql(COVERAGE_SQL["self-join"])
        copies = sample_db.assign_copies(planned.alias_tables)
        assert copies["n1"] != copies["n2"]

    def test_multi_predicate_scans(self, optimizer):
        planned = optimizer.plan_sql(COVERAGE_SQL["in-list"])
        scans = [n for n in planned.root.walk() if n.is_scan]
        assert len(scans[0].predicates) >= 2


# ---------------------------------------------------------------------------
# The differential oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def planned_workload(optimizer):
    return [(name, optimizer.plan_sql(sql)) for name, sql in WORKLOAD]


class TestLateMaterializationOracle:
    @pytest.mark.parametrize("use_gee", [False, True])
    def test_engine_off_matches_eager(self, sample_db, planned_workload, use_gee):
        for name, planned in planned_workload:
            reference = EagerSelectivityEstimator(
                sample_db, planned, use_gee=use_gee
            ).estimate()
            served = SelectivityEstimator(sample_db, planned, use_gee=use_gee).estimate()
            assert_bitwise_equal(reference, served, name)

    @pytest.mark.parametrize("use_gee", [False, True])
    def test_engine_cold_and_warm_match_eager(
        self, sample_db, planned_workload, use_gee
    ):
        # One engine across the whole workload: later queries hit entries
        # stored by earlier ones (shared scans, joins, empty sub-plans),
        # and the second pass is served almost entirely from it.
        engine = SamplingEngine()
        for attempt in ("cold", "warm"):
            for name, planned in planned_workload:
                reference = EagerSelectivityEstimator(
                    sample_db, planned, use_gee=use_gee
                ).estimate()
                served = SelectivityEstimator(
                    sample_db, planned, use_gee=use_gee, engine=engine
                ).estimate()
                assert_bitwise_equal(reference, served, f"{attempt} {name}")
        assert engine.stats.hits > engine.stats.misses

    def test_other_sample_sets_and_no_index_scans(self, tpch_db, small_sample_db):
        # A second sample set (other positions, other sizes) and the
        # optimizer's seq-scan-only plans of the same workload.
        optimizer = Optimizer(tpch_db, OptimizerConfig(enable_index_scans=False))
        engine = SamplingEngine()
        for name, sql in WORKLOAD:
            planned = optimizer.plan_sql(sql)
            reference = EagerSelectivityEstimator(small_sample_db, planned).estimate()
            for served in (
                SelectivityEstimator(small_sample_db, planned).estimate(),
                SelectivityEstimator(small_sample_db, planned, engine=engine).estimate(),
            ):
                assert_bitwise_equal(reference, served, name)

    def test_intermediates_hold_provenance_only(self):
        fields = {f.name for f in dataclasses.fields(_SampleIntermediate)}
        assert fields == {"provenance", "num_rows"}
