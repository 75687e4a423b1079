"""The PostgreSQL-style cost model (Example 1 in the paper).

Every operator's runtime overhead is modeled as

    t_O = ns*cs + nr*cr + nt*ct + ni*ci + no*co        (Eq. 1)

where the ``n``'s are *logical cost functions* of the operator's
input/output cardinalities. This module is the single source of truth
for those functions. It is used three ways:

1. by the optimizer, with *estimated* cardinalities, to pick plans;
2. by the executor + hardware simulator, with *true* cardinalities, to
   produce ground-truth running times;
3. by the predictor's cost-function fitting (Section 4), which
   evaluates an operator's whole grid of candidate selectivities in one
   call, passing float64 arrays that broadcast, to recover the
   coefficients of the C1..C6 families.

Every count is one expression for floats and arrays alike, so an array
element carries the bits of the scalar call at that point. The two
counts numpy would round differently go through a scalar form per
element: Sort's ``math.log2`` (numpy's ``log2`` may take a SIMD path
whose last bit depends on the CPU) and Limit's Python ``min``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import PlanError
from ..plan.physical import (
    AggregateNode,
    FilterNode,
    IndexScanNode,
    OpKind,
    PlanNode,
    SeqScanNode,
)
from ..storage import Database

__all__ = [
    "COST_UNIT_NAMES",
    "PLANNER_UNITS",
    "ResourceCounts",
    "CostModel",
]

#: The five cost units of Table 1, in canonical order.
COST_UNIT_NAMES = ("cs", "cr", "ct", "ci", "co")

#: PostgreSQL's default planner constants (seq_page_cost, random_page_cost,
#: cpu_tuple_cost, cpu_index_tuple_cost, cpu_operator_cost).
PLANNER_UNITS = {"cs": 1.0, "cr": 4.0, "ct": 0.01, "ci": 0.005, "co": 0.0025}

#: Assumed B-tree descent cost in random page touches per index scan.
INDEX_DESCENT_PAGES = 3.0
#: CPU operations charged per tuple for hashing (build or probe).
HASH_OPS_PER_TUPLE = 2.0
#: CPU operations charged per comparison in sorts and merge joins.
COMPARE_OPS = 1.0


@dataclass(frozen=True)
class ResourceCounts:
    """The five ``n`` counters of Eq. 1 (floats, or arrays over a grid)."""

    ns: float = 0.0  # pages read sequentially
    nr: float = 0.0  # pages read randomly
    nt: float = 0.0  # tuples processed
    ni: float = 0.0  # tuples processed via index access
    no: float = 0.0  # primitive CPU operations

    def __add__(self, other: "ResourceCounts") -> "ResourceCounts":
        return ResourceCounts(
            self.ns + other.ns,
            self.nr + other.nr,
            self.nt + other.nt,
            self.ni + other.ni,
            self.no + other.no,
        )

    def as_dict(self) -> dict[str, float]:
        return {"cs": self.ns, "cr": self.nr, "ct": self.nt, "ci": self.ni, "co": self.no}

    def total_cost(self, units: dict[str, float]) -> float:
        """Evaluate Eq. 1 with the given cost-unit values."""
        counts = self.as_dict()
        return sum(counts[name] * units[name] for name in COST_UNIT_NAMES)


def _log2_at_least_2(n):
    """``math.log2(max(n, 2.0))``, per element when ``n`` is an array."""
    if isinstance(n, np.ndarray):
        return np.array(
            [math.log2(max(v, 2.0)) for v in n.ravel().tolist()]
        ).reshape(n.shape)
    return math.log2(max(n, 2.0))


def _python_min(a, b):
    """``min(a, b)`` with Python's semantics (``b`` only where ``b < a``)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.where(b < a, b, a)
    return min(a, b)


class CostModel:
    """Computes :class:`ResourceCounts` per operator from cardinalities."""

    def __init__(self, database: Database):
        self._db = database

    # ------------------------------------------------------------------
    def operator_counts(
        self,
        node: PlanNode,
        n_left: float | np.ndarray,
        n_right: float | np.ndarray,
        m_out: float | np.ndarray,
        fetched: float | None = None,
    ) -> ResourceCounts:
        """Resource counts for one operator.

        ``n_left`` / ``n_right`` are the input cardinalities, ``m_out`` the
        output cardinality: floats, or float64 arrays that broadcast
        against each other, in which case each count is an array over
        the broadcast grid (or a float where it depends on none of
        them). For index scans, ``fetched`` overrides the modeled
        number of heap fetches (the executor passes the true value; the
        optimizer and the fitting grid leave it None).
        """
        kind = node.kind
        if kind is OpKind.SEQ_SCAN:
            return self._seq_scan_counts(node)
        if kind is OpKind.INDEX_SCAN:
            return self._index_scan_counts(node, m_out, fetched)
        if kind is OpKind.FILTER:
            return self._filter_counts(node, n_left)
        if kind is OpKind.HASH_JOIN:
            return ResourceCounts(
                nt=n_left + n_right,
                no=HASH_OPS_PER_TUPLE * (n_left + n_right),
            )
        if kind is OpKind.MERGE_JOIN:
            return ResourceCounts(
                nt=n_left + n_right,
                no=COMPARE_OPS * (n_left + n_right),
            )
        if kind is OpKind.NESTLOOP_JOIN:
            return ResourceCounts(
                nt=n_left + n_left * n_right,
                no=COMPARE_OPS * n_left * n_right,
            )
        if kind is OpKind.SORT:
            comparisons = n_left * _log2_at_least_2(n_left)
            return ResourceCounts(nt=n_left, no=2.0 * COMPARE_OPS * comparisons)
        if kind is OpKind.AGGREGATE:
            return self._aggregate_counts(node, n_left)
        if kind is OpKind.MATERIALIZE:
            return ResourceCounts(nt=n_left, no=n_left)
        if kind is OpKind.LIMIT:
            return ResourceCounts(nt=_python_min(n_left, m_out))
        raise PlanError(f"cost model: unknown operator kind {kind}")

    # -- per-operator helpers -------------------------------------------
    def _seq_scan_counts(self, node: SeqScanNode) -> ResourceCounts:
        stats = self._db.table_stats(node.table)
        ops_per_tuple = sum(p.num_ops for p in node.predicates)
        return ResourceCounts(
            ns=float(stats.num_pages),
            nt=float(stats.num_rows),
            no=float(ops_per_tuple * stats.num_rows),
        )

    def _index_scan_counts(
        self, node: IndexScanNode, m_out: float, fetched: float | None
    ) -> ResourceCounts:
        if fetched is None:
            fetched = getattr(node, "index_fetch_factor", 1.0) * m_out
        ops_per_tuple = sum(p.num_ops for p in node.predicates)
        return ResourceCounts(
            nr=fetched + INDEX_DESCENT_PAGES,
            nt=fetched,
            ni=fetched,
            no=ops_per_tuple * fetched,
        )

    @staticmethod
    def _filter_counts(node: FilterNode, n_left: float) -> ResourceCounts:
        ops_per_tuple = sum(p.num_ops for p in node.scan_predicates)
        ops_per_tuple += sum(p.num_ops for p in node.compare_predicates)
        return ResourceCounts(nt=n_left, no=max(ops_per_tuple, 1) * n_left)

    @staticmethod
    def _aggregate_counts(node: AggregateNode, n_left: float) -> ResourceCounts:
        per_tuple = HASH_OPS_PER_TUPLE if node.group_keys else 0.0
        per_tuple += sum(spec.num_ops for spec in node.aggregates)
        return ResourceCounts(nt=n_left, no=max(per_tuple, 1.0) * n_left)

    # ------------------------------------------------------------------
    def plan_counts(
        self, root: PlanNode, cardinalities: dict[int, float], fetched: dict[int, float] | None = None
    ) -> dict[int, ResourceCounts]:
        """Counts for every node given per-node output cardinalities.

        ``cardinalities`` maps op_id -> output rows; input cardinalities
        are read off the children. ``fetched`` optionally maps index-scan
        op_ids to true heap-fetch counts.
        """
        fetched = fetched or {}
        result: dict[int, ResourceCounts] = {}
        for node in root.walk():
            n_left = cardinalities[node.children[0].op_id] if node.children else 0.0
            n_right = (
                cardinalities[node.children[1].op_id]
                if len(node.children) > 1
                else 0.0
            )
            result[node.op_id] = self.operator_counts(
                node,
                n_left,
                n_right,
                cardinalities[node.op_id],
                fetched=fetched.get(node.op_id),
            )
        return result

    def plan_cost(
        self,
        root: PlanNode,
        cardinalities: dict[int, float],
        units: dict[str, float] | None = None,
    ) -> float:
        """Total plan cost under ``units`` (planner constants by default)."""
        units = units or PLANNER_UNITS
        counts = self.plan_counts(root, cardinalities)
        return sum(c.total_cost(units) for c in counts.values())
