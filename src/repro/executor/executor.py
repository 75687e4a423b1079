"""Plan execution over full tables.

The executor evaluates a physical plan bottom-up with vectorized
kernels, recording the *true* output cardinality of every operator and
the true heap-fetch counts of index scans. Those feed the cost model to
produce the true resource counts that the hardware simulator converts
into ground-truth running times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ExecutionError
from ..optimizer.cost_model import CostModel, ResourceCounts
from ..optimizer.optimizer import PlannedQuery
from ..plan.physical import (
    AggregateNode,
    FilterNode,
    IndexScanNode,
    OpKind,
    PlanNode,
    SeqScanNode,
    SortNode,
)
from ..plan.predicates import ColumnPairScanPredicate
from ..storage import Database
from ..util import group_ids
from . import kernels

__all__ = ["Intermediate", "ExecutionResult", "Executor"]


@dataclass
class Intermediate:
    """An intermediate result: qualified column name -> array."""

    columns: dict[str, np.ndarray]
    num_rows: int

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(f"column not in scope: {name!r}") from None

    def take(self, indices: np.ndarray) -> "Intermediate":
        return Intermediate(
            columns={name: arr[indices] for name, arr in self.columns.items()},
            num_rows=len(indices),
        )

    def mask(self, mask: np.ndarray) -> "Intermediate":
        return Intermediate(
            columns={name: arr[mask] for name, arr in self.columns.items()},
            num_rows=int(mask.sum()),
        )


@dataclass
class ExecutionResult:
    """Output columns plus per-operator ground truth."""

    output: Intermediate
    cardinalities: dict[int, float] = field(default_factory=dict)
    fetched: dict[int, float] = field(default_factory=dict)
    counts: dict[int, ResourceCounts] = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        return self.output.num_rows


def _scan_predicate_mask(data: Intermediate, alias: str, predicate) -> np.ndarray:
    """Boolean mask for single-column or same-table column-pair predicates."""
    if isinstance(predicate, ColumnPairScanPredicate):
        return predicate.mask(
            data.column(f"{alias}.{predicate.left_column}"),
            data.column(f"{alias}.{predicate.right_column}"),
        )
    return predicate.mask(data.column(f"{alias}.{predicate.column}"))


class Executor:
    """Evaluates physical plans against a database."""

    def __init__(self, database: Database):
        self._db = database
        self._cost_model = CostModel(database)

    def execute(self, planned: PlannedQuery) -> ExecutionResult:
        """Run the plan; return output plus true cardinalities and counts."""
        cardinalities: dict[int, float] = {}
        fetched: dict[int, float] = {}
        result = self._run(planned.root, cardinalities, fetched)
        output = self._project(planned, result)
        counts = self._cost_model.plan_counts(planned.root, cardinalities, fetched)
        return ExecutionResult(
            output=output,
            cardinalities=cardinalities,
            fetched=fetched,
            counts=counts,
        )

    # ------------------------------------------------------------------
    def _run(
        self,
        node: PlanNode,
        cardinalities: dict[int, float],
        fetched: dict[int, float],
    ) -> Intermediate:
        kind = node.kind
        if kind is OpKind.SEQ_SCAN:
            result = self._seq_scan(node)
        elif kind is OpKind.INDEX_SCAN:
            result = self._index_scan(node, fetched)
        else:
            inputs = [self._run(child, cardinalities, fetched) for child in node.children]
            if kind is OpKind.FILTER:
                result = self._filter(node, inputs[0])
            elif node.is_join:
                result = self._join(node, inputs[0], inputs[1])
            elif kind is OpKind.SORT:
                result = self._sort(node, inputs[0])
            elif kind is OpKind.AGGREGATE:
                result = self._aggregate(node, inputs[0])
            elif kind is OpKind.LIMIT:
                result = inputs[0].take(np.arange(min(node.count, inputs[0].num_rows)))
            elif kind is OpKind.MATERIALIZE:
                result = inputs[0]
            else:
                raise ExecutionError(f"executor: unknown operator {kind}")
        cardinalities[node.op_id] = float(result.num_rows)
        return result

    # -- scans ------------------------------------------------------------
    def _seq_scan(self, node: SeqScanNode) -> Intermediate:
        table = self._db.table(node.table)
        columns = {
            f"{node.alias}.{name}": table.column(name)
            for name in table.schema.names
        }
        result = Intermediate(columns=columns, num_rows=table.num_rows)
        for predicate in node.predicates:
            result = result.mask(_scan_predicate_mask(result, node.alias, predicate))
        return result

    def _index_scan(self, node: IndexScanNode, fetched: dict[int, float]) -> Intermediate:
        table = self._db.table(node.table)
        index = self._db.index_for(node.table, node.index_column)
        if index is None:
            raise ExecutionError(
                f"no index on {node.table}.{node.index_column} for index scan"
            )
        low, high = node.index_predicate.range_bounds()
        positions = index.lookup_range(low, high)
        fetched[node.op_id] = float(len(positions))
        columns = {
            f"{node.alias}.{name}": table.column(name)[positions]
            for name in table.schema.names
        }
        result = Intermediate(columns=columns, num_rows=len(positions))
        for predicate in node.predicates:
            result = result.mask(_scan_predicate_mask(result, node.alias, predicate))
        return result

    # -- filters ---------------------------------------------------------
    @staticmethod
    def _filter_masks(node: FilterNode, data: Intermediate) -> np.ndarray:
        mask = np.ones(data.num_rows, dtype=bool)
        for predicate in node.scan_predicates:
            mask &= _scan_predicate_mask(data, predicate.alias, predicate)
        for predicate in node.compare_predicates:
            left = data.column(f"{predicate.left_alias}.{predicate.left_column}")
            right = data.column(f"{predicate.right_alias}.{predicate.right_column}")
            mask &= predicate.mask(left, right)
        return mask

    def _filter(self, node: FilterNode, data: Intermediate) -> Intermediate:
        return data.mask(self._filter_masks(node, data))

    # -- joins ----------------------------------------------------------
    def _join(self, node, left: Intermediate, right: Intermediate) -> Intermediate:
        if node.keys:
            left_cols = [left.column(lk) for lk, _ in node.keys]
            right_cols = [right.column(rk) for _, rk in node.keys]
            li, ri = kernels.equijoin_pairs(left_cols, right_cols)
        else:
            li, ri = kernels.cross_join_pairs(left.num_rows, right.num_rows)
        columns = {name: arr[li] for name, arr in left.columns.items()}
        for name, arr in right.columns.items():
            columns[name] = arr[ri]
        return Intermediate(columns=columns, num_rows=len(li))

    # -- sort / aggregate --------------------------------------------------
    @staticmethod
    def _sort(node: SortNode, data: Intermediate) -> Intermediate:
        available = [(k, d) for k, d in node.keys if k in data.columns]
        if not available:
            return data
        order = kernels.sort_order(
            [data.column(k) for k, _ in available],
            [d for _, d in available],
        )
        return data.take(order)

    @staticmethod
    def _aggregate(node: AggregateNode, data: Intermediate) -> Intermediate:
        if node.group_keys:
            key_arrays = [data.column(k) for k in node.group_keys]
            ids, representatives = group_ids(*key_arrays)
            num_groups = len(representatives)
            columns = {
                key: array[representatives]
                for key, array in zip(node.group_keys, key_arrays)
            }
        else:
            ids = np.zeros(data.num_rows, dtype=np.int64)
            num_groups = 1
            columns = {}
        for spec in node.aggregates:
            values = None
            if spec.argument is not None:
                values = spec.argument.evaluate(data.columns, data.num_rows)
            columns[spec.output_name] = kernels.grouped_aggregate(
                ids, num_groups, spec.func, values, spec.distinct
            )
        return Intermediate(columns=columns, num_rows=num_groups)

    # -- final projection ---------------------------------------------------
    @staticmethod
    def _project(planned: PlannedQuery, data: Intermediate) -> Intermediate:
        bound = planned.bound
        if bound.select_star or (not bound.projections and not bound.aggregates):
            return data
        if bound.aggregates:
            # Aggregate output is already shaped; rename projected group keys.
            columns = dict(data.columns)
            for name, expression in bound.projections:
                referenced = expression.columns
                if len(referenced) == 1 and referenced[0] in columns:
                    columns[name] = columns[referenced[0]]
            return Intermediate(columns=columns, num_rows=data.num_rows)
        columns = {
            name: expression.evaluate(data.columns, data.num_rows)
            for name, expression in bound.projections
        }
        return Intermediate(columns=columns, num_rows=data.num_rows)
