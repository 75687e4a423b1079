"""Algorithm 1: selectivity estimates rho_n and variances S_n^2 per operator.

The plan is run once over the sample tables, bottom-up. Every sample
tuple carries provenance (its position in each source sample table), so
the per-relation counts Q_{k,j,n} of Eq. 6 are obtained by scanning the
sample join result once and incrementing per-position counters — the
paper's data-provenance trick. From those:

    v_k  = (1/(n_k - 1)) * sum_j (Q_{k,j} / prod_{k' != k} n_{k'} - rho_n)^2
    S_n^2 = sum_k v_k          (Eq. 5, generalized to unequal sample sizes)
    Var[rho_n] ~= sum_k v_k / n_k

The per-relation components ``v_k / n_k`` are retained: restricted sums
over shared relations give the S^2_{n,m} quantities behind the tighter
covariance bound B1 (Theorem 7).

Provenance is also all a sample intermediate carries. A row of the
sample join result *is* its tuple of sample positions, so the pass
never copies a column: it gathers ``alias.column`` at the surviving
positions from the materialized sample table
(:meth:`~repro.sampling.sample_db.SampleDatabase.sample_column`) only
where a scan or filter predicate, a join key, or a GEE group key reads
it. The modelled sample-run counts still describe the paper's scan of
full sample-table rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import SamplingError
from ..executor import kernels
from ..optimizer.cost_model import ResourceCounts
from ..optimizer.optimizer import PlannedQuery
from ..plan.physical import (
    AggregateNode,
    FilterNode,
    OpKind,
    PlanNode,
)
from ..plan.predicates import ColumnPairScanPredicate
from .engine import SamplingEngine
from .sample_db import MIN_SAMPLE_ROWS, SampleDatabase
from .signature import compose_signature

__all__ = ["NodeSelectivity", "SamplingEstimate", "SelectivityEstimator"]


@dataclass
class NodeSelectivity:
    """The estimated distribution of one operator's selectivity X."""

    op_id: int
    mean: float
    variance: float
    #: per-leaf-alias contribution to ``variance`` (v_k / n_k)
    var_components: dict[str, float]
    leaf_aliases: tuple[str, ...]
    sample_sizes: dict[str, int]
    #: "sample" (Algorithm 1), "optimizer" (aggregate fallback), or
    #: "alias" (pass-through operators sharing the child's variable)
    source: str
    #: op_id of the operator whose variable this one aliases (or None)
    alias_of: int | None = None

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def num_relations(self) -> int:
        return len(self.leaf_aliases)

    def min_sample_size(self) -> int:
        """Smallest backing sample size, or the documented sampling floor.

        Estimates that never touched a sample — optimizer fallbacks for
        aggregates, alias pass-throughs (Sort/Materialize), histogram
        nodes — carry no ``sample_sizes``. For those this returns
        :data:`~repro.sampling.sample_db.MIN_SAMPLE_ROWS`, the smallest
        sample any :class:`SampleDatabase` materializes, so downstream
        ``n - 1``-style arithmetic stays well-defined without a silent
        magic number.
        """
        if not self.sample_sizes:
            return MIN_SAMPLE_ROWS
        return min(self.sample_sizes.values())

    def restricted_variance(self, aliases) -> float:
        """S^2_rho(m, n)/n over the given shared relations (Theorem 7)."""
        return sum(self.var_components.get(alias, 0.0) for alias in aliases)


@dataclass
class SamplingEstimate:
    """Output of one sampling pass over a plan."""

    per_node: dict[int, NodeSelectivity]
    #: resource counts of the sample run itself (overhead accounting)
    sample_run_counts: dict[int, ResourceCounts] = field(default_factory=dict)

    def resolve(self, op_id: int) -> NodeSelectivity:
        """Follow alias links to the defining variable of an operator."""
        node = self.per_node[op_id]
        while node.alias_of is not None:
            node = self.per_node[node.alias_of]
        return node


@dataclass
class _SampleIntermediate:
    """Sample rows as provenance only: alias -> sample-tuple positions.

    Row ``i`` is the sample tuple at ``provenance[alias][i]`` of each
    alias's sample table; column values are gathered from those
    positions where they are read, never stored.
    """

    provenance: dict[str, np.ndarray]
    num_rows: int

    def take(self, rows: np.ndarray) -> "_SampleIntermediate":
        """The rows at the given indices, in that order."""
        return _SampleIntermediate(
            provenance={k: v[rows] for k, v in self.provenance.items()},
            num_rows=len(rows),
        )


class SelectivityEstimator:
    """Runs Algorithm 1 over a planned query.

    With an :class:`~repro.sampling.engine.SamplingEngine` attached, the
    estimator consults it at every scan, join, and filter: a hit reuses
    the memoized sample intermediate (and its derived selectivity and
    resource counts) instead of re-executing the sub-plan over the
    sample tables; a miss stores the freshly computed result. An empty
    intermediate is memoized too, but its selectivity is recomputed on
    every hit: the empty fallback reads the consuming plan's optimizer
    estimate, not only the subtree. Estimates are bitwise identical
    either way — the engine only skips work whose outcome is already
    known.
    """

    def __init__(
        self,
        sample_db: SampleDatabase,
        planned: PlannedQuery,
        use_gee: bool = False,
        engine: SamplingEngine | None = None,
    ):
        self._samples = sample_db
        self._planned = planned
        self._copies = sample_db.assign_copies(planned.alias_tables)
        self._use_gee = use_gee
        self._engine = engine
        self._fingerprint = sample_db.fingerprint() if engine is not None else None

    # ------------------------------------------------------------------
    def estimate(self) -> SamplingEstimate:
        """One bottom-up pass over the sample tables (Algorithm 1)."""
        per_node: dict[int, NodeSelectivity] = {}
        run_counts: dict[int, ResourceCounts] = {}
        self._visit(self._planned.root, per_node, run_counts)
        return SamplingEstimate(per_node=per_node, sample_run_counts=run_counts)

    # ------------------------------------------------------------------
    def _visit(
        self,
        node: PlanNode,
        per_node: dict[int, NodeSelectivity],
        run_counts: dict[int, ResourceCounts],
    ) -> tuple[_SampleIntermediate | None, str | None]:
        """Returns (sample intermediate, sub-plan signature).

        Both are None above an aggregate; the signature alone is None
        when memoization is off or the subtree is not memoizable.
        """
        kind = node.kind
        if node.is_scan:
            return self._sampled(
                node, [], per_node, run_counts, lambda: self._scan(node, run_counts)
            )

        children = [self._visit(c, per_node, run_counts) for c in node.children]
        intermediates = [intermediate for intermediate, _ in children]
        signatures = [signature for _, signature in children]
        aggregate_below = any(intermediate is None for intermediate in intermediates)

        if kind is OpKind.AGGREGATE or aggregate_below:
            if (
                kind is OpKind.AGGREGATE
                and self._use_gee
                and not aggregate_below
                and node.group_keys
            ):
                per_node[node.op_id] = self._gee_selectivity(node, intermediates[0])
            else:
                per_node[node.op_id] = self._optimizer_fallback(node)
            return None, None

        if node.is_join:
            left, right = intermediates
            return self._sampled(
                node, signatures, per_node, run_counts,
                lambda: self._join(node, left, right, run_counts),
            )
        if kind is OpKind.FILTER:
            return self._sampled(
                node, signatures, per_node, run_counts,
                lambda: self._filter(node, intermediates[0], run_counts),
            )
        if kind in (OpKind.SORT, OpKind.MATERIALIZE):
            per_node[node.op_id] = self._alias_selectivity(node)
            run_counts[node.op_id] = ResourceCounts(
                nt=float(intermediates[0].num_rows)
            )
            # Sort/Materialize pass the sample intermediate through
            # untouched, so the child's signature stays valid above them.
            return intermediates[0], signatures[0]
        if kind is OpKind.LIMIT:
            per_node[node.op_id] = self._optimizer_fallback(node)
            return intermediates[0], signatures[0]
        raise SamplingError(f"sampling estimator: unknown operator {kind}")

    def _sampled(self, node, child_signatures, per_node, run_counts, run):
        """A scan, join or filter: served from the engine, or ``run()``.

        ``run`` executes the operator over the samples, records its run
        counts and returns its intermediate; a miss stores the result.
        """
        signature = entry = None
        if self._engine is not None:
            signature = compose_signature(node, child_signatures, self._copies)
            entry = self._engine.lookup(self._fingerprint, signature)
        if entry is None:
            result = run()
            selectivity = self._sample_selectivity(node, result)
            if self._engine is not None:
                self._engine.store(
                    self._fingerprint,
                    signature,
                    result,
                    selectivity if result.num_rows else None,
                    run_counts[node.op_id],
                )
        else:
            result = entry.intermediate
            run_counts[node.op_id] = entry.counts
            if entry.selectivity is None:
                selectivity = self._empty_fallback(node)
            else:
                selectivity = entry.rekeyed_selectivity(node.op_id)
        per_node[node.op_id] = selectivity
        return result, signature

    # -- operators over samples -------------------------------------------
    def _values(self, alias: str, column: str, positions) -> np.ndarray:
        """``alias.column`` at the given sample positions (None: all)."""
        values = self._samples.sample_column(
            self._planned.alias_tables[alias], column, self._copies[alias]
        )
        return values if positions is None else values[positions]

    def _scan_mask(self, predicate, alias: str, positions) -> np.ndarray:
        if isinstance(predicate, ColumnPairScanPredicate):
            return predicate.mask(
                self._values(alias, predicate.left_column, positions),
                self._values(alias, predicate.right_column, positions),
            )
        return predicate.mask(self._values(alias, predicate.column, positions))

    def _scan(self, node, run_counts) -> _SampleIntermediate:
        alias = node.alias
        n = self._samples.sample_size(node.table)
        predicates = list(node.predicates)
        if node.kind is OpKind.INDEX_SCAN and node.index_predicate is not None:
            predicates.append(node.index_predicate)
        # Each predicate reads only the positions the previous ones kept.
        positions = None
        ops = 0
        for predicate in predicates:
            mask = self._scan_mask(predicate, alias, positions)
            positions = np.flatnonzero(mask) if positions is None else positions[mask]
            ops += predicate.num_ops
        if positions is None:
            positions = np.arange(n, dtype=np.int64)
        run_counts[node.op_id] = ResourceCounts(
            ns=float(self._samples.sample_pages(node.table)),
            nt=float(n),
            no=float(ops * n),
        )
        return _SampleIntermediate({alias: positions}, len(positions))

    def _join(self, node, left, right, run_counts) -> _SampleIntermediate:
        if node.keys:
            left_cols = [self._key_values(left, lk) for lk, _ in node.keys]
            right_cols = [self._key_values(right, rk) for _, rk in node.keys]
            li, ri = kernels.equijoin_pairs(left_cols, right_cols)
        else:
            li, ri = kernels.cross_join_pairs(left.num_rows, right.num_rows)
        provenance = {alias: arr[li] for alias, arr in left.provenance.items()}
        for alias, arr in right.provenance.items():
            provenance[alias] = arr[ri]
        run_counts[node.op_id] = ResourceCounts(
            nt=float(left.num_rows + right.num_rows),
            no=2.0 * (left.num_rows + right.num_rows),
        )
        return _SampleIntermediate(provenance, len(li))

    def _column(self, data: _SampleIntermediate, alias: str, column: str) -> np.ndarray:
        """``alias.column`` over the intermediate's rows."""
        return self._values(alias, column, data.provenance[alias])

    def _key_values(self, data: _SampleIntermediate, key: str) -> np.ndarray:
        """A qualified ``alias.column`` key over the intermediate's rows."""
        alias, _, column = key.partition(".")
        return self._column(data, alias, column)

    def _filter(self, node: FilterNode, data, run_counts) -> _SampleIntermediate:
        mask = np.ones(data.num_rows, dtype=bool)
        ops = 0
        for predicate in node.scan_predicates:
            alias = predicate.alias
            mask &= self._scan_mask(predicate, alias, data.provenance[alias])
            ops += predicate.num_ops
        for predicate in node.compare_predicates:
            mask &= predicate.mask(
                self._column(data, predicate.left_alias, predicate.left_column),
                self._column(data, predicate.right_alias, predicate.right_column),
            )
            ops += predicate.num_ops
        run_counts[node.op_id] = ResourceCounts(
            nt=float(data.num_rows), no=float(max(ops, 1) * data.num_rows)
        )
        return data.take(np.flatnonzero(mask))

    # -- selectivity distributions -----------------------------------------
    def _sample_selectivity(self, node, result) -> NodeSelectivity:
        """rho_n and S_n^2 of a scan, join or filter result.

        An empty result short-circuits to the fallback *before* any
        variance arithmetic: with zero observations the ``Q_{k,j}``
        counters are all zero and the deviations collapse to a spurious
        exact zero variance, so none of the math is meaningful.
        """
        if result.num_rows == 0:
            return self._empty_fallback(node)
        if len(result.provenance) > 1:
            return self._product_selectivity(node, result)
        return self._scan_selectivity(node, result)

    def _scan_selectivity(self, node, result) -> NodeSelectivity:
        alias = node.leaf_aliases()[0]
        n = self._samples.sample_size(self._planned.alias_tables[alias])
        rho = result.num_rows / n
        # S_n^2 = rho(1 - rho) for tuple-level scans; Var[rho_n] ~ S_n^2/n.
        variance = rho * (1.0 - rho) / n
        return NodeSelectivity(
            op_id=node.op_id,
            mean=rho,
            variance=variance,
            var_components={alias: variance},
            leaf_aliases=(alias,),
            sample_sizes={alias: n},
            source="sample",
        )

    def _product_selectivity(self, node, result) -> NodeSelectivity:
        """rho_n and S_n^2 for an operator over a product space (joins)."""
        aliases = node.leaf_aliases()
        sizes = {
            alias: self._samples.sample_size(self._planned.alias_tables[alias])
            for alias in aliases
        }
        total_product = 1.0
        for size in sizes.values():
            total_product *= size
        rho = result.num_rows / total_product

        components: dict[str, float] = {}
        for alias in aliases:
            n_k = sizes[alias]
            if n_k < 2:
                # The n_k - 1 denominator below would divide by zero; the
                # paper sets S_1^2 = 0 for single-tuple samples.
                components[alias] = 0.0
                continue
            q = np.bincount(result.provenance[alias], minlength=n_k).astype(np.float64)
            denominator = total_product / n_k  # prod of the other sample sizes
            deviations = q / denominator - rho
            v_k = float((deviations * deviations).sum() / (n_k - 1))
            components[alias] = v_k / n_k
        return NodeSelectivity(
            op_id=node.op_id,
            mean=rho,
            variance=sum(components.values()),
            var_components=components,
            leaf_aliases=aliases,
            sample_sizes=sizes,
            source="sample",
        )

    def _empty_fallback(self, node) -> NodeSelectivity:
        """Empty sample result: the sampler never observed a qualifying tuple.

        The raw estimator would report rho_n = 0 with S_n^2 = 0, silently
        claiming certainty about a selectivity it cannot resolve (anything
        below 1/prod(n_k) looks identical). We instead fall back to the
        optimizer's estimate for the mean — the same strategy Algorithm 1
        uses for aggregates — and assign a 100% relative standard
        deviation. Theorem 4's absolute bound is far too loose here: it
        scales like sqrt(rho) and, multiplied by the huge leaf-product
        coefficients of deep plans, would predict absurd time variances.
        A unit coefficient of variation keeps the uncertainty honest
        ("we know only the order of magnitude") at the right scale.
        """
        aliases = node.leaf_aliases()
        sizes = {
            alias: self._samples.sample_size(self._planned.alias_tables[alias])
            for alias in aliases
        }
        rho = self._clamped_estimate(node)
        variance = rho * rho
        share = variance / len(aliases) if aliases else 0.0
        return NodeSelectivity(
            op_id=node.op_id,
            mean=rho,
            variance=variance,
            var_components={alias: share for alias in aliases},
            leaf_aliases=aliases,
            sample_sizes=sizes,
            source="sample",
        )

    def _clamped_estimate(self, node) -> float:
        """The optimizer's selectivity estimate, NaN-guarded into [0, 1].

        ``min(nan, 1.0)`` is nan, so a non-finite estimate must be
        replaced before clamping or it poisons every moment downstream.
        """
        estimated = self._planned.est_selectivity(node)
        if not math.isfinite(estimated):
            return 0.0
        return min(max(estimated, 0.0), 1.0)

    def _optimizer_fallback(self, node) -> NodeSelectivity:
        """Aggregates (and anything above them): optimizer estimate, S^2=0."""
        aliases = node.leaf_aliases()
        sizes = {
            alias: self._samples.sample_size(self._planned.alias_tables[alias])
            for alias in aliases
        }
        return NodeSelectivity(
            op_id=node.op_id,
            mean=self._clamped_estimate(node),
            variance=0.0,
            var_components={alias: 0.0 for alias in aliases},
            leaf_aliases=aliases,
            sample_sizes=sizes,
            source="optimizer",
        )

    def _gee_selectivity(self, node: AggregateNode, child) -> NodeSelectivity:
        """GEE extension: sample-based aggregate output estimate."""
        from .gee import gee_selectivity

        aliases = node.leaf_aliases()
        sizes = {
            alias: self._samples.sample_size(self._planned.alias_tables[alias])
            for alias in aliases
        }
        fraction = 1.0
        for alias in aliases:
            full = self._planned.alias_rows[alias]
            fraction *= sizes[alias] / max(full, 1)
        keys = self._group_key_values(node, child)
        if not keys:
            return self._optimizer_fallback(node)
        denominator = self._planned.leaf_row_product(node)
        mean, variance = gee_selectivity(keys, 1.0 / max(fraction, 1e-12), denominator)
        if mean <= 0.0:
            return self._optimizer_fallback(node)
        share = variance / len(aliases)
        return NodeSelectivity(
            op_id=node.op_id,
            mean=mean,
            variance=variance,
            var_components={alias: share for alias in aliases},
            leaf_aliases=aliases,
            sample_sizes=sizes,
            source="gee",
        )

    def _group_key_values(self, node: AggregateNode, child) -> list[np.ndarray]:
        """The group keys that name a column of the child's sample rows."""
        keys = []
        for key in node.group_keys:
            alias, _, column = key.partition(".")
            if alias not in child.provenance:
                continue
            table = self._planned.alias_tables[alias]
            if column in self._samples.database.table(table).schema:
                keys.append(self._column(child, alias, column))
        return keys

    def _alias_selectivity(self, node) -> NodeSelectivity:
        child_id = node.children[0].op_id
        return NodeSelectivity(
            op_id=node.op_id,
            mean=float("nan"),
            variance=0.0,
            var_components={},
            leaf_aliases=node.leaf_aliases(),
            sample_sizes={},
            source="alias",
            alias_of=child_id,
        )
