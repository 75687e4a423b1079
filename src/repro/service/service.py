"""The batch prediction service.

:class:`PredictionService` turns the one-query-at-a-time predictor into
a serving component: it accepts batches of SQL strings (or pre-planned
queries), plans and prepares each distinct query once, caches the
prepared artifacts, and fans every query out across predictor variants
and multiprogramming levels while sharing the single prepare pass — the
regime where the paper's "uncertainty at negligible overhead" claim has
to hold up (Section 6.3.4).

The division of labour per query:

* plan       — once per distinct SQL string (memoized);
* prepare    — once per distinct (plan, sample set): the sampling pass
               and cost-function fitting, by far the dominant cost;
* assemble   — one pass of the cross-query array kernels in
               :mod:`repro.service.kernels` for the whole (query,
               variant, mpl) fan-out of a batch, plus its confidence
               intervals. A single query
               (:meth:`PredictionService.predict_query`) is served as a
               batch of one, so there is one assembly path.

Below the prepared-artifact cache sits a second, finer-grained layer:
one :class:`~repro.sampling.engine.SamplingEngine` shared by every
prepare pass the service runs. Queries whose *whole* plan is new can
still reuse the sample intermediates of any join/filter/scan sub-plan
an earlier query already sampled — template instantiations that differ
only in one branch's constants share everything else. Beside it, a
fit-solution memo reuses the exact NNLS solution of any fitting problem
(design matrix and targets, byte for byte) an earlier prepare solved.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ..calibration.calibrator import CalibratedUnits
from ..caching import ByteBudgetLRU, CacheStats
from ..core.concurrency import ConcurrentPredictor, InterferenceModel
from ..core.predictor import (
    PredictionResult,
    PreparedPrediction,
    UncertaintyPredictor,
    Variant,
)
from ..core.variance import VarianceBreakdown
from ..costfuncs.fitting import DEFAULT_GRID_W, FIT_MEMO_BYTES
from ..errors import PredictionError, error_code
from ..mathstats.normal import NormalDistribution
from ..optimizer.cost_model import COST_UNIT_NAMES
from ..optimizer.optimizer import Optimizer, OptimizerConfig, PlannedQuery
from ..sampling.engine import DEFAULT_ENGINE_BUDGET_BYTES, SamplingEngine
from ..sampling.sample_db import SampleDatabase
from ..storage import Database
from .cache import PreparedCache, plan_signature
from .kernels import (
    BatchAssembly,
    BatchPlan,
    assemble_batch,
    batch_intervals,
    build_batch_plan,
)

__all__ = [
    "BatchColumns",
    "BatchPrediction",
    "PredictionService",
    "QueryFailure",
    "QueryPrediction",
    "ServedQuery",
    "ServiceReport",
    "ServiceStats",
    "materialize",
]


@dataclass
class ServiceStats:
    """Cumulative serving counters (monotonic over a service's lifetime)."""

    queries_served: int = 0
    queries_failed: int = 0
    plans_built: int = 0
    prepares_run: int = 0
    prepare_cache_hits: int = 0
    assemblies: int = 0

    @property
    def prepare_hit_rate(self) -> float | None:
        """Cache hits per prepare lookup, or None before the first lookup.

        Mirrors :attr:`repro.caching.CacheStats.hit_rate`: a service that
        has seen no traffic has no hit rate, and reporting 0% would read
        as "everything missed".
        """
        total = self.prepares_run + self.prepare_cache_hits
        return self.prepare_cache_hits / total if total else None

    def describe_hit_rate(self) -> str:
        """Human-readable prepare hit rate: ``"67%"``, or ``"n/a"``
        before the first lookup (the shared None-means-no-traffic policy
        of :meth:`repro.caching.CacheStats.describe`)."""
        rate = self.prepare_hit_rate
        return "n/a" if rate is None else f"{rate:.0%}"

    def snapshot(self) -> "ServiceStats":
        return replace(self)

    def since(self, earlier: "ServiceStats") -> "ServiceStats":
        """The counter deltas accumulated after ``earlier`` was snapshot."""
        return ServiceStats(
            queries_served=self.queries_served - earlier.queries_served,
            queries_failed=self.queries_failed - earlier.queries_failed,
            plans_built=self.plans_built - earlier.plans_built,
            prepares_run=self.prepares_run - earlier.prepares_run,
            prepare_cache_hits=self.prepare_cache_hits
            - earlier.prepare_cache_hits,
            assemblies=self.assemblies - earlier.assemblies,
        )


@dataclass
class ServiceReport:
    """A point-in-time view of the service's caches and counters.

    ``stats`` are the lifetime serving counters; the cache stats come
    from the two cache layers — whole prepared predictions and memoized
    sub-plan sampling work — whose hit rates explain where serving time
    goes.
    """

    stats: ServiceStats
    prepared_cache: CacheStats
    prepared_entries: int
    sampling_cache: CacheStats
    sampling_entries: int
    sampling_bytes_used: int
    sampling_bytes_budget: int

    def cache_lines(self) -> list[str]:
        """The two cache-layer summary lines (shared with the CLI)."""
        return [
            f"prepared cache : {self.prepared_entries} entries, "
            f"hit rate {self.prepared_cache.describe()}",
            f"sampling engine: {self.sampling_entries} sub-plans, "
            f"{self.sampling_bytes_used / 1024:.0f} KiB "
            f"/ {self.sampling_bytes_budget / 1024:.0f} KiB, "
            f"hit rate {self.sampling_cache.describe()}",
        ]

    def render(self) -> str:
        lines = [
            f"queries served : {self.stats.queries_served} "
            f"({self.stats.queries_failed} failed)",
            f"plans built    : {self.stats.plans_built}",
            f"prepares run   : {self.stats.prepares_run} "
            f"({self.stats.prepare_cache_hits} served from cache)",
            f"assemblies     : {self.stats.assemblies}",
            *self.cache_lines(),
        ]
        return "\n".join(lines)


@dataclass
class QueryPrediction:
    """All requested distributions for one query of a batch."""

    sql: str | None
    planned: PlannedQuery
    #: (variant, multiprogramming level) -> prediction
    results: dict[tuple[Variant, int], PredictionResult]
    prepare_was_cached: bool

    def result(
        self, variant: Variant = Variant.ALL, mpl: int = 1
    ) -> PredictionResult:
        try:
            return self.results[(variant, mpl)]
        except KeyError:
            raise PredictionError(
                f"no prediction for variant={variant.value!r}, mpl={mpl}; "
                f"requested combinations: {sorted((v.value, m) for v, m in self.results)}"
            ) from None

    @property
    def mean(self) -> float:
        return self.result().mean

    @property
    def std(self) -> float:
        return self.result().std


@dataclass(frozen=True)
class QueryFailure:
    """One query of a batch that could not be served.

    ``index`` is the query's position in the submitted batch, so callers
    can line failures up with their inputs. ``code`` is the stable wire
    code of the failure class (:func:`repro.errors.error_code`), so
    remote consumers can branch without parsing ``error`` text.
    """

    index: int
    sql: str | None
    error: str
    code: str = "internal"

    def __str__(self) -> str:
        return f"query #{self.index}: {self.error}"


@dataclass
class BatchPrediction:
    """The service's answer for one batch.

    ``stats`` holds only this batch's counters (a delta of the service's
    cumulative :class:`ServiceStats`), so its hit rate and prepare counts
    describe the batch and stay fixed after the call returns.
    ``failures`` is non-empty only when the batch was served with
    ``skip_failures=True`` and some queries could not be planned or
    predicted; iteration yields the successful predictions only.
    """

    predictions: list[QueryPrediction]
    elapsed_seconds: float
    stats: ServiceStats = field(repr=False, default_factory=ServiceStats)
    failures: list[QueryFailure] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.predictions)

    def __iter__(self):
        return iter(self.predictions)

    @property
    def queries_per_second(self) -> float:
        return len(self.predictions) / max(self.elapsed_seconds, 1e-12)


class ServedQuery(NamedTuple):
    """One served query of a batch and the plan slot that answers it."""

    sql: str | None
    planned: PlannedQuery
    slot: int
    prepare_was_cached: bool


@dataclass
class BatchColumns:
    """One served batch as the kernels left it: arrays, no per-cell object.

    ``assembly`` holds the Algorithm-3 outputs of every distinct plan
    (``[slot, variant, mpl]``) and ``intervals`` the clamped static
    bounds of each requested confidence (``[slot, variant, mpl, level,
    (low, high)]``). ``served`` lists the answered queries in submission
    order, each mapped to its plan slot — duplicates share a slot.
    ``failures``, ``stats`` (this batch's counter delta) and
    ``elapsed_seconds`` are final: rendering the columns, as objects
    (:func:`materialize`) or as wire text, serves nothing more.
    """

    confidences: tuple[float, ...]
    plan: BatchPlan
    assembly: BatchAssembly
    intervals: np.ndarray
    served: list[ServedQuery]
    failures: list[QueryFailure]
    stats: ServiceStats
    elapsed_seconds: float


class PredictionService:
    """Serves uncertainty-aware predictions for query batches."""

    def __init__(
        self,
        database: Database,
        units: CalibratedUnits,
        *,
        sampling_ratio: float = 0.05,
        num_copies: int = 2,
        seed: int = 0,
        grid_w: int = DEFAULT_GRID_W,
        optimizer_config: OptimizerConfig | None = None,
        interference: InterferenceModel | None = None,
        use_gee: bool = False,
        method: str = "sampling",
        cache_size: int = 256,
        sampling_engine_bytes: int = DEFAULT_ENGINE_BUDGET_BYTES,
    ):
        """``sampling_engine_bytes`` budgets the sub-plan sampling cache;
        0 disables that layer entirely (every prepare samples cold)."""
        self._database = database
        self._optimizer = Optimizer(database, optimizer_config)
        self._sample_db = SampleDatabase(
            database,
            sampling_ratio=sampling_ratio,
            num_copies=num_copies,
            seed=seed,
        )
        self._preparer = UncertaintyPredictor(units, grid_w=grid_w)
        self._concurrent = ConcurrentPredictor(units, interference)
        self._use_gee = use_gee
        self._method = method
        self._grid_w = grid_w
        # Bounded like the prepared cache: a long-lived service fed ad-hoc
        # SQL must not grow a plan per distinct query string forever.
        self._plans: OrderedDict[str, PlannedQuery] = OrderedDict()
        self._plans_maxsize = cache_size
        self._prepared = PreparedCache(maxsize=cache_size)
        self._engine = (
            SamplingEngine(max_bytes=sampling_engine_bytes)
            if sampling_engine_bytes > 0
            else None
        )
        # Exact NNLS solutions of the fitting step, keyed by the bytes of
        # their problem; a fixed bound, since a miss costs one solve.
        self._fit_memo = ByteBudgetLRU(FIT_MEMO_BYTES)
        # Guards ServiceStats counter updates and snapshots. The engine
        # itself is not thread-safe (callers serialize serving calls —
        # the Session facade does), but monitoring must be: report()
        # and stats snapshots are read concurrently with traffic and
        # must never observe a torn counter set.
        self._stats_lock = threading.Lock()
        self.stats = ServiceStats()

    # -- introspection -----------------------------------------------------
    @property
    def sample_db(self) -> SampleDatabase:
        return self._sample_db

    @property
    def prepared_cache(self) -> PreparedCache:
        return self._prepared

    @property
    def sampling_engine(self) -> SamplingEngine | None:
        return self._engine

    @property
    def fit_memo(self) -> ByteBudgetLRU:
        """The fit-solution memo shared by every prepare pass."""
        return self._fit_memo

    def report(self) -> ServiceReport:
        """Snapshot counters and cache stats of both cache layers.

        Safe to call from a monitoring thread concurrently with
        traffic: every layer is copied atomically under its own lock
        (the serving counters under the service's stats lock, each
        cache under the cache's), so no snapshot is ever torn.
        Cross-layer skew of in-flight requests is possible and
        harmless — each layer is internally consistent.
        """
        engine = self._engine
        if engine is not None:
            sampling_cache, sampling_entries, sampling_bytes = engine.snapshot()
        else:
            sampling_cache, sampling_entries, sampling_bytes = CacheStats(), 0, 0
        prepared_cache, prepared_entries = self._prepared.snapshot()
        return ServiceReport(
            stats=self._snapshot_stats(),
            prepared_cache=prepared_cache,
            prepared_entries=prepared_entries,
            sampling_cache=sampling_cache,
            sampling_entries=sampling_entries,
            sampling_bytes_used=sampling_bytes,
            sampling_bytes_budget=engine.max_bytes if engine else 0,
        )

    def _snapshot_stats(self) -> ServiceStats:
        """An atomic copy of the cumulative serving counters."""
        with self._stats_lock:
            return self.stats.snapshot()

    def _count(self, **deltas: int) -> None:
        """Atomically bump serving counters (``_count(plans_built=1)``)."""
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    # -- planning / preparing ---------------------------------------------
    def plan(self, query: str | PlannedQuery) -> PlannedQuery:
        """Plan a SQL string (memoized) or pass a pre-planned query through."""
        if isinstance(query, PlannedQuery):
            return query
        planned = self._plans.get(query)
        if planned is None:
            planned = self._optimizer.plan_sql(query)
            self._plans[query] = planned
            if len(self._plans) > self._plans_maxsize:
                self._plans.popitem(last=False)
            self._count(plans_built=1)
        else:
            self._plans.move_to_end(query)
        return planned

    def _cache_key(self, planned: PlannedQuery) -> tuple:
        return (
            plan_signature(planned),
            self._sample_db.fingerprint(),
            self._grid_w,
            self._use_gee,
            self._method,
        )

    def prepare(self, planned: PlannedQuery) -> tuple[PreparedPrediction, bool]:
        """The cached sampling + fitting pass; returns (artifacts, was_hit)."""
        key = self._cache_key(planned)
        prepared = self._prepared.get(key)
        if prepared is not None:
            self._count(prepare_cache_hits=1)
            return prepared, True
        prepared = self._preparer.prepare(
            planned,
            self._sample_db,
            use_gee=self._use_gee,
            method=self._method,
            engine=self._engine,
            fit_memo=self._fit_memo,
        )
        self._prepared.put(key, prepared)
        self._count(prepares_run=1)
        return prepared, False

    # -- serving -----------------------------------------------------------
    def predict_query(
        self,
        query: str | PlannedQuery,
        variants: Sequence[Variant] = (Variant.ALL,),
        mpls: Sequence[int] = (1,),
    ) -> QueryPrediction:
        """One query, fanned out across variants and multiprogramming levels.

        Served as a batch of one (:meth:`predict_batch`), so a failure
        raises and a single query answers exactly what it answers in a
        batch.
        """
        return self.predict_batch(
            (query,), variants=variants, mpls=mpls
        ).predictions[0]

    def predict_batch(
        self,
        queries: Iterable[str | PlannedQuery],
        variants: Sequence[Variant] = (Variant.ALL,),
        mpls: Sequence[int] = (1,),
        skip_failures: bool = False,
        confidences: Sequence[float] | None = None,
    ) -> BatchPrediction:
        """A whole batch, every query fanned out across variants and mpls.

        Serves the batch into columns (:meth:`predict_batch_columns`,
        which documents the semantics) and materializes them as one
        :class:`QueryPrediction` per served query, with a
        :class:`~repro.core.predictor.PredictionResult` per distinct
        (variant, mpl) whose ``confidences`` intervals are the kernels'
        bounds. Intervals at levels outside ``confidences`` are computed
        on demand.
        """
        started = time.perf_counter()
        columns = self.predict_batch_columns(
            queries,
            variants=variants,
            mpls=mpls,
            skip_failures=skip_failures,
            confidences=confidences,
        )
        return BatchPrediction(
            predictions=materialize(columns),
            elapsed_seconds=time.perf_counter() - started,
            stats=columns.stats,
            failures=columns.failures,
        )

    def predict_batch_columns(
        self,
        queries: Iterable[str | PlannedQuery],
        variants: Sequence[Variant] = (Variant.ALL,),
        mpls: Sequence[int] = (1,),
        skip_failures: bool = False,
        confidences: Sequence[float] | None = None,
    ) -> BatchColumns:
        """Serve a batch into the kernels' arrays, building no per-cell object.

        Stage 1 plans and prepares each query (memoized plan, cached
        prepare). The remaining stages run the whole batch through the
        cross-query array kernels: distinct plans are interned and
        deduped (:func:`~repro.service.kernels.build_batch_plan`),
        assembled in shared arrays
        (:func:`~repro.service.kernels.assemble_batch`), and the
        requested ``confidences`` bounded in the same pass
        (:func:`~repro.service.kernels.batch_intervals`). Repeated
        variants and mpls are served once, in first-occurrence order,
        so ``assemblies`` counts distinct (query, variant, mpl) cells.

        With ``skip_failures=True``, a query that cannot be planned or
        predicted (malformed SQL, unsupported plan shape, a predicate
        comparing incompatible types, ...) becomes a
        :class:`QueryFailure` in the result instead of aborting the whole
        batch; the remaining queries are still served. Any exception is
        converted — a serving batch must degrade per query, and errors
        escaping the library's own hierarchy (e.g. numpy type errors
        raised while evaluating a predicate over sample columns) abort
        the batch just as hard as a parse error would. With
        ``skip_failures=False`` the first failure propagates, and an
        aborted batch counts no query as served: the plans and prepares
        it already ran stay counted and cached, but ``queries_served``
        and ``assemblies`` do not move.
        """
        variants = tuple(dict.fromkeys(variants))
        mpls = tuple(dict.fromkeys(mpls))
        confidences = tuple(confidences) if confidences else ()
        before = self._snapshot_stats()
        started = time.perf_counter()
        entries: list[tuple[int, str | None, PlannedQuery, PreparedPrediction, bool]] = []
        failures: list[QueryFailure] = []
        for index, query in enumerate(queries):
            sql = query if isinstance(query, str) else None
            try:
                if not variants or not mpls:
                    raise PredictionError("need at least one variant and one mpl")
                planned = self.plan(query)
                prepared, was_cached = self.prepare(planned)
            except Exception as error:  # noqa: BLE001 — per-query isolation
                if not skip_failures:
                    raise
                self._count(queries_failed=1)
                failures.append(_failure(index, sql, error))
                continue
            entries.append((index, sql, planned, prepared, was_cached))

        batch_plan = build_batch_plan(
            [(planned, prepared) for _, _, planned, prepared, _ in entries]
        )
        assembly = assemble_batch(
            batch_plan,
            self._concurrent,
            variants,
            mpls,
            isolate=skip_failures,
        )
        intervals = batch_intervals(assembly, confidences)

        served: list[ServedQuery] = []
        for (index, sql, planned, _, was_cached), slot in zip(
            entries, batch_plan.query_slots.tolist()
        ):
            error = assembly.plan_errors.get(slot)
            if error is not None:
                self._count(queries_failed=1)
                failures.append(_failure(index, sql, error))
                continue
            served.append(ServedQuery(sql, planned, slot, was_cached))
        if served:
            self._count(
                assemblies=len(variants) * len(mpls) * len(served),
                queries_served=len(served),
            )
        failures.sort(key=lambda failure: failure.index)
        return BatchColumns(
            confidences=confidences,
            plan=batch_plan,
            assembly=assembly,
            intervals=intervals,
            served=served,
            failures=failures,
            stats=self._snapshot_stats().since(before),
            elapsed_seconds=time.perf_counter() - started,
        )


def _failure(index: int, sql: str | None, error: BaseException) -> QueryFailure:
    return QueryFailure(
        index=index,
        sql=sql,
        error=f"{type(error).__name__}: {error}",
        code=error_code(error),
    )


def materialize(columns: BatchColumns) -> list[QueryPrediction]:
    """One :class:`QueryPrediction` per served query of ``columns``.

    Each distinct plan's results are built once; duplicate queries share
    the (immutable) :class:`~repro.core.predictor.PredictionResult`
    objects, and every requested interval is the kernels' bound.
    """
    assembly = columns.assembly
    variants, mpls, confidences = assembly.variants, assembly.mpls, columns.confidences
    # tolist() converts whole arrays to python floats in one pass;
    # transposing to [slot][mpl][variant] first lets the loops below
    # walk the nested lists in iteration order.
    mean_list = assembly.mean.transpose(0, 2, 1).tolist()
    variance_list = assembly.variance.transpose(0, 2, 1).tolist()
    exact_list = assembly.exact_part.transpose(0, 2, 1).tolist()
    bounded_list = assembly.bounded_part.transpose(0, 2, 1).tolist()
    unit_list = assembly.unit_part.transpose(0, 2, 1).tolist()
    per_unit_list = assembly.per_unit_mean.transpose(0, 2, 1, 3).tolist()
    intervals_list = columns.intervals.transpose(0, 2, 1, 3, 4).tolist()
    slot_results: dict[int, dict[tuple[Variant, int], PredictionResult]] = {}
    predictions: list[QueryPrediction] = []
    for sql, planned, slot, was_cached in columns.served:
        results = slot_results.get(slot)
        if results is None:
            prepared = columns.plan.prepared[slot]
            results = slot_results[slot] = {}
            # mpl outer, variant inner: response payload order follows
            # dict insertion order.
            for li, mpl in enumerate(mpls):
                mean_row = mean_list[slot][li]
                variance_row = variance_list[slot][li]
                exact_row = exact_list[slot][li]
                bounded_row = bounded_list[slot][li]
                unit_row = unit_list[slot][li]
                per_unit_row = per_unit_list[slot][li]
                interval_row = intervals_list[slot][li]
                for vi, variant in enumerate(variants):
                    mean = mean_row[vi]
                    variance = variance_row[vi]
                    breakdown = VarianceBreakdown(
                        mean=mean,
                        variance=variance,
                        exact_selectivity_term=exact_row[vi],
                        bounded_covariance_term=bounded_row[vi],
                        cost_unit_term=unit_row[vi],
                        per_unit_mean=dict(
                            zip(COST_UNIT_NAMES, per_unit_row[vi])
                        ),
                    )
                    results[(variant, mpl)] = PredictionResult(
                        distribution=NormalDistribution(mean, variance),
                        breakdown=breakdown,
                        prepared=prepared,
                        variant=variant,
                        _intervals=dict(
                            zip(confidences, map(tuple, interval_row[vi]))
                        ),
                    )
        predictions.append(
            QueryPrediction(
                sql=sql,
                planned=planned,
                results=dict(results),
                prepare_was_cached=was_cached,
            )
        )
    return predictions
