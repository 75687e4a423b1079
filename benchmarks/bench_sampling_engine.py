"""The shared sub-plan sampling engine: LEC choice and batch serving.

The paper's overhead analysis (Section 6.3.4) argues the sampling pass
must be amortized to be deployable. Two serving shapes exercise the
memoization layer that does the amortizing:

* **LEC candidate evaluation** — the chooser samples up to five
  candidate plans per query whose shapes differ only in access paths,
  join algorithms, and join input order: exactly the degrees of freedom
  the engine's signatures are invariant to. Cold evaluation re-runs the
  full sample pipeline per candidate; with a shared engine the repeated
  sub-plans are served from cache. The acceptance floor on the full
  tier is a 3x steady-state speedup (recurring queries whose candidate
  entries have rotated out of the chooser's small per-instance LRU —
  the heavy traffic regime).

* **a TPC-H dashboard batch** — distinct metric queries (different
  aggregates / group keys) over shared template FROM/WHERE bases. The
  prepared-artifact cache cannot help (every plan is distinct,
  ``dashboard_prepare_cache_cold``); the engine shares everything below
  the aggregates. The full tier floors its speedup at 1.3x.

Both sections cross-check, as hard-floored flags, that the engine
changes no number: ``engine_bitwise`` requires engine-served estimates
of every LEC query to equal the cold reference at every operator (same
means, variances, per-relation variance components, sample sizes and
sample-run counts, with at least one engine hit), and
``dashboard_bitwise`` the dashboard's means and stds with the engine
on and off.
"""

import time

from repro.benchreport import Metric, register
from repro.calibration import Calibrator
from repro.core import LeastExpectedCostChooser, UncertaintyPredictor
from repro.datagen import TpchConfig, generate_tpch
from repro.hardware import PROFILES, HardwareSimulator
from repro.optimizer import Optimizer
from repro.sampling import SampleDatabase, SamplingEngine
from repro.service import PredictionService
from repro.util import ensure_rng
from repro.workloads import seljoin_workload
from repro.workloads.tpch_templates import TPCH_TEMPLATES

#: Large enough that sampling (which the engine removes) dominates the
#: per-candidate cost over fitting (which it cannot remove).
SCALE = 0.05
SAMPLING_RATIO = 0.25
ENGINE_BYTES = 384 * 1024 * 1024
NUM_QUERIES = 8
SPEEDUP_FLOOR = 3.0

DASHBOARD_METRICS = [
    ("l_returnflag", "SUM(l_quantity) AS sum_qty"),
    ("l_linestatus", "AVG(l_extendedprice) AS avg_price"),
    ("l_shipmode", "COUNT(*) AS n"),
    ("l_returnflag", "MAX(l_discount) AS max_disc"),
    ("l_shipmode", "SUM(l_extendedprice) AS revenue"),
]


def _build_setup(scale=SCALE, num_queries=NUM_QUERIES):
    db = generate_tpch(TpchConfig(scale_factor=scale, skew_z=0.0, seed=11))
    units = Calibrator(
        HardwareSimulator(PROFILES["PC2"], rng=0), repetitions=6
    ).calibrate()
    samples = SampleDatabase(db, sampling_ratio=SAMPLING_RATIO, seed=1)
    queries = seljoin_workload(num_queries=num_queries, seed=5)
    return db, units, samples, queries


@register("sampling_engine", tags=("caching", "throughput"))
def scenario(ctx):
    """Shared sub-plan engine: LEC steady-state and dashboard speedups."""
    db, units, samples, queries = _build_setup(
        scale=ctx.pick(quick=0.02, full=SCALE),
        num_queries=ctx.pick(quick=4, full=NUM_QUERIES),
    )
    cold, _ = ctx.best_of(
        lambda: _evaluate_round(db, units, samples, queries, None), 2
    )
    engine = SamplingEngine(max_bytes=ENGINE_BYTES)
    first = _evaluate_round(db, units, samples, queries, engine)
    steady, _ = ctx.best_of(
        lambda: _evaluate_round(db, units, samples, queries, engine), 2
    )

    lec_speedup = cold / steady
    # Release the LEC engine (up to ENGINE_BYTES of retained sample
    # intermediates) before the dashboard phase: keeping it alive
    # skews the off/on comparison below with asymmetric GC pressure.
    del engine

    batch = _dashboard_batch(ensure_rng(21))

    def serve(engine_bytes):
        # A fresh service per call: each round pays the full prepare
        # pass, so the off/on delta isolates the engine's effect.
        service = PredictionService(
            db, units, sampling_ratio=SAMPLING_RATIO, seed=1,
            sampling_engine_bytes=engine_bytes,
        )
        return service.predict_batch(batch)

    off, served_off = ctx.best_of(lambda: serve(0), 2)
    on, served_on = ctx.best_of(lambda: serve(ENGINE_BYTES), 2)
    dashboard_bitwise = len(served_off) == len(served_on) == len(batch) and all(
        a.result().mean == b.result().mean and a.result().std == b.result().std
        for a, b in zip(served_off, served_on)
    )
    return [
        Metric("lec_cold_seconds", cold, kind="timing", unit="s"),
        Metric("lec_first_seconds", first, kind="timing", unit="s"),
        Metric("lec_steady_seconds", steady, kind="timing", unit="s"),
        # The quick tier's floors sit well below the full tier's
        # acceptance floors (3x LEC, 1.3x dashboard): its database is
        # smaller, so sampling, which the engine removes, is a smaller
        # share of each evaluation. The baseline-relative ratio band is
        # the tighter guard there; the floor only catches a collapse.
        Metric(
            "lec_steady_speedup", lec_speedup, kind="ratio",
            floor=ctx.pick(quick=1.3, full=SPEEDUP_FLOOR),
        ),
        Metric("dashboard_off_seconds", off, kind="timing", unit="s"),
        Metric("dashboard_on_seconds", on, kind="timing", unit="s"),
        Metric(
            "dashboard_speedup", off / on, kind="ratio",
            floor=ctx.pick(quick=1.05, full=1.3),
        ),
        Metric(
            "dashboard_prepare_cache_cold",
            1.0 if served_on.stats.prepare_cache_hits == 0 else 0.0,
            kind="ratio",
            floor=1.0,
        ),
        Metric(
            "dashboard_bitwise", 1.0 if dashboard_bitwise else 0.0,
            kind="ratio", floor=1.0,
        ),
        Metric(
            "engine_bitwise",
            1.0 if _engine_bitwise(db, units, samples, queries) else 0.0,
            kind="ratio",
            floor=1.0,
        ),
    ]


def _engine_bitwise(db, units, samples, queries) -> bool:
    """Engine-served estimates equal the cold reference exactly.

    Not approximately: at every operator of every query, after the
    engine was warmed by one pass, and with at least one engine hit.
    """
    predictor = UncertaintyPredictor(units)
    engine = SamplingEngine(max_bytes=ENGINE_BYTES)
    optimizer = Optimizer(db)
    for sql in queries:
        planned = optimizer.plan_sql(sql)
        reference = predictor.prepare(planned, samples).estimate
        predictor.prepare(planned, samples, engine=engine)  # warm the engine
        served = predictor.prepare(planned, samples, engine=engine).estimate
        if reference.sample_run_counts != served.sample_run_counts:
            return False
        for op_id, ref in reference.per_node.items():
            hot = served.per_node[op_id]
            if not (
                ref.mean == hot.mean
                and ref.variance == hot.variance
                and ref.var_components == hot.var_components
                and ref.sample_sizes == hot.sample_sizes
            ):
                return False
    return engine.stats.hits > 0


def _evaluate_round(db, units, samples, queries, engine) -> float:
    """One full LEC evaluation of every query, on fresh chooser instances.

    Fresh choosers model the heavy-traffic regime: the per-chooser
    candidate LRU no longer holds the query, so the evaluation repeats —
    cold unless the shared engine serves the sampling.
    """
    started = time.perf_counter()
    for sql in queries:
        chooser = LeastExpectedCostChooser(db, units, engine=engine)
        if engine is None:
            chooser._engine = None  # ablation: no memoization at all
        chooser.candidates(sql, samples)
    return time.perf_counter() - started


def _dashboard_batch(rng) -> list[str]:
    """Distinct metric queries over shared TPC-H template bases."""
    bases = []
    for number in (3, 5, 10):
        template = next(t for t in TPCH_TEMPLATES if t.number == number)
        bases.append((template.tables, template.where(rng)))
    return [
        f"SELECT {key}, {aggregate} FROM {tables} WHERE {where} GROUP BY {key}"
        for tables, where in bases
        for key, aggregate in DASHBOARD_METRICS
    ]
