"""Batch serving throughput: PredictionService vs the naive loop.

The service claim: batching keeps the paper's "uncertainty at
negligible overhead" promise under serving load. The naive baseline is
the straightforward per-query loop over the one-shot predictor API:
one optimizer and one sample database, each query planned once, then
``UncertaintyPredictor.predict()`` (which runs its own sampling +
fitting pass and assembly) called per (variant, multiprogramming level)
combination — no sharing of the prepare pass across the fan-out and no
reuse across repeated queries. The batch path plans and prepares each
distinct query once, shares the prepared artifacts across the fan-out
and across repeats, and assembles with the SoA kernels. The full tier
floors ``batch_speedup`` at 3x, and ``naive_agree_frac`` (hard floor
1.0) requires every query's batch mean to match the naive loop's within
1e-9 relative.

The second regime is the warm recurring-batch path: one warmed service
serving the same batch through ``predict_batch`` (the cross-query SoA
kernels, docs/service.md "Batch kernels") vs a reference loop written
here that assembles each query once per (variant, mpl) through the
scalar ``predict_prepared`` path, including the
per-result confidence-interval payload the serving tier computes per
response. ``soa_retained`` (hard floor: the batch path must stay >= 3x
over the per-query loop) and ``soa_bitwise`` (hard floor 1.0: every
payload float bit-identical) guard that path.
"""

import struct

from repro.benchreport import Metric, register
from repro.core import Variant
from repro.core.concurrency import ConcurrentPredictor
from repro.datagen import TpchConfig, generate_tpch
from repro.hardware import PROFILES, HardwareSimulator
from repro.calibration import Calibrator
from repro.optimizer import Optimizer
from repro.sampling import SampleDatabase
from repro.service import PredictionService, QueryPrediction
from repro.util import ensure_rng
from repro.workloads.tpch_templates import TPCH_TEMPLATES

BATCH_SIZE = 50
VARIANTS = tuple(Variant)
MPLS = (1, 2, 4)
SAMPLING_RATIO = 0.05


def _build_serving_setup(batch_size=BATCH_SIZE):
    db = generate_tpch(TpchConfig(scale_factor=0.01, skew_z=0.0, seed=11))
    units = Calibrator(
        HardwareSimulator(PROFILES["PC2"], rng=0), repetitions=6
    ).calibrate()
    rng = ensure_rng(21)
    # A serving-shaped batch: template instantiations with recurring
    # parameter bindings (dashboards re-issue identical queries).
    distinct = [
        TPCH_TEMPLATES[i % len(TPCH_TEMPLATES)].instantiate(rng)
        for i in range(batch_size * 7 // 10)
    ]
    repeats = [distinct[int(rng.integers(len(distinct)))] for _ in
               range(batch_size - len(distinct))]
    return db, units, distinct + repeats


@register("service_throughput", tags=("service", "throughput"))
def scenario(ctx):
    """Batch service vs the naive per-query loop on a serving batch."""
    db, units, queries = _build_serving_setup(
        batch_size=ctx.pick(quick=20, full=BATCH_SIZE)
    )
    # Best-of-2 on each side (a fresh service per run keeps the batch
    # path cold-cache like the naive loop it is compared against).
    service_seconds, batch = ctx.best_of(
        lambda: PredictionService(
            db, units, sampling_ratio=SAMPLING_RATIO, seed=1
        ).predict_batch(queries, variants=VARIANTS, mpls=MPLS),
        2,
    )
    naive_seconds, naive_means = ctx.best_of(
        lambda: run_naive(db, units, queries), 2
    )

    rel_diffs = [
        abs(prediction.mean - naive_mean) / abs(naive_mean)
        for prediction, naive_mean in zip(batch, naive_means)
    ]

    # Warm recurring-batch regime: one warmed service, the batch path
    # against the per-query loop. The meter includes the per-result
    # interval payload the serving tier computes per response (the
    # batch path precomputes those bounds in the same array pass); the
    # payload doubles as the bitwise-agreement probe.
    warm = PredictionService(db, units, sampling_ratio=SAMPLING_RATIO, seed=1)
    warm.predict_batch(queries, variants=VARIANTS, mpls=MPLS)
    reps = ctx.pick(quick=3, full=5)
    scalar_seconds, scalar_payload = ctx.best_of(
        lambda: _payload(_serve_per_query(warm, queries)), reps
    )
    soa_seconds, soa_payload = ctx.best_of(
        lambda: _payload(_serve_batch(warm, queries)), reps
    )

    return [
        Metric("batch_seconds", service_seconds, kind="timing", unit="s"),
        Metric("naive_seconds", naive_seconds, kind="timing", unit="s"),
        Metric(
            "batch_speedup", naive_seconds / service_seconds, kind="ratio",
            floor=ctx.pick(quick=2.0, full=3.0),
        ),
        Metric("prepare_hit_rate", float(batch.stats.prepare_hit_rate)),
        Metric("naive_agreement_max_rel_diff", float(max(rel_diffs))),
        Metric(
            "naive_agree_frac",
            sum(diff <= 1e-9 for diff in rel_diffs) / len(queries),
            kind="ratio",
            floor=1.0,
        ),
        Metric("warm_scalar_seconds", scalar_seconds, kind="timing", unit="s"),
        Metric("warm_soa_seconds", soa_seconds, kind="timing", unit="s"),
        Metric(
            "soa_retained", scalar_seconds / soa_seconds, kind="ratio",
            floor=3.0,
        ),
        Metric(
            "soa_bitwise",
            1.0 if soa_payload == scalar_payload else 0.0,
            kind="ratio",
            floor=1.0,
        ),
    ]


CONFIDENCES = (0.5, 0.9, 0.99)


def _serve_batch(service, queries):
    """The batch path, precomputing the payload's intervals."""
    return service.predict_batch(
        queries, variants=VARIANTS, mpls=MPLS, confidences=CONFIDENCES
    )


def _serve_per_query(service, queries):
    """The reference: the scalar per-query loop, intervals on demand.

    Each query is planned and prepared through the warm service, then
    assembled once per (variant, mpl) by ``predict_prepared`` — the
    loop ``predict_query`` ran before it became a batch of one.
    """
    predictions = []
    for sql in queries:
        planned = service.plan(sql)
        prepared, was_cached = service.prepare(planned)
        results = {}
        for mpl in MPLS:
            predictor = service._concurrent.predictor_at(mpl)
            for variant in VARIANTS:
                results[(variant, mpl)] = predictor.predict_prepared(
                    planned, prepared, variant
                )
        predictions.append(QueryPrediction(sql, planned, results, was_cached))
    return predictions


def _payload(predictions):
    """Emit the full payload of one warm serving pass.

    Returns every served float — means, variances, stds, and both
    bounds of every confidence interval — as exact little-endian bytes,
    so timing and the bitwise probe share one pass.
    """
    payload = []
    for prediction in predictions:
        for result in prediction.results.values():
            payload.append(struct.pack("<d", result.mean))
            payload.append(struct.pack("<d", result.breakdown.variance))
            payload.append(struct.pack("<d", result.std))
            for confidence in CONFIDENCES:
                low, high = result.confidence_interval(confidence)
                payload.append(struct.pack("<d", low))
                payload.append(struct.pack("<d", high))
    return payload


def run_naive(db, units, queries) -> list[float]:
    """The pre-service loop: one-shot ``predict()`` per combination."""
    means = []
    optimizer = Optimizer(db)
    samples = SampleDatabase(db, sampling_ratio=SAMPLING_RATIO, seed=1)
    concurrent = ConcurrentPredictor(units)
    for sql in queries:
        planned = optimizer.plan_sql(sql)
        for mpl in MPLS:
            predictor = concurrent.predictor_at(mpl)
            for variant in VARIANTS:
                result = predictor.predict(planned, samples, variant)
                if variant is Variant.ALL and mpl == 1:
                    means.append(result.mean)
    return means
