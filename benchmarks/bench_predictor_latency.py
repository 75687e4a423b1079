"""The low-overhead claim: prediction latency per pipeline stage.

The paper argues distributions come "almost at the cost" of the point
predictor [48]. Here pytest-benchmark times the real wall-clock of the
three prediction stages (sampling pass, cost-function fitting,
distribution assembly) on a SELJOIN query.

The scenario also meters the SoA batch-assembly kernels
(docs/service.md "Batch kernels") against the scalar per-result
assembly + interval loop over the same prepared SELJOIN plans:
``soa_assembly_retained`` carries a hard floor on the speedup and
``soa_assembly_bitwise`` hard-floors bit-identical outputs.

``fitting_seconds`` times the cost-function fitter alone, without the
service's fit-solution memo. ``fit_memo_hit_rate`` is that memo's hit
rate on never-seen TPC-H queries served by one
:class:`~repro.service.PredictionService` after a warm-up: a fidelity
metric, exact for the seed, so the guard's tight band catches a memo
key that silently stops hitting.
"""

import struct

import numpy as np
import pytest

from repro.benchreport import Metric, register
from repro.core import UncertaintyPredictor, Variant
from repro.core.concurrency import ConcurrentPredictor
from repro.costfuncs import CostFunctionFitter
from repro.core.variance import assemble_distribution_parameters
from repro.sampling import SelectivityEstimator
from repro.service import PredictionService
from repro.service.kernels import (
    assemble_batch,
    batch_intervals,
    build_batch_plan,
)
from repro.workloads.tpch_templates import TPCH_TEMPLATES

ASSEMBLY_VARIANTS = tuple(Variant)
ASSEMBLY_MPLS = (1, 2, 4)
ASSEMBLY_CONFIDENCES = (0.5, 0.9, 0.99)


@register("predictor_latency", tags=("latency", "overhead"))
def scenario(ctx):
    """Per-stage prediction latency on a SELJOIN query (best of N)."""
    lab = ctx.small_lab
    executed = lab.executed_queries("uniform-small", "SELJOIN")[1]
    samples = lab.sample_db("uniform-small", 0.05)
    units = lab.units("PC1")
    estimate = SelectivityEstimator(samples, executed.planned).estimate()
    fitted = CostFunctionFitter(executed.planned, estimate).fit_all()
    predictor = UncertaintyPredictor(units)
    repetitions = ctx.pick(quick=3, full=7)

    stages = {
        "sampling_pass_seconds":
            lambda: SelectivityEstimator(samples, executed.planned).estimate(),
        "fitting_seconds":
            lambda: CostFunctionFitter(executed.planned, estimate).fit_all(),
        "assembly_seconds":
            lambda: assemble_distribution_parameters(
                executed.planned, estimate, fitted, units
            ),
        "end_to_end_seconds":
            lambda: predictor.predict(executed.planned, samples),
    }
    metrics = [
        Metric(name, ctx.best_of(func, repetitions)[0], kind="timing", unit="s")
        for name, func in stages.items()
    ]

    # SoA batch assembly vs the scalar per-result loop, over every
    # SELJOIN plan at the full variant x mpl x confidence fan-out.
    # Both sides start from the same prepared artifacts (warm assembler
    # caches), so the ratio isolates the assembly + interval math.
    entries = []
    for query in lab.executed_queries("uniform-small", "SELJOIN"):
        prepared = predictor.prepare(query.planned, samples)
        prepared.assembler(query.planned)  # warm, like a serving cache
        entries.append((query.planned, prepared))
    concurrent = ConcurrentPredictor(units)
    scalar_seconds, scalar_payload = ctx.best_of(
        lambda: _assemble_scalar(entries, concurrent), repetitions
    )
    soa_seconds, soa_payload = ctx.best_of(
        lambda: _assemble_soa(entries, concurrent), repetitions
    )
    metrics += [
        Metric(
            "scalar_assembly_batch_seconds", scalar_seconds,
            kind="timing", unit="s",
        ),
        Metric(
            "soa_assembly_batch_seconds", soa_seconds,
            kind="timing", unit="s",
        ),
        Metric(
            "soa_assembly_retained", scalar_seconds / soa_seconds,
            kind="ratio", floor=2.0,
        ),
        Metric(
            "soa_assembly_bitwise",
            1.0 if soa_payload == scalar_payload else 0.0,
            kind="ratio",
            floor=1.0,
        ),
        Metric(
            "fit_memo_hit_rate",
            _fit_memo_hit_rate(
                lab.databases["uniform-small"], units, ctx.seed,
                warmup=ctx.pick(quick=100, full=300),
                measured=ctx.pick(quick=100, full=200),
            ),
            kind="fidelity",
        ),
    ]
    return metrics


def _fit_memo_hit_rate(database, units, seed, *, warmup, measured):
    """The fit-solution memo's hit rate over never-seen TPC-H queries.

    One service prepares ``warmup`` distinct template instantiations,
    then ``measured`` more; the rate counts the second stretch only.
    Every lookup keys on exact problem bytes, so the rate is a pure
    function of the seed.
    """
    service = PredictionService(database, units, sampling_ratio=0.05, seed=seed)
    rng = np.random.default_rng(seed)
    seen: set[str] = set()

    def prepare_fresh(count):
        while count:
            template = TPCH_TEMPLATES[int(rng.integers(len(TPCH_TEMPLATES)))]
            sql = template.instantiate(rng)
            if sql not in seen:
                seen.add(sql)
                service.prepare(service.plan(sql))
                count -= 1

    prepare_fresh(warmup)
    before = service.fit_memo.snapshot()[0]
    prepare_fresh(measured)
    after = service.fit_memo.snapshot()[0]
    return (after.hits - before.hits) / (after.lookups - before.lookups)


def _assemble_scalar(entries, concurrent):
    """The reference loop: one assemble + interval pass per combination."""
    payload = []
    for planned, prepared in entries:
        for mpl in ASSEMBLY_MPLS:
            predictor = concurrent.predictor_at(mpl)
            for variant in ASSEMBLY_VARIANTS:
                result = predictor.predict_prepared(planned, prepared, variant)
                _pack_result(
                    payload,
                    result.breakdown,
                    result.std,
                    [
                        result.confidence_interval(confidence)
                        for confidence in ASSEMBLY_CONFIDENCES
                    ],
                )
    return payload


def _assemble_soa(entries, concurrent):
    """The SoA kernels over the same artifacts, packed in scalar order."""
    batch_plan = build_batch_plan(entries)
    assembly = assemble_batch(
        batch_plan, concurrent, ASSEMBLY_VARIANTS, ASSEMBLY_MPLS
    )
    intervals = batch_intervals(assembly, ASSEMBLY_CONFIDENCES)
    payload = []
    # Walk per submitted entry (query_slots), not per distinct slot, so
    # the payload lines up 1:1 with the scalar loop's even if two
    # SELJOIN plans ever dedup to one slot.
    for slot in (int(index) for index in batch_plan.query_slots):
        for li in range(len(ASSEMBLY_MPLS)):
            for vi in range(len(ASSEMBLY_VARIANTS)):
                payload += [
                    struct.pack("<d", assembly.mean[slot, vi, li]),
                    struct.pack("<d", assembly.variance[slot, vi, li]),
                    struct.pack("<d", assembly.std[slot, vi, li]),
                    struct.pack("<d", assembly.exact_part[slot, vi, li]),
                    struct.pack("<d", assembly.bounded_part[slot, vi, li]),
                    struct.pack("<d", assembly.unit_part[slot, vi, li]),
                ]
                payload += [
                    struct.pack("<d", value)
                    for value in assembly.per_unit_mean[slot, vi, li]
                ]
                for ci in range(len(ASSEMBLY_CONFIDENCES)):
                    payload += [
                        struct.pack("<d", intervals[slot, vi, li, ci, 0]),
                        struct.pack("<d", intervals[slot, vi, li, ci, 1]),
                    ]
    return payload


def _pack_result(payload, breakdown, std, interval_pairs):
    payload += [
        struct.pack("<d", breakdown.mean),
        struct.pack("<d", breakdown.variance),
        struct.pack("<d", std),
        struct.pack("<d", breakdown.exact_selectivity_term),
        struct.pack("<d", breakdown.bounded_covariance_term),
        struct.pack("<d", breakdown.cost_unit_term),
    ]
    payload += [
        struct.pack("<d", value) for value in breakdown.per_unit_mean.values()
    ]
    for low, high in interval_pairs:
        payload += [struct.pack("<d", low), struct.pack("<d", high)]


@pytest.fixture(scope="module")
def setup(small_lab):
    executed = small_lab.executed_queries("uniform-small", "SELJOIN")[1]
    samples = small_lab.sample_db("uniform-small", 0.05)
    units = small_lab.units("PC1")
    estimate = SelectivityEstimator(samples, executed.planned).estimate()
    fitted = CostFunctionFitter(executed.planned, estimate).fit_all()
    return executed, samples, units, estimate, fitted


def test_latency_sampling_pass(setup, benchmark):
    executed, samples, _, _, _ = setup
    benchmark(
        lambda: SelectivityEstimator(samples, executed.planned).estimate()
    )


def test_latency_cost_function_fitting(setup, benchmark):
    executed, _, _, estimate, _ = setup
    benchmark(lambda: CostFunctionFitter(executed.planned, estimate).fit_all())


def test_latency_distribution_assembly(setup, benchmark):
    executed, _, units, estimate, fitted = setup
    benchmark(
        lambda: assemble_distribution_parameters(
            executed.planned, estimate, fitted, units
        )
    )


def test_latency_end_to_end_prediction(setup, small_lab, benchmark):
    executed, samples, units, _, _ = setup
    predictor = UncertaintyPredictor(units)
    result = benchmark(lambda: predictor.predict(executed.planned, samples))
    assert result.mean > 0
