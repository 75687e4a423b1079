"""Cross-query SoA prediction kernels: the one Algorithm-3 serving path.

These kernels serve every prediction: a batch through
:meth:`~repro.service.PredictionService.predict_batch_columns`, and a
single query as a batch of one. Serving one query on its own — the
scalar loop kept as ``predict_query_oracle`` in
``tests/batch_oracle.py`` — fans variants x mpls through
:meth:`~repro.core.variance.VectorizedAssembler.assemble`, one python
call per (variant, mpl) combination, then one scalar quantile per
interval bound. The kernels instead run as structure-of-arrays:

1. :func:`build_batch_plan` interns every query's plan signature and
   dedups duplicate plans into one slot per distinct plan;
2. :func:`assemble_batch` gathers each plan's cached unit-space moments
   (:meth:`~repro.core.variance.VectorizedAssembler.unit_moments`) and
   folds every mpl's unit distributions over them for every (plan,
   variant, mpl) combination in one
   :func:`~repro.core.variance.fold_unit_moments` call over shared
   ``(P, V, L)`` arrays;
3. :func:`batch_intervals` evaluates every confidence-interval bound
   for the whole batch in one broadcast.

**The bitwise contract.** Every number this module produces is
bit-identical to what the scalar per-query loop
(:meth:`~repro.core.variance.VectorizedAssembler.assemble` +
:meth:`~repro.mathstats.normal.NormalDistribution.interval` +
:meth:`~repro.core.predictor.PredictionResult.confidence_interval`)
produces for the same inputs — ``tests/test_kernels.py`` enforces this
differentially over hundreds of randomized batches, against
``predict_query_oracle``. It holds by construction: both paths call
the same :func:`~repro.core.variance.fold_unit_moments`, whose sums run
left to right over the cost units
(:func:`~repro.core.variance.sum_in_order`) and whose other steps are
elementwise, so a cell's bits do not depend on the batch around it.
No step calls BLAS. The interval coefficients come from the scalar
:func:`~repro.mathstats.normal.erfinv` on the scalar path's own
arguments, and elementwise broadcasting, ``np.sqrt`` and
``np.where``-based clamps match their scalar ``math`` equivalents
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.concurrency import ConcurrentPredictor
from ..core.predictor import VARIANT_OPTIONS, PreparedPrediction, Variant
from ..core.variance import fold_unit_moments
from ..mathstats.normal import erfinv
from ..optimizer.cost_model import COST_UNIT_NAMES
from ..optimizer.optimizer import PlannedQuery
from .cache import plan_signature

__all__ = [
    "BatchAssembly",
    "BatchPlan",
    "assemble_batch",
    "batch_intervals",
    "build_batch_plan",
]

_SQRT2 = math.sqrt(2)

_UNITS = len(COST_UNIT_NAMES)

#: The unit-space moments a failed plan's rows are folded over.
_NO_MOMENTS = (np.zeros(_UNITS), np.zeros((2, _UNITS, _UNITS)))


@dataclass
class BatchPlan:
    """One batch's distinct plans.

    ``planned``/``prepared``/``signatures`` hold one entry per
    *distinct* plan signature; ``query_slots`` maps each submitted query
    back to its slot.
    """

    planned: list[PlannedQuery]
    prepared: list[PreparedPrediction]
    signatures: list[str]
    query_slots: np.ndarray

    def __len__(self) -> int:
        return len(self.planned)

    @property
    def num_queries(self) -> int:
        return len(self.query_slots)


def build_batch_plan(
    entries: Sequence[tuple[PlannedQuery, PreparedPrediction]],
) -> BatchPlan:
    """Intern and dedup one batch's plans into a :class:`BatchPlan`.

    Dedup keys on the full interned signature *string*, never on its
    CRC-32 (:func:`~repro.service.cache.plan_signature_hash`, which
    routing places queries by), so a 32-bit collision between distinct
    plans can only misroute, never merge, them.
    """
    slots: dict[str, int] = {}
    planned_list: list[PlannedQuery] = []
    prepared_list: list[PreparedPrediction] = []
    signatures: list[str] = []
    query_slots = np.empty(len(entries), dtype=np.intp)
    for position, (planned, prepared) in enumerate(entries):
        signature = plan_signature(planned)
        slot = slots.get(signature)
        if slot is None:
            slot = len(planned_list)
            slots[signature] = slot
            planned_list.append(planned)
            prepared_list.append(prepared)
            signatures.append(signature)
        query_slots[position] = slot
    return BatchPlan(
        planned=planned_list,
        prepared=prepared_list,
        signatures=signatures,
        query_slots=query_slots,
    )


@dataclass
class BatchAssembly:
    """Algorithm-3 outputs for every (plan, variant, mpl) of a batch.

    All arrays are indexed ``[plan_slot, variant_index, mpl_index]``
    (plus a trailing cost-unit axis on ``per_unit_mean``). Slots listed
    in ``plan_errors`` failed assembly (only possible when
    ``isolate=True``) and hold zeros in every array.
    """

    variants: tuple[Variant, ...]
    mpls: tuple[int, ...]
    mean: np.ndarray
    variance: np.ndarray
    std: np.ndarray
    exact_part: np.ndarray
    bounded_part: np.ndarray
    unit_part: np.ndarray
    per_unit_mean: np.ndarray
    plan_errors: dict[int, BaseException] = field(default_factory=dict)


def assemble_batch(
    batch_plan: BatchPlan,
    concurrent: ConcurrentPredictor,
    variants: Sequence[Variant],
    mpls: Sequence[int],
    *,
    isolate: bool = False,
) -> BatchAssembly:
    """Variance assembly for the whole batch as shared array ops.

    With ``isolate=True`` a plan whose assembler fails is recorded in
    ``plan_errors`` instead of aborting the batch (the SoA counterpart
    of ``skip_failures``); its rows stay zero.
    """
    variants = tuple(variants)
    mpls = tuple(mpls)
    plans = len(batch_plan)
    options = [VARIANT_OPTIONS[variant] for variant in variants]

    # Stage A: each distinct plan's cached unit-space moments — E[g_c]
    # and the two covariance parts — per variant, stacked into
    # (P, V, ...) arrays. unit_moments caches them per selectivity
    # class, so All and NoVar[c] read one pair.
    moments = []
    plan_errors: dict[int, BaseException] = {}
    for slot in range(plans):
        try:
            assembler = batch_plan.prepared[slot].assembler(batch_plan.planned[slot])
            moments.append([assembler.unit_moments(option) for option in options])
        except Exception as error:  # noqa: BLE001 — per-plan isolation
            if not isolate:
                raise
            plan_errors[slot] = error
            moments.append([_NO_MOMENTS] * len(options))

    shape = (plans, len(variants), len(mpls))
    if not plans:
        return BatchAssembly(
            variants, mpls, *(np.zeros(shape) for _ in range(6)),
            np.zeros(shape + (_UNITS,)),
        )

    # Stage B: every mpl's loaded unit distributions, (L, U) and
    # (V, L, U), folded over the (P, V, 1, ...) moments in one call.
    # The units are built with the scalar path's expressions, and a
    # variant without unit variance gets exact zeros, as it does there.
    g_mean = np.array([[pair[0] for pair in row] for row in moments])[:, :, None]
    covariances = np.array([[pair[1] for pair in row] for row in moments])[:, :, None]
    loaded = [concurrent.predictor_at(mpl).units for mpl in mpls]
    mu = np.array([[units.mean(name) for name in COST_UNIT_NAMES] for units in loaded])
    sigma2 = np.array([
        [
            [units.variance(name) if option.include_cost_unit_variance else 0.0
             for name in COST_UNIT_NAMES]
            for units in loaded
        ]
        for option in options
    ])
    mean, variance, exact_part, bounded_part, unit_part, per_unit_mean = (
        fold_unit_moments(mu, sigma2, g_mean, covariances)
    )
    return BatchAssembly(
        variants=variants,
        mpls=mpls,
        mean=mean,
        variance=variance,
        std=np.sqrt(variance),
        exact_part=exact_part,
        bounded_part=bounded_part,
        unit_part=unit_part,
        per_unit_mean=per_unit_mean,
        plan_errors=plan_errors,
    )


def batch_intervals(
    assembly: BatchAssembly, confidences: Sequence[float]
) -> np.ndarray:
    """Clamped central intervals for every (plan, variant, mpl, confidence).

    Returns a ``(P, V, L, C, 2)`` array of (low, high) bounds,
    replicating ``NormalDistribution.interval`` +
    ``PredictionResult.confidence_interval`` bit for bit: the quantile
    association ``mean + ((std * sqrt(2)) * erfinv(...))``, the
    variance-0 point-mass branch, and the nonnegative clamp on both
    bounds, all in one broadcast over the trailing ``(C, 2)`` axes.
    """
    confidences = tuple(confidences)
    for confidence in confidences:
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    # The (confidence, side) erfinv coefficients, hoisted out of the
    # array pass: the scalar quantile path's own expressions, ``2 * p -
    # 1`` for ``p = tail`` and ``p = 1.0 - tail``, in python floats.
    tails = [(1.0 - confidence) / 2.0 for confidence in confidences]
    coefficients = np.array(
        [[erfinv(2 * tail - 1), erfinv(2 * (1.0 - tail) - 1)] for tail in tails]
    ).reshape(len(tails), 2)
    mean = assembly.mean[..., None, None]
    quantile = mean + (assembly.std * _SQRT2)[..., None, None] * coefficients
    point_mass = (assembly.variance == 0.0)[..., None, None]
    bound = np.where(point_mass, mean, quantile)
    return np.where(bound < 0.0, 0.0, bound)
