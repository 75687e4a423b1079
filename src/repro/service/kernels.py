"""Cross-query SoA prediction kernels: the one Algorithm-3 serving path.

These kernels serve every prediction: a batch through
:meth:`~repro.service.PredictionService.predict_batch_columns`, and a
single query as a batch of one. Serving one query on its own — the
scalar loop kept as ``predict_query_oracle`` in
``tests/batch_oracle.py`` — fans variants x mpls through
:meth:`~repro.core.variance.VectorizedAssembler.assemble`, every call
redoing the monomial-to-unit-space kernel contraction (two MxM matrix
products) and paying python call overhead per (variant, mpl)
combination, then one scalar quantile per interval bound. The kernels
instead run as structure-of-arrays:

1. :func:`build_batch_plan` interns every query's plan signature and
   dedups duplicate plans into one slot per distinct plan;
2. :func:`assemble_batch` evaluates Algorithm-3 variance assembly for
   every (plan, variant, mpl) combination over shared ``(P, V, L)``
   arrays, pulling each plan's cached unit-space moments
   (:meth:`~repro.core.variance.VectorizedAssembler.unit_moments`) once
   per *selectivity-option class* — variants differing only in
   ``include_cost_unit_variance`` share bit-identical moments — instead
   of re-contracting per (variant, mpl);
3. :func:`batch_intervals` evaluates every confidence-interval bound
   for the whole batch in one broadcast.

**The bitwise contract.** Every number this module produces is
bit-identical to what the scalar per-query loop
(:meth:`~repro.core.variance.VectorizedAssembler.assemble` +
:meth:`~repro.mathstats.normal.NormalDistribution.interval` +
:meth:`~repro.core.predictor.PredictionResult.confidence_interval`)
produces for the same inputs — ``tests/test_kernels.py`` enforces this
differentially over hundreds of randomized batches, against
``predict_query_oracle``. That constraint shapes the implementation:

* Row-wise reductions use formulations verified bit-identical to their
  scalar counterparts on this stack: ``(W[None] * C).reshape(P, U*U)
  .sum(axis=1)`` matches per-plan ``(W * C).sum()`` because numpy's
  pairwise summation order over a C-contiguous (U, U) block is the same
  either way; elementwise broadcasting, ``np.sqrt``, and
  ``np.where``-based clamps match their scalar ``math`` equivalents
  exactly.
* The two length-U unit-space contractions (``mu @ g`` and
  ``sigma2 @ (g * g)``) stay per-plan ``np.dot`` calls inside a small
  python loop: BLAS ddot accumulates with FMA, and no pure-numpy
  batched formulation (matmul, einsum, elementwise+sum under any
  association order) reproduces its bits — only the same op on the
  same operands does. See docs/service.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import erfinv

from ..core.concurrency import ConcurrentPredictor
from ..core.predictor import VARIANT_OPTIONS, PreparedPrediction, Variant
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
    num_variants = len(variants)
    num_mpls = len(mpls)
    num_units = len(COST_UNIT_NAMES)

    # The unit-space moments depend only on the selectivity flags of
    # VarianceOptions — include_selectivity_variance routes variances
    # into the monomial distributions, include_cross_covariances routes
    # nested-operator pairs to the Section 5.3.2 bounds — while
    # include_cost_unit_variance first appears in the sigma2 weighting
    # below. Variants sharing a (selectivity, covariance) class (All and
    # NoVar[c]) therefore produce bit-identical moments from the same
    # expressions on the same inputs, so gather and contract once per
    # class and fan the columns out to every variant in the class.
    class_index: dict[tuple[bool, bool], int] = {}
    class_of: list[int] = []
    class_options: list[VarianceOptions] = []
    for variant in variants:
        options = VARIANT_OPTIONS[variant]
        key = (
            options.include_selectivity_variance,
            options.include_cross_covariances,
        )
        index = class_index.get(key)
        if index is None:
            index = len(class_options)
            class_index[key] = index
            class_options.append(options)
        class_of.append(index)
    num_classes = len(class_options)

    # Stage A: gather each distinct plan's cached unit-space moments —
    # E[g_c] and the two covariance contractions — into (P, C, ...)
    # arrays. Slice assignment copies float64 values bit-exactly.
    g_mean = np.zeros((plans, num_classes, num_units))
    exact_cov = np.zeros((plans, num_classes, num_units, num_units))
    bound_cov = np.zeros((plans, num_classes, num_units, num_units))
    plan_errors: dict[int, BaseException] = {}
    for slot in range(plans):
        try:
            assembler = batch_plan.prepared[slot].assembler(batch_plan.planned[slot])
            for ci, options in enumerate(class_options):
                moments = assembler.unit_moments(options)
                g_mean[slot, ci] = moments[0]
                exact_cov[slot, ci] = moments[1]
                bound_cov[slot, ci] = moments[2]
        except Exception as error:  # noqa: BLE001 — per-plan isolation
            if not isolate:
                raise
            plan_errors[slot] = error
    moments_finite = bool(np.isfinite(g_mean).all())

    # Stage B: fold every mpl's loaded unit distributions over the
    # stacked moments.
    shape = (plans, num_variants, num_mpls)
    mean = np.zeros(shape)
    exact_part = np.zeros(shape)
    bounded_part = np.zeros(shape)
    unit_part = np.zeros(shape)
    per_unit_mean = np.zeros(shape + (num_units,))
    zeros_u = np.zeros(num_units)
    flat = num_units * num_units
    for li, mpl in enumerate(mpls) if plans else ():
        units = concurrent.predictor_at(mpl).units
        # Verbatim scalar expressions (VectorizedAssembler.assemble):
        # identical construction yields bit-identical mu / sigma2.
        mu = np.array([units.mean(name) for name in COST_UNIT_NAMES])
        sigma2_full = np.array(
            [units.variance(name) for name in COST_UNIT_NAMES]
        )
        # The two unit-space contractions must stay per-plan np.dot
        # calls: BLAS ddot accumulates with FMA and no batched
        # formulation reproduces its bits — only the same op on the
        # same operands does (module docstring). They depend only on
        # the moment class, so run them once per class, not per
        # variant; the unit contraction uses the full sigma2 (the
        # zero-sigma2 regime is handled below).
        class_mean = np.zeros((plans, num_classes))
        class_unit = np.zeros((plans, num_classes))
        for ci in range(num_classes):
            gv = g_mean[:, ci, :]
            mean_col = class_mean[:, ci]
            unit_col = class_unit[:, ci]
            for slot in range(plans):
                row = gv[slot]
                mean_col[slot] = mu @ row
                unit_col[slot] = sigma2_full @ (row * row)
        # Two sigma2 regimes exist across the four variants (unit
        # variance on or off); the weights matrix depends only on the
        # regime, so build each at most once per mpl. The expression is
        # verbatim the scalar one — reuse is bit-exact.
        weights_by_regime: dict[bool, np.ndarray] = {}
        for vi, variant in enumerate(variants):
            options = VARIANT_OPTIONS[variant]
            include = options.include_cost_unit_variance
            ci = class_of[vi]
            weights = weights_by_regime.get(include)
            if weights is None:
                sigma2 = sigma2_full if include else zeros_u
                weights = np.outer(mu, mu) + np.diag(sigma2)
                weights_by_regime[include] = weights
            gv = g_mean[:, ci, :]
            mean[:, vi, li] = class_mean[:, ci]
            if include:
                unit_part[:, vi, li] = class_unit[:, ci]
            elif not moments_finite:
                # ddot(zeros, g * g) is exactly +0.0 for finite g — the
                # zero-initialized rows already match the scalar loop.
                # A non-finite g would make the scalar contraction NaN,
                # so only then compute it explicitly.
                unit_col = unit_part[:, vi, li]
                for slot in range(plans):
                    row = gv[slot]
                    unit_col[slot] = zeros_u @ (row * row)
            exact_part[:, vi, li] = (
                (weights[None, :, :] * exact_cov[:, ci])
                .reshape(plans, flat)
                .sum(axis=1)
            )
            bounded_part[:, vi, li] = (
                (weights[None, :, :] * bound_cov[:, ci])
                .reshape(plans, flat)
                .sum(axis=1)
            )
            per_unit_mean[:, vi, li, :] = mu[None, :] * gv

    # max(x, 0.0) in array form: np.where matches python max for
    # -0.0 and NaN operands, np.maximum would not.
    raw_variance = (exact_part + bounded_part) + unit_part
    variance = np.where(raw_variance < 0.0, 0.0, raw_variance)
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
    # array pass. The expressions are verbatim the scalar quantile
    # path's ``2 * p - 1`` for ``p = tail`` and ``p = 1.0 - tail``,
    # elementwise, so every coefficient has the scalar path's bits.
    tails = (1.0 - np.array(confidences, dtype=np.float64)) / 2.0
    coefficients = erfinv(np.stack([2 * tails - 1, 2 * (1.0 - tails) - 1], axis=-1))
    mean = assembly.mean[..., None, None]
    quantile = mean + (assembly.std * _SQRT2)[..., None, None] * coefficients
    point_mass = (assembly.variance == 0.0)[..., None, None]
    bound = np.where(point_mass, mean, quantile)
    return np.where(bound < 0.0, 0.0, bound)
