"""Rendering served predictions: the interval rule and the two answer forms.

One served batch is a :class:`~repro.service.BatchColumns` — the SoA
kernels' arrays plus the query-to-plan-slot map — and one feedback
snapshot, resolved into a :class:`ServedLevels`. This module turns that
pair into either answer a session gives:

* :func:`batch_response` — the typed
  :class:`~repro.api.wire.BatchResponse` for in-process callers; a
  single ``Session.predict`` is a batch of one rendered here, and
  answers its one response;
* :func:`batch_json` — the wire JSON text ``/v1/predict-batch`` writes,
  built straight from ``tolist()`` rows. It is byte-identical to
  ``dumps(batch_response(...).to_dict(version))`` (pinned by
  ``tests/test_batch_render.py``) without building a per-cell object
  or dict.

:meth:`ServedLevels.bounds` is the one place the per-level interval
rule lives, and both renderings call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from ..errors import WireError
from ..feedback import FeedbackRecalibrator
from ..mathstats.normal import erfinv
from ..service.service import BatchColumns
from .wire import (
    SCHEMA_VERSION,
    BatchResponse,
    FeedbackApplied,
    IntervalPayload,
    PredictResponse,
    ResultPayload,
    _finite,
    check_emit_version,
    dumps,
    encode,
)

__all__ = [
    "ServedLevels",
    "batch_json",
    "batch_response",
    "nested_levels",
    "static_scale",
]


def static_scale(confidence: float) -> float:
    """The static profile's scale: the normal quantile ``sqrt(2)·erfinv(c)``."""
    return math.sqrt(2) * erfinv(confidence)


def nested_levels(
    confidences: Sequence[float], scales: Sequence[float | None]
) -> list[tuple[float, float | None]]:
    """The served ``(scale, static_confidence)`` of each requested level.

    Walked in ascending confidence, each level is served the larger of
    its own scale — the conformal ``scales[i]``, else
    :func:`static_scale` — and the scale served to the level below, so
    a wider confidence never gets a narrower interval. On a tie the
    level below's recipe is reused, so equal scales give equal bits.
    ``static_confidence`` is the confidence whose static interval
    (``result.confidence_interval``) is served bit for bit, or None
    when the interval is ``mean ± scale·std``. With a conformal window's
    scales it is always the level's own confidence: a window that
    certifies a confidence certifies every lower one, and its quantiles
    rise with the confidence, so a static level never sits below a
    conformal one it could lift.
    """
    levels: list = [None] * len(confidences)
    below = None
    for index in sorted(range(len(confidences)), key=confidences.__getitem__):
        own = scales[index]
        if own is None:
            level = (static_scale(confidences[index]), confidences[index])
        else:
            level = (own, None)
        if below is not None and not level[0] > below[0]:
            level = below
        levels[index] = below = level
    return levels


@dataclass(frozen=True)
class ServedLevels:
    """How one feedback snapshot serves each requested confidence level.

    ``recipes`` is None while the tenant's window is inactive: every
    level serves its static interval, bitwise the pre-feedback stack.
    Otherwise it holds one ``(scale, static_index)`` per level, from
    :func:`nested_levels`: ``static_index`` is the requested level
    whose static interval is served bit for bit, or None for
    ``mean ± scale·std``. ``feedback`` is the v2 annotation those
    recipes carry; None marks a level kept on its static interval.
    """

    confidences: tuple[float, ...]
    recipes: tuple[tuple[float, int | None], ...] | None = None
    feedback: FeedbackApplied | None = None

    @classmethod
    def snapshot(
        cls,
        recalibrator: FeedbackRecalibrator,
        tenant: str,
        confidences: tuple[float, ...],
    ) -> "ServedLevels":
        """Read ``tenant``'s calibration state once, for a whole answer."""
        confidences = tuple(confidences)
        correction = recalibrator.scales_for(tenant, confidences)
        if correction is None or all(scale is None for scale in correction[1]):
            return cls(confidences)
        levels = nested_levels(confidences, correction[1])
        return cls(
            confidences,
            recipes=tuple(
                (scale, None if static is None else confidences.index(static))
                for scale, static in levels
            ),
            feedback=FeedbackApplied(
                tenant=tenant,
                observations=correction[0],
                scales=tuple(
                    (confidence, None if static is not None else scale)
                    for confidence, (scale, static) in zip(confidences, levels)
                ),
            ),
        )

    def bounds(
        self, mean: np.ndarray, std: np.ndarray, static: np.ndarray
    ) -> np.ndarray:
        """The served ``(low, high)`` of every level, as ``shape + (levels, 2)``.

        ``mean`` and ``std`` share one shape; ``static`` adds the
        clamped static interval of each requested level. A scaled level
        keeps the static path's clamping contract — predicted times are
        nonnegative — as ``np.where(x < 0.0, 0.0, x)``, which is
        python's ``max(x, 0.0)`` elementwise, ``-0.0`` and NaN included.
        """
        if self.recipes is None:
            return static
        served = np.empty_like(static)
        for level, (scale, static_index) in enumerate(self.recipes):
            if static_index is not None:
                served[..., level, :] = static[..., static_index, :]
                continue
            low = mean - scale * std
            high = mean + scale * std
            served[..., level, 0] = np.where(low < 0.0, 0.0, low)
            served[..., level, 1] = np.where(high < 0.0, 0.0, high)
        return served


def batch_response(columns: BatchColumns, levels: ServedLevels) -> BatchResponse:
    """The typed answer: one :class:`PredictResponse` per served query.

    Each distinct plan's result payloads are built once; duplicate
    queries share the (frozen) payload tuple.
    """
    assembly = columns.assembly
    confidences = levels.confidences
    names = [variant.wire_name for variant in assembly.variants]
    # [slot][mpl][variant] lists: payload order is mpl outer, variant
    # inner.
    mean_list = assembly.mean.transpose(0, 2, 1).tolist()
    variance_list = assembly.variance.transpose(0, 2, 1).tolist()
    std_list = assembly.std.transpose(0, 2, 1).tolist()
    bounds_list = (
        levels.bounds(assembly.mean, assembly.std, columns.intervals)
        .transpose(0, 2, 1, 3, 4)
        .tolist()
    )
    by_slot: dict[int, tuple[ResultPayload, ...]] = {}
    responses = []
    for query in columns.served:
        slot = query.slot
        payloads = by_slot.get(slot)
        if payloads is None:
            payloads = by_slot[slot] = tuple(
                ResultPayload(
                    variant=name,
                    mpl=mpl,
                    mean=mean_list[slot][li][vi],
                    variance=variance_list[slot][li][vi],
                    std=std_list[slot][li][vi],
                    intervals=tuple(
                        IntervalPayload(confidence, low, high)
                        for confidence, (low, high) in zip(
                            confidences, bounds_list[slot][li][vi]
                        )
                    ),
                )
                for li, mpl in enumerate(assembly.mpls)
                for vi, name in enumerate(names)
            )
        responses.append(
            PredictResponse(
                sql=query.sql,
                results=payloads,
                prepare_was_cached=query.prepare_was_cached,
                feedback=levels.feedback,
            )
        )
    return BatchResponse(
        responses=tuple(responses),
        failures=tuple(columns.failures),
        elapsed_seconds=columns.elapsed_seconds,
        stats=columns.stats,
    )


def _string(text: str | None) -> str:
    return "null" if text is None else encode_basestring_ascii(text)


def batch_json(
    columns: BatchColumns, levels: ServedLevels, version: int = SCHEMA_VERSION
) -> str:
    """The wire text of :func:`batch_response`, rendered from the arrays.

    Byte-identical to ``dumps(batch_response(columns, levels)
    .to_dict(version))``: keys in sorted order, the same separators,
    floats as python's exact ``repr`` and strings through the json
    module's own ASCII escaper. Every float of a plan slot lands in one
    ``%r`` template fill, and finiteness is checked once over the whole
    array, raising the same :class:`~repro.errors.WireError` code the
    typed path's ``to_dict`` does.
    """
    check_emit_version(version)
    assembly = columns.assembly
    confidences = levels.confidences
    plans, num_variants, num_mpls = assembly.mean.shape
    bounds = levels.bounds(assembly.mean, assembly.std, columns.intervals)
    # Per cell, the order the template below reads its floats in: each
    # level's high then low (sorted keys), then mean, std, variance.
    width = 2 * len(confidences) + 3
    cells = np.concatenate(
        [
            bounds[..., ::-1].reshape(
                plans, num_variants, num_mpls, 2 * len(confidences)
            ),
            assembly.mean[..., None],
            assembly.std[..., None],
            assembly.variance[..., None],
        ],
        axis=-1,
    )
    slots = sorted({query.slot for query in columns.served})
    rows = cells.transpose(0, 2, 1, 3).reshape(
        plans, num_mpls * num_variants * width
    )[slots]
    if not np.isfinite(rows).all():
        raise WireError(
            "batch response is not strict-JSON serializable: "
            "a mean, variance, std or interval bound is not finite"
        )

    intervals = "[%s]" % ", ".join(
        '{"confidence": %r, "high": %%r, "low": %%r}'
        % _finite(confidence, "confidence")
        for confidence in confidences
    )
    results = "[%s]" % ", ".join(
        '{"intervals": %s, "mean": %%r, "mpl": %d, "std": %%r, '
        '"variance": %%r, "variant": %s}'
        % (intervals, int(mpl), _string(variant.wire_name).replace("%", "%%"))
        for mpl in assembly.mpls
        for variant in assembly.variants
    )
    head = "{"
    if version >= 2 and levels.feedback is not None:
        head += '"feedback": %s, ' % dumps(encode(levels.feedback, version))
    tail = ', "schema_version": %d, "sql": ' % version
    # One results text per plan slot; duplicate queries reuse it.
    text_of = {
        slot: results % tuple(row) for slot, row in zip(slots, rows.tolist())
    }
    responses = [
        head
        + ('"prepare_was_cached": true, "results": '
           if query.prepare_was_cached
           else '"prepare_was_cached": false, "results": ')
        + text_of[query.slot]
        + tail
        + _string(query.sql)
        + "}"
        for query in columns.served
    ]
    return (
        '{"elapsed_seconds": %r, "failures": %s, "responses": [%s], '
        '"schema_version": %d, "stats": %s}'
        % (
            _finite(columns.elapsed_seconds, "elapsed_seconds"),
            dumps([encode(failure) for failure in columns.failures]),
            ", ".join(responses),
            version,
            dumps(encode(columns.stats)),
        )
    )
