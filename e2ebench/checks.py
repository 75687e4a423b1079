"""Output checks and prediction-quality metrics.

Every expected value is derived inside the run that checks it: a
response is compared bit for bit with the same request served again
in process, never with a committed digest. Fields that legitimately
differ between two serves of one request (``elapsed_seconds``,
``stats``, ``prepare_was_cached``) are never compared.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np

from repro.api.wire import (
    BatchResponse,
    ObserveResponse,
    PredictResponse,
    ResultPayload,
)
from repro.executor import Executor
from repro.hardware import PROFILES, HardwareSimulator
from repro.optimizer import Optimizer

#: Response fields that may differ between two serves of one request.
_UNCOMPARED = frozenset({"elapsed_seconds", "stats", "prepare_was_cached"})

#: Seeds the ground-truth simulator. It is fixed, not the run's seed, so
#: the quality metrics compare predictors rather than clock draws.
GROUND_TRUTH_SEED = 20140901


def first_difference(served, expected, path: str = "response") -> str | None:
    """Where ``served`` and ``expected`` first differ, or None.

    Floats compare by their IEEE-754 bits, so a flipped last bit, a
    signed zero or a NaN payload all count as differences.
    """
    if isinstance(expected, float) or isinstance(served, float):
        if not (isinstance(served, float) and isinstance(expected, float)):
            return f"{path}: {served!r} != {expected!r}"
        if struct.pack("<d", served) != struct.pack("<d", expected):
            return f"{path}: {served!r} != {expected!r} (bitwise)"
        return None
    if dataclasses.is_dataclass(expected) and not isinstance(expected, type):
        if type(served) is not type(expected):
            return f"{path}: {type(served).__name__} != {type(expected).__name__}"
        for field in dataclasses.fields(expected):
            if field.name in _UNCOMPARED:
                continue
            found = first_difference(
                getattr(served, field.name),
                getattr(expected, field.name),
                f"{path}.{field.name}",
            )
            if found:
                return found
        return None
    if isinstance(expected, (tuple, list)):
        if not isinstance(served, (tuple, list)) or len(served) != len(expected):
            return f"{path}: length {len(served)} != {len(expected)}"
        for index, (left, right) in enumerate(zip(served, expected)):
            found = first_difference(left, right, f"{path}[{index}]")
            if found:
                return found
        return None
    if served != expected:
        return f"{path}: {served!r} != {expected!r}"
    return None


def result_problem(result: ResultPayload, confidences) -> str | None:
    """Structural invariants of one served distribution, or None."""
    numbers = [result.mean, result.variance, result.std]
    for interval in result.intervals:
        numbers += [interval.low, interval.high]
    if not all(math.isfinite(value) for value in numbers):
        return "non-finite value"
    if not result.mean > 0:
        return f"mean {result.mean!r} is not positive"
    if result.variance < 0 or result.std < 0:
        return "negative variance or std"
    if tuple(interval.confidence for interval in result.intervals) != tuple(
        confidences
    ):
        return "intervals do not match the requested confidences"
    # Wider confidence, wider interval: each interval nests in the next
    # (the requested confidences are ascending).
    previous = None
    for interval in result.intervals:
        if not 0.0 <= interval.low <= interval.high:
            return f"interval {interval} is inverted or negative"
        if previous is not None and not (
            interval.low <= previous.low and previous.high <= interval.high
        ):
            return f"interval {interval} does not contain {previous}"
        previous = interval
    return None


def predict_problem(response: PredictResponse, fanout) -> str | None:
    """Structure of one predict response against its request fan-out."""
    cells = [(result.variant, result.mpl) for result in response.results]
    wanted = [(v, m) for m in fanout["mpls"] for v in fanout["variants"]]
    if sorted(cells) != sorted(wanted):
        return f"fan-out cells {cells} != requested {wanted}"
    for result in response.results:
        problem = result_problem(result, fanout["confidences"])
        if problem:
            return f"{result.variant}@{result.mpl}: {problem}"
    return None


def batch_problem(response: BatchResponse, request, fanout) -> str | None:
    """Structure of one batch response: every query answered, in order."""
    if response.failures:
        return f"{len(response.failures)} queries failed: {response.failures[0]}"
    if [item.sql for item in response.responses] != list(request.queries):
        return "responses do not answer the requested queries in order"
    for item in response.responses:
        problem = predict_problem(item, fanout)
        if problem:
            return problem
    return None


def observe_problem(response: ObserveResponse, tenant: str) -> str | None:
    """Structure of one observe acknowledgement."""
    if response.tenant != tenant or response.observations < 1:
        return f"ack {response} does not count an observation for {tenant}"
    if response.scale is not None and not (
        math.isfinite(response.scale) and response.scale > 0
    ):
        return f"scale {response.scale!r} is not a positive number"
    return None


def feedback_difference(
    served: PredictResponse, reference: PredictResponse
) -> str | None:
    """Compare a feedback-tenant response with a never-observing tenant's.

    The distributions must match bit for bit. Each interval must equal
    ``max(mean -/+ scale * std, 0)`` when the response carries a
    feedback scale for its confidence, and the reference tenant's
    (static) interval otherwise.
    """
    scales = dict(served.feedback.scales) if served.feedback else {}
    if len(served.results) != len(reference.results):
        return "result count differs from the reference tenant"
    for index, (mine, theirs) in enumerate(
        zip(served.results, reference.results)
    ):
        for name in ("variant", "mpl", "mean", "variance", "std"):
            found = first_difference(
                getattr(mine, name), getattr(theirs, name),
                f"results[{index}].{name}",
            )
            if found:
                return found
        for position, (interval, static) in enumerate(
            zip(mine.intervals, theirs.intervals, strict=True)
        ):
            scale = scales.get(interval.confidence)
            if scale is None:
                expected = static
            else:
                expected = dataclasses.replace(
                    static,
                    low=max(mine.mean - scale * mine.std, 0.0),
                    high=max(mine.mean + scale * mine.std, 0.0),
                )
            found = first_difference(
                interval, expected, f"results[{index}].intervals[{position}]"
            )
            if found:
                return found
    return None


def interval_point(response: PredictResponse) -> tuple[float, float, float, float]:
    """``(mean, std, low, high)`` of the ``all``@1 result's 90% interval."""
    for result in response.results:
        if result.variant == "all" and result.mpl == 1:
            interval = result.interval(0.9)
            return result.mean, result.std, interval.low, interval.high
    raise ValueError(f"no all@1 result for {response.sql!r}")


def actual_seconds(session, queries) -> list[float]:
    """Ground-truth runtimes: execute each plan, clock it on a simulator.

    Each query is planned afresh and run through
    :class:`~repro.executor.Executor` over the session's database for
    its true per-operator counts; five simulated executions on a
    dedicated, fixed-seed :class:`~repro.hardware.HardwareSimulator` of
    the session's machine are then averaged (the paper's measurement).
    """
    optimizer = Optimizer(session.database)
    executor = Executor(session.database)
    simulator = HardwareSimulator(
        PROFILES[session.config.machine], rng=GROUND_TRUTH_SEED
    )
    return [
        simulator.run_repeated(
            executor.execute(optimizer.plan_sql(sql)).counts
        )
        for sql in queries
    ]


def quality(points, actuals) -> tuple[float, float]:
    """``(error_rank_corr, coverage_gap_90)`` of served intervals.

    The Spearman correlation between the served std and the absolute
    error |actual - mean| (Table 4's question: does sigma track the
    error?), and |share of actuals inside the 90% interval - 0.90|.
    """
    from scipy.stats import spearmanr

    means, stds, lows, highs = (np.asarray(column) for column in zip(*points))
    truth = np.asarray(actuals)
    correlation = float(spearmanr(stds, np.abs(truth - means)).statistic)
    inside = float(np.mean((lows <= truth) & (truth <= highs)))
    return correlation, abs(inside - 0.90)
