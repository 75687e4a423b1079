"""Structural JSON fuzzing of the wire decoder.

Every top-level record type is decoded from seeded mutations of a valid
record: a key dropped, a value swapped for every other JSON type (and
for ``1e999``, ``NaN``, ``Infinity`` and an oversized integer), a list
put where an object goes, unknown keys added. Whatever the input, a
decode returns a record or raises :class:`~repro.errors.WireError` — the
400 the HTTP layer answers with — and never another exception, which
the serving stack would answer as a 500.
"""

import copy
import json

import numpy as np
import pytest

from repro.api.wire import (
    _TABLES,
    AdmissionStats,
    BatchRequest,
    BatchResponse,
    FeedbackApplied,
    IntervalPayload,
    Observation,
    ObserveResponse,
    PredictRequest,
    PredictResponse,
    ResultPayload,
    SchedulerStats,
    StatsSnapshot,
    decode,
    encode,
)
from repro.caching import CacheStats
from repro.errors import WireError
from repro.feedback import FeedbackStats, TenantFeedback
from repro.service import QueryFailure, ServiceReport, ServiceStats

SEED = 20140901
#: A tier-1 budget: the cases decode in well under two seconds.
CASES = 2000
#: Replacement values: every JSON type, plus the numbers JSON parsers
#: turn into non-finite or oversized Python values, and numbers spelled
#: as strings.
SWAPS = (
    None, True, False, 0, -3, 2.5, 10**400, float("inf"), float("-inf"),
    float("nan"), "", "x", "0.9", "Infinity", "nan", [], [1, "a"], {},
    {"k": None},
)
#: What a float field must refuse: booleans, numbers spelled as
#: strings, and non-finite numbers.
NOT_FLOATS = (True, False, "0.9", "2", "Infinity", "nan", float("inf"), float("nan"))


def _response(sql, feedback=None):
    interval = IntervalPayload(0.9, 1.25, 3.5)
    return PredictResponse(
        sql=sql,
        results=(
            ResultPayload("all", 1, 2.0, 0.25, 0.5, (interval,)),
            ResultPayload("nocov", 4, 3.0, 0.0, 0.0, (interval, interval)),
        ),
        prepare_was_cached=True,
        feedback=feedback,
    )


def _valid_records():
    """``(decoder, wire dict)`` for one valid record of every top-level type."""
    feedback = FeedbackApplied("t", 30, ((0.5, 1.2), (0.9, None)))
    report = ServiceReport(
        ServiceStats(3, 1, 3, 2, 1, 12), CacheStats(1, 2, 0, 1), 2,
        CacheStats(40, 8, 3), 12, 4096, 1 << 20,
    )
    snapshot = StatsSnapshot(
        report,
        AdmissionStats(8, 1, 10, 2),
        FeedbackStats(25, 1, (
            TenantFeedback("t", 25, 25, True, 1, 12, 1.75),
            TenantFeedback("u", 0, 0, False, 0, None, None),
        )),
        SchedulerStats("edf-slack", 3, 1.25, 17, 2),
    )
    records = [
        (PredictRequest, PredictRequest(
            "SELECT 1", ("all", "nocov"), (1, 4), (0.5, 0.9), "t", 250, 1,
        )),
        (BatchRequest, BatchRequest(
            ("SELECT 1", "SELECT 2"), ("all",), (2,), (0.99,), False, "t", 9, 0,
        )),
        (PredictResponse, _response("SELECT 1", feedback)),
        (BatchResponse, BatchResponse(
            (_response("SELECT 1", feedback), _response("SELECT 2")),
            (QueryFailure(2, "SELEC", "parse", "sql-parse"),
             QueryFailure(3, None, "boom")),
            0.125, ServiceStats(2, 2, 2, 2, 0, 4),
        )),
        (Observation, Observation("SELECT 1", 2.5, "t", 2.0, 0.5, "nocov", 4)),
        (ObserveResponse, ObserveResponse("t", 21, 21, True, False, 0, 1.25)),
        (StatsSnapshot, snapshot),
    ]
    seeds = [(cls.from_dict, record.to_dict(2)) for cls, record in records]
    seeds += [
        (cls.from_dict, record.to_dict(1))
        for cls, record in records[2:]
        if cls not in (Observation, ObserveResponse)
    ]
    seeds += [
        (PredictRequest.from_dict, PredictRequest("SELECT 1", mpls=(2,)).to_dict(1)),
        (BatchRequest.from_dict, BatchRequest(("SELECT 1",)).to_dict(1)),
        (lambda record: decode(ServiceReport, record), encode(report)),
    ]
    return seeds


def _swap(rng):
    return copy.deepcopy(SWAPS[rng.integers(len(SWAPS))])


def _slots(value):
    """Every (container, key) path into a JSON value, depth first."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield value, key
            yield from _slots(item)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield value, index
            yield from _slots(item)


def _mutate(record, rng):
    """Apply 1-3 structural mutations in place; returns the (new) root."""
    for _ in range(int(rng.integers(1, 4))):
        slots = list(_slots(record))
        if not slots or rng.random() < 0.05:
            return [record] if rng.random() < 0.5 else _swap(rng)
        container, key = slots[rng.integers(len(slots))]
        action = rng.integers(4)
        if action == 0 and isinstance(container, dict):
            del container[key]
        elif action == 1:
            container[key] = _swap(rng)
        elif action == 2:
            # a list where an object goes (or an object where a list goes)
            old = container[key]
            container[key] = [old] if isinstance(old, dict) else {"0": old}
        elif isinstance(container, dict):
            container[f"unknown_{rng.integers(100)}"] = _swap(rng)
        else:
            container.append(_swap(rng))
    return record


def test_decoders_return_or_raise_wire_error():
    rng = np.random.default_rng(SEED)
    seeds = _valid_records()
    outcomes = {"decoded": 0, "refused": 0}
    for case in range(CASES):
        decoder, valid = seeds[case % len(seeds)]
        record = _mutate(json.loads(json.dumps(valid)), rng)
        try:
            decoder(record)
        except WireError:
            outcomes["refused"] += 1
        except Exception as error:  # noqa: BLE001 — the property under test
            pytest.fail(
                f"case {case}: {type(error).__name__}: {error} decoding "
                f"{json.dumps(record, default=repr)[:400]}"
            )
        else:
            outcomes["decoded"] += 1
    # The mutations reach both outcomes.
    assert outcomes["decoded"] > CASES // 10 and outcomes["refused"] > CASES // 4


def _float_slots(value):
    """Every (container, key) path of a float a record's decoder reads."""
    derived = {
        field.key for table in _TABLES.values() for field in table.fields
        if field.derived
    }
    return [
        (container, key) for container, key in _slots(value)
        if container[key].__class__ is float and key not in derived
    ]


def test_every_float_field_refuses_non_numbers():
    """Each float a valid seed carries, swapped for a boolean, a number
    spelled as a string or a non-finite number, is refused."""
    checked = 0
    for decoder, valid in _valid_records():
        for index in range(len(_float_slots(valid))):
            for swap in NOT_FLOATS:
                record = json.loads(json.dumps(valid))
                container, key = _float_slots(record)[index]
                container[key] = swap
                with pytest.raises(WireError):
                    decoder(record)
                checked += 1
    assert checked > 100


def test_valid_seeds_decode_to_the_records_they_encode():
    for decoder, valid in _valid_records():
        decoded = decoder(json.loads(json.dumps(valid)))
        assert encode(decoded, valid["schema_version"]) == valid
