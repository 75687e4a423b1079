"""Small shared helpers: RNG plumbing, vectorized index utilities, and
the process's one garbage-collector freeze."""

from __future__ import annotations

import gc
import threading

import numpy as np

__all__ = [
    "ensure_rng",
    "expand_ranges",
    "freeze_startup_heap",
    "join_indices",
    "group_ids",
]

_freeze_lock = threading.Lock()
#: Set once this process has frozen its heap; a forked child inherits it.
_startup_heap_frozen = False


def freeze_startup_heap() -> None:
    """Collect, then freeze every gc-tracked object, once per process.

    A full (generation-2) collection walks every tracked object, and
    most of a serving process's objects are modules, a database and a
    calibration built at start-up that live until exit. ``gc.freeze()``
    moves them to the permanent generation, so later collections walk
    only what was allocated after. Reference counting still frees a
    frozen object; only a cycle among frozen objects is never
    reclaimed, which is why this runs at most once per process and
    collects first (so start-up garbage is not frozen with the rest).
    The first :class:`~repro.api.session.Session` of a process calls
    it, and :meth:`~repro.serving.WorkerPool.start` calls it before
    forking, so workers inherit a frozen heap and the flag with it.
    """
    global _startup_heap_frozen
    if _startup_heap_frozen:
        return
    with _freeze_lock:
        if not _startup_heap_frozen:
            gc.collect()
            gc.freeze()
            _startup_heap_frozen = True


def ensure_rng(seed_or_rng) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed, rng, or None."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Expand per-row ranges ``[starts[i], starts[i] + counts[i])`` into one
    flat index array.

    This is the core trick used by the vectorized join kernel: given, for
    each probe row, the start offset and length of its matching run in a
    sorted build side, produce all matching build positions without a
    Python-level loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # For each output slot, the index of the source row it belongs to.
    row_of = np.repeat(np.arange(len(counts)), counts)
    # Offset of each output slot within its row's run.
    first_slot = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - first_slot[row_of]
    return starts[row_of] + within


def join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return index arrays ``(li, ri)`` of all equijoin matches.

    ``left_keys[li[t]] == right_keys[ri[t]]`` for every output position
    ``t``. The kernel sorts the right side once and binary-searches each
    left key, then expands match runs vectorially — an order-preserving,
    allocation-light equivalent of a hash join probe.
    """
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    if len(left_keys) == 0 or len(right_keys) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    lo = np.searchsorted(sorted_right, left_keys, side="left")
    hi = np.searchsorted(sorted_right, left_keys, side="right")
    counts = hi - lo
    li = np.repeat(np.arange(len(left_keys), dtype=np.int64), counts)
    ri = order[expand_ranges(lo, counts)]
    return li, ri


def group_ids(*key_columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factorize one or more key columns into dense group ids.

    Returns ``(ids, uniques_index)`` where ``ids[i]`` is the group id of
    row ``i`` and ``uniques_index`` holds one representative row index per
    group (in group-id order).
    """
    if not key_columns:
        raise ValueError("group_ids requires at least one key column")
    n = len(key_columns[0])
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.lexsort(tuple(reversed(key_columns)))
    boundary = np.zeros(n, dtype=bool)
    boundary[0] = True
    for col in key_columns:
        sorted_col = col[order]
        boundary[1:] |= sorted_col[1:] != sorted_col[:-1]
    ids_sorted = np.cumsum(boundary) - 1
    ids = np.empty(n, dtype=np.int64)
    ids[order] = ids_sorted
    representatives = order[boundary]
    return ids, representatives
