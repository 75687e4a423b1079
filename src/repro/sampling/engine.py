"""The shared sub-plan sampling engine.

Algorithm 1 — the sample join pipeline — is the dominant cost of a
prediction, and much of it is repeated verbatim: the LEC chooser's five
candidate configurations mostly differ *above* the leaves (scans and
lower joins are shared), and batch queries instantiated from the same
template share whole join subtrees. :class:`SamplingEngine` memoizes
per-subplan results — the sample intermediate, the derived
:class:`~repro.sampling.estimator.NodeSelectivity`, and the sample-run
resource counts — keyed by

* the **sample-set fingerprint**
  (:meth:`~repro.sampling.sample_db.SampleDatabase.fingerprint`), so one
  engine can safely serve several sample databases, and
* the **canonical sub-plan signature**
  (:mod:`repro.sampling.signature`), invariant to op ids, join input
  order, join algorithm, and scan access path — the degrees of freedom
  that vary across LEC candidates without changing the sample-space
  computation.

Entries live in a byte-budgeted LRU. A sample intermediate carries only
its provenance (alias -> sample positions), so an entry is small: those
position arrays, its signature, its selectivity and counts (see
:func:`_entry_nbytes`). A hit returns the stored intermediate for reuse
by parent operators and a re-keyed copy of the stored selectivity; both
are bitwise identical to what a cold pass would compute, which the
benchmark and tests assert.

An *empty* sub-plan result is stored too, without a selectivity: its
intermediate and run counts depend only on the subtree, but its
selectivity is the optimizer fallback, which reads the consuming plan's
estimates, so the estimator recomputes it on every hit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..caching import ByteBudgetLRU, CacheStats
from ..optimizer.cost_model import ResourceCounts

if TYPE_CHECKING:  # import cycle: estimator consults the engine
    from .estimator import NodeSelectivity, _SampleIntermediate

__all__ = ["DEFAULT_ENGINE_BUDGET_BYTES", "SamplingEngine", "SubPlanEntry"]

#: Default byte budget for memoized sample intermediates (128 MiB).
DEFAULT_ENGINE_BUDGET_BYTES = 128 * 1024 * 1024

# What an entry costs beyond its position arrays and signature text,
# measured with tracemalloc on CPython 3.11 / numpy 2: engines filled
# from 300 seeded TPC-H queries (~900 entries) were emptied one entry
# at a time, and a least-squares fit of the bytes each pop freed gave
# ~650 B per entry, ~125 B per alias and ~650 B per stored selectivity;
# a ``clear()`` freed ~240 B per entry more (the LRU's hash table).
#: key tuple, LRU slot and table share, entry, intermediate, counts
_ENTRY_BYTES = 900
#: a provenance array's header and its dict slot
_ALIAS_BYTES = 125
#: a stored :class:`NodeSelectivity` with its per-alias dicts
_SELECTIVITY_BYTES = 650


def _entry_nbytes(
    signature: str,
    intermediate: "_SampleIntermediate",
    selectivity: "NodeSelectivity | None",
) -> int:
    """Budgeted size of one entry: what ``clear()`` would free for it."""
    total = _ENTRY_BYTES + len(signature)
    if selectivity is not None:
        total += _SELECTIVITY_BYTES
    for positions in intermediate.provenance.values():
        total += _ALIAS_BYTES + positions.nbytes
    return total


@dataclass
class SubPlanEntry:
    """One memoized sub-plan result.

    Everything in here is shared between cache and consumers and must be
    treated as immutable: the estimator re-keys ``selectivity`` with
    :func:`dataclasses.replace` instead of mutating it, and operators
    only read from the intermediate's arrays. ``selectivity`` is None
    for an empty intermediate, whose selectivity each consuming plan
    recomputes.
    """

    intermediate: "_SampleIntermediate"
    selectivity: "NodeSelectivity | None"
    counts: ResourceCounts

    def rekeyed_selectivity(self, op_id: int) -> "NodeSelectivity":
        """The stored selectivity under the consuming plan's op id."""
        return replace(self.selectivity, op_id=op_id)


class SamplingEngine:
    """Memoizes Algorithm-1 sub-plan results across plans and queries."""

    def __init__(self, max_bytes: int = DEFAULT_ENGINE_BUDGET_BYTES):
        self._cache = ByteBudgetLRU(max_bytes)

    # -- cache protocol ----------------------------------------------------
    def lookup(self, fingerprint: tuple, signature: str) -> SubPlanEntry | None:
        return self._cache.get((fingerprint, signature))

    def store(
        self,
        fingerprint: tuple,
        signature: str,
        intermediate: "_SampleIntermediate",
        selectivity: "NodeSelectivity | None",
        counts: ResourceCounts,
    ) -> None:
        entry = SubPlanEntry(
            intermediate=intermediate, selectivity=selectivity, counts=counts
        )
        self._cache.put(
            (fingerprint, signature),
            entry,
            _entry_nbytes(signature, intermediate, selectivity),
        )

    # -- introspection -----------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def snapshot(self) -> tuple[CacheStats, int, int]:
        """Atomic ``(stats copy, entries, bytes used)`` for reporting.

        Delegates to :meth:`repro.caching.ByteBudgetLRU.snapshot`, so a
        monitoring thread reading concurrently with sampling traffic
        never observes a torn :class:`CacheStats`.
        """
        return self._cache.snapshot()

    @property
    def bytes_used(self) -> int:
        return self._cache.bytes_used

    @property
    def max_bytes(self) -> int:
        return self._cache.max_bytes

    def __len__(self) -> int:
        return len(self._cache)

    def __bool__(self) -> bool:
        # An *empty* engine must not read as "no engine" in `if engine:`
        # checks; truthiness follows identity, not fill level.
        return True

    def clear(self) -> None:
        self._cache.clear()

    def describe(self) -> str:
        return (
            f"{len(self)} sub-plans, "
            f"{self.bytes_used / 1024:.0f} KiB / {self.max_bytes / 1024:.0f} KiB, "
            f"hit rate {self.stats.describe()}"
        )
