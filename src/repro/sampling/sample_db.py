"""Sample tables: offline tuple-level samples with provenance identifiers.

Samples are taken offline and stored as materialized views (Section
3.2.2); :meth:`SampleDatabase.sample_column` materializes one column of
such a view on first read. Tuple-level partitioning makes each "block"
one tuple, so the estimator's cross-product of blocks reduces to a
cross-product of tuples, and the provenance identifier of a sample
tuple is simply its position in the sample table. Several independent
sample copies per relation support the Lemma-3 workaround (use a
different sample table for each appearance of a shared relation).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import SamplingError
from ..storage import Database
from ..storage.schema import PAGE_SIZE_BYTES
from ..util import ensure_rng

__all__ = ["SampleDatabase"]

#: Sample tables smaller than this are pointless for variance estimation
#: (the paper sets S_1^2 = 0; we simply refuse to go below 2 rows).
MIN_SAMPLE_ROWS = 2

_database_tokens = itertools.count()


def _database_token(database: Database) -> int:
    """A process-unique, never-recycled identity for a Database instance."""
    token = getattr(database, "_sample_fingerprint_token", None)
    if token is None:
        token = next(_database_tokens)
        database._sample_fingerprint_token = token
    return token


@dataclass
class SampleDatabase:
    """Per-table simple random samples (without replacement), in copies."""

    database: Database
    sampling_ratio: float
    num_copies: int = 2
    seed: int = 0
    _samples: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)
    #: (table, copy, column) -> the materialized sample column
    _columns: dict[tuple[str, int, str], np.ndarray] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self):
        if not 0.0 < self.sampling_ratio <= 1.0:
            raise SamplingError(
                f"sampling ratio must be in (0, 1], got {self.sampling_ratio}"
            )
        if self.num_copies < 1:
            raise SamplingError("need at least one sample copy")
        rng = ensure_rng(self.seed)
        for name in self.database.table_names:
            table = self.database.table(name)
            size = self.sample_size(name)
            for copy in range(self.num_copies):
                indices = rng.choice(table.num_rows, size=size, replace=False)
                self._samples[(name, copy)] = np.sort(indices)

    # ------------------------------------------------------------------
    def fingerprint(self) -> tuple:
        """A hashable identity for caching artifacts derived from this
        sample set: the underlying database instance plus every parameter
        that determines which tuples were drawn. Two SampleDatabase
        instances with equal fingerprints hold identical samples. The
        database is identified by a monotonically assigned token (not
        ``id()``, which the allocator recycles after garbage collection,
        and not the object itself, which is unhashable)."""
        return (
            _database_token(self.database),
            self.sampling_ratio,
            self.num_copies,
            self.seed,
        )

    def sample_size(self, table_name: str) -> int:
        """Number of sample tuples (= sampling steps n) for a table."""
        rows = self.database.table(table_name).num_rows
        return max(MIN_SAMPLE_ROWS, min(rows, math.ceil(rows * self.sampling_ratio)))

    def sample_indices(self, table_name: str, copy: int = 0) -> np.ndarray:
        try:
            return self._samples[(table_name, copy)]
        except KeyError:
            raise SamplingError(
                f"no sample copy {copy} for table {table_name!r}"
            ) from None

    def sample_column(self, table_name: str, column: str, copy: int = 0) -> np.ndarray:
        """One column of a materialized sample table, in sample-position order.

        Filled on first read and cached read-only for the life of the
        sample set, so the cache is bounded by the sample tables' own
        size. Concurrent first reads may both gather it; ``setdefault``
        keeps one, and every caller gets that one.
        """
        key = (table_name, copy, column)
        values = self._columns.get(key)
        if values is None:
            table = self.database.table(table_name)
            values = table.column(column)[self.sample_indices(table_name, copy)]
            values.flags.writeable = False
            values = self._columns.setdefault(key, values)
        return values

    def sample_pages(self, table_name: str) -> int:
        """Pages occupied by one sample table (for the overhead metric)."""
        table = self.database.table(table_name)
        size = self.sample_size(table_name)
        total_bytes = size * table.schema.row_width_bytes
        return max(1, math.ceil(total_bytes / PAGE_SIZE_BYTES))

    def assign_copies(self, alias_tables: dict[str, str]) -> dict[str, int]:
        """Give each alias of a repeated table its own sample copy."""
        seen: dict[str, int] = {}
        assignment: dict[str, int] = {}
        for alias in sorted(alias_tables):
            table = alias_tables[alias]
            occurrence = seen.get(table, 0)
            if occurrence >= self.num_copies:
                raise SamplingError(
                    f"table {table!r} appears {occurrence + 1} times but only "
                    f"{self.num_copies} sample copies exist"
                )
            assignment[alias] = occurrence
            seen[table] = occurrence + 1
        return assignment
