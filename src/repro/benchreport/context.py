"""The shared execution context handed to every scenario.

One :class:`~repro.experiments.ExperimentLab` over the full database
grid and one over the small databases only, built lazily and shared by
every scenario of a run. ``repro report`` builds the same context, so
the paper artifacts it renders come from the labs the scenarios read.
The tier scales the workload: ``full`` is the lab shape the paper's
claims are floored on, ``quick`` shrinks the query counts and
calibration repetitions so the whole quick tier fits in a CI smoke
budget (a couple of minutes).

Scenarios pick tier-dependent parameters explicitly::

    batch = ctx.pick(quick=16, full=50)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..datagen import generate_tpch
from ..experiments import DATABASE_CONFIGS, ExperimentLab

__all__ = ["BenchContext", "TIER_QUERY_COUNTS"]

#: Per-tier workload shape for the shared labs; quick trades
#: statistical tightness for wall-clock.
TIER_QUERY_COUNTS = {
    "full": {"MICRO": 16, "SELJOIN": 10, "TPCH": 10},
    "quick": {"MICRO": 8, "SELJOIN": 5, "TPCH": 5},
}

TIER_CALIBRATION_REPETITIONS = {"full": 8, "quick": 5}

_SMALL_LABELS = ("uniform-small", "skewed-small")


@dataclass
class BenchContext:
    """Tier, seed, and lazily-built shared labs for one bench run."""

    tier: str = "full"
    seed: int = 0
    _labs: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.tier not in TIER_QUERY_COUNTS:
            raise ValueError(
                f"unknown tier {self.tier!r}; expected one of "
                f"{tuple(TIER_QUERY_COUNTS)}"
            )

    @property
    def quick(self) -> bool:
        return self.tier == "quick"

    def pick(self, *, quick, full):
        """The tier-appropriate one of two parameter values."""
        return quick if self.quick else full

    @property
    def query_counts(self) -> dict[str, int]:
        return dict(TIER_QUERY_COUNTS[self.tier])

    @property
    def calibration_repetitions(self) -> int:
        return TIER_CALIBRATION_REPETITIONS[self.tier]

    def _lab(self, labels: tuple[str, ...]) -> ExperimentLab:
        key = labels
        if key not in self._labs:
            databases = {
                label: generate_tpch(DATABASE_CONFIGS[label]) for label in labels
            }
            self._labs[key] = ExperimentLab(
                databases=databases,
                seed=self.seed,
                query_counts=self.query_counts,
                calibration_repetitions=self.calibration_repetitions,
            )
        return self._labs[key]

    @property
    def lab(self) -> ExperimentLab:
        """The full database grid (uniform/skewed x small/large)."""
        return self._lab(tuple(DATABASE_CONFIGS))

    @property
    def small_lab(self) -> ExperimentLab:
        """Small databases only, for scenarios that sweep many settings."""
        return self._lab(_SMALL_LABELS)

    def best_of(self, func, repetitions: int):
        """``(best wall seconds, last result)`` over N timed calls.

        The shared noise-damping idiom for timing metrics: scenario
        speedups feed tight trajectory bands, so scheduler noise is
        taken out with a min over repeated runs before it reaches the
        guard.
        """
        best = float("inf")
        value = None
        for _ in range(repetitions):
            started = time.perf_counter()
            value = func()
            best = min(best, time.perf_counter() - started)
        return best, value
