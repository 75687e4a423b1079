"""Structured benchmark records.

A scenario returns :class:`Metric` values; the runner wraps them in a
:class:`BenchResult` together with the wall time, tier, seed, and the
environment fingerprint, and serializes the lot as ``BENCH_<name>.json``.
The regression guard (``tools/benchguard.py``) consumes these records,
applying a per-kind tolerance policy:

* ``fidelity`` — paper-shape numbers (correlations, errors, fractions).
  Deterministic given the seed; guarded with a tight two-sided band.
* ``ratio`` — speedups and hit rates where higher is better; guarded
  one-sided with a loose band.
* ``timing`` — wall-clock seconds; guarded one-sided with the loosest
  band, and only against baselines from a comparable machine.

A metric of any kind may also declare a hard ``floor``: the paper's
claims are floors on fidelity metrics, the serving claims floors on
ratios and flags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Metric", "BenchResult", "METRIC_KINDS"]

METRIC_KINDS = ("fidelity", "ratio", "timing")


@dataclass(frozen=True)
class Metric:
    """One named benchmark measurement."""

    name: str
    value: float
    kind: str = "fidelity"
    unit: str = ""
    #: Hard lower bound, on any kind: the guard fails when the fresh
    #: value falls below it (or is NaN), independent of any baseline.
    floor: float | None = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(
                f"metric {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {METRIC_KINDS}"
            )

    def to_dict(self) -> dict:
        record = {"value": float(self.value), "kind": self.kind}
        if self.unit:
            record["unit"] = self.unit
        if self.floor is not None:
            record["floor"] = float(self.floor)
        return record

    @classmethod
    def from_dict(cls, name: str, record: dict) -> "Metric":
        return cls(
            name=name,
            value=float(record["value"]),
            kind=record.get("kind", "fidelity"),
            unit=record.get("unit", ""),
            floor=record.get("floor"),
        )


@dataclass
class BenchResult:
    """One scenario's structured outcome."""

    scenario: str
    tier: str
    seed: int
    wall_seconds: float
    metrics: dict[str, Metric] = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def metric(self, name: str) -> Metric:
        return self.metrics[name]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "tier": self.tier,
            "seed": self.seed,
            "wall_seconds": round(self.wall_seconds, 6),
            "metrics": {name: m.to_dict() for name, m in self.metrics.items()},
            "environment": dict(self.environment),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "BenchResult":
        return cls(
            scenario=record["scenario"],
            tier=record.get("tier", "full"),
            seed=int(record.get("seed", 0)),
            wall_seconds=float(record.get("wall_seconds", 0.0)),
            metrics={
                name: Metric.from_dict(name, value)
                for name, value in record.get("metrics", {}).items()
            },
            environment=dict(record.get("environment", {})),
            error=record.get("error"),
        )

    def write(self, directory: Path) -> Path:
        """Write ``BENCH_<scenario>.json`` under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{self.scenario}.json"
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def read(cls, path: Path) -> "BenchResult":
        return cls.from_dict(json.loads(Path(path).read_text()))


def normalize_metrics(raw) -> dict[str, Metric]:
    """Accept the return shapes scenarios use: Metric iterables or dicts."""
    if raw is None:
        return {}
    if isinstance(raw, dict):
        metrics = {}
        for name, value in raw.items():
            metrics[name] = value if isinstance(value, Metric) else Metric(
                name, float(value)
            )
        return metrics
    metrics = {}
    for metric in raw:
        if not isinstance(metric, Metric):
            raise TypeError(f"scenario returned non-Metric {metric!r}")
        if metric.name in metrics:
            raise ValueError(f"duplicate metric name {metric.name!r}")
        metrics[metric.name] = metric
    return metrics
