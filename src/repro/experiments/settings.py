"""Experiment grid settings (Section 6.1).

The paper's grid: {MICRO, SELJOIN, TPCH} x {uniform, skewed(z=1)} x
{1 GB, 10 GB} x {PC1, PC2} x SR in {0.01, 0.05, 0.1}. We scale the
databases down (DESIGN.md, substitutions): "small" stands in for the
1 GB database and "large" for the 10 GB one, keeping the size ratio and
all other grid axes identical.
"""

from __future__ import annotations


from ..datagen import TpchConfig

__all__ = [
    "BENCHMARKS",
    "DATABASE_CONFIGS",
    "SAMPLING_RATIOS",
    "MACHINES",
    "DEFAULT_QUERY_COUNTS",
]

BENCHMARKS = ("MICRO", "SELJOIN", "TPCH")

#: label -> generator config. Seeds differ so databases are independent.
DATABASE_CONFIGS: dict[str, TpchConfig] = {
    "uniform-small": TpchConfig(scale_factor=0.02, skew_z=0.0, seed=11),
    "skewed-small": TpchConfig(scale_factor=0.02, skew_z=1.0, seed=12),
    "uniform-large": TpchConfig(scale_factor=0.08, skew_z=0.0, seed=13),
    "skewed-large": TpchConfig(scale_factor=0.08, skew_z=1.0, seed=14),
}

SAMPLING_RATIOS = (0.01, 0.05, 0.1)

MACHINES = ("PC1", "PC2")

#: Full-run query counts per benchmark (benches use fewer).
DEFAULT_QUERY_COUNTS = {"MICRO": 56, "SELJOIN": 28, "TPCH": 28}
