"""Figures 9 / 11: relative overhead of the sampling pass.

The rows come from :func:`repro.experiments.artifacts.fig9_overhead`.
The paper reports overheads around 0.04-0.06 at SR = 0.05 on the 10 GB
database, growing with the sampling ratio. Floored on both tiers: the
growth (monotone share 1.0) and every SR = 0.05 overhead below 0.5.
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("fig9_overhead", tags=("figure", "overhead"))
def scenario(ctx):
    """Relative sampling overhead: grows with SR, small at SR=0.05."""
    summary = artifacts.fig9_overhead(ctx).summary
    return [
        Metric(f"overhead_mid_{benchmark}", summary[f"overhead_mid_{benchmark}"])
        for benchmark in ("micro", "seljoin", "tpch")
    ] + [
        Metric("monotone_frac", summary["monotone_frac"], floor=1.0),
        Metric("overhead_mid_max_complement",
               summary["overhead_mid_max_complement"], floor=0.5),
    ]
