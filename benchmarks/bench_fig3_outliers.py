"""Figure 3: rs is robust to outliers, rp is not.

The rows come from :func:`repro.experiments.artifacts.fig3_outliers`:
the paper removes the right-most scatter point of a MICRO cell and
shows rp jumps while rs barely moves. rs must stay meaningful without
the outlier (floored at 0.3 on both tiers).
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("fig3_outliers", tags=("figure", "robustness"))
def scenario(ctx):
    """rs stays put when the max-sigma outlier is removed; rp moves."""
    summary = artifacts.fig3_outliers(ctx).summary
    return [
        Metric("rs_full", summary["rs_full"]),
        Metric("rs_trimmed", summary["rs_trimmed"], floor=0.3),
        Metric("rp_full", summary["rp_full"]),
        Metric("rp_trimmed", summary["rp_trimmed"]),
        Metric("rs_delta", summary["rs_delta"]),
    ]
