"""Table 5 / Figure 4: the distributional distance Dn over the grid.

The rows come from :func:`repro.experiments.artifacts.table5_dn`. The
paper reports Dn mostly below 0.3: the predicted error likelihoods
Pr(alpha) track the observed Prn(alpha). Floored on both tiers: the
median's complement (Dn median < 0.3) and the share below 0.4.
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("table5_dn", tags=("table", "fidelity"))
def scenario(ctx):
    """Distributional distance Dn over the grid: median, spread."""
    summary = artifacts.table5_dn(ctx).summary
    return [
        Metric("dn_median", summary["dn_median"]),
        Metric("dn_median_complement", summary["dn_median_complement"],
               floor=0.7),
        Metric("dn_frac_lt_04", summary["dn_frac_lt_04"], floor=0.75),
        Metric("dn_mean", summary["dn_mean"]),
    ]
