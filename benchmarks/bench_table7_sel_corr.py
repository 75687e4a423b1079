"""Table 7 / Figure 12: estimated vs actual selectivities.

The rows come from :func:`repro.experiments.artifacts.table7_sel_corr`.
The paper's Table 7 shows near-perfect correlation: the sampling
estimator nails the selectivities themselves. Floored on both tiers:
MICRO's Pearson correlation at SR = 0.1 stays above 0.95.
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("table7_sel_corr", tags=("table", "selectivity"))
def scenario(ctx):
    """Estimated vs actual selectivities hug the diagonal."""
    summary = artifacts.table7_sel_corr(ctx).summary
    return [
        Metric("rs_mean", summary["rs_mean"]),
        Metric("micro_pearson_sr01", summary["micro_pearson_sr01"], floor=0.95),
    ]
