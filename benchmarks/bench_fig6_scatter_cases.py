"""Figure 6: case-study scatter plots of sigma vs actual error.

The rows come from :func:`repro.experiments.artifacts.fig6_scatter_cases`.
Case (3): TPCH on the skewed large database, PC1, SR = 0.05 — both rs
and rp good (rs floored at 0.6 on both tiers). Case (4): TPCH on the
uniform small database, PC1, SR = 0.01 — both weaker.
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("fig6_scatter_cases", tags=("figure", "case-study"))
def scenario(ctx):
    """The good (skewed-large) vs weak (uniform-small SR=0.01) cases."""
    summary = artifacts.fig6_scatter_cases(ctx).summary
    return [
        Metric("rs_good", summary["rs_good"], floor=0.6),
        Metric("rp_good", summary["rp_good"]),
        Metric("rs_weak", summary["rs_weak"]),
        Metric("rp_weak", summary["rp_weak"]),
    ]
