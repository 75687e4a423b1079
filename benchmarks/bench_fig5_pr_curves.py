"""Figure 5: predicted Pr(alpha) vs observed Prn(alpha) curves.

The rows come from :func:`repro.experiments.artifacts.fig5_pr_curves`
(MICRO / SELJOIN / TPCH on uniform-large, PC2, SR = 0.05). The paper's
finding, floored on both tiers: the curves track each other (every
mean gap below 0.45) and both rise with alpha (monotone shares 1.0).
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("fig5_pr_curves", tags=("figure", "distribution"))
def scenario(ctx):
    """Predicted Pr(alpha) tracks the observed Prn(alpha) curves."""
    summary = artifacts.fig5_pr_curves(ctx).summary
    return [
        Metric(f"{stat}_{benchmark}", summary[f"{stat}_{benchmark}"])
        for benchmark in ("micro", "seljoin", "tpch")
        for stat in ("gap_mean", "dn")
    ] + [
        Metric("gap_mean_max_complement", summary["gap_mean_max_complement"],
               floor=0.55),
        Metric("prn_monotone_frac", summary["prn_monotone_frac"], floor=1.0),
        Metric("pr_monotone_frac", summary["pr_monotone_frac"], floor=1.0),
    ]
