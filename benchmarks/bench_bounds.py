"""Ablation: tightness of the covariance bounds B1 / B2 / B3.

The rows come from :func:`repro.experiments.artifacts.bounds`: the bound
hierarchy of Theorem 7 / Appendix A.8 measured on real nested operators
of SELJOIN plans. Floored on both tiers: the plans yield correlated
pairs, B1 <= B2 holds for every pair (the restricted variance is a
subset sum of the full one), and B1 <= B3 for more than half of them
(an asymptotic statement that plug-in estimates can flip when sample
joins are sparse).
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("bounds", tags=("ablation", "theory"))
def scenario(ctx):
    """Tightness of the covariance bounds B1/B2/B3 on SELJOIN plans."""
    summary = artifacts.bounds(ctx).summary
    return [
        Metric("pairs", summary["pairs"], floor=1.0),
        Metric("b1_mean", summary["b1_mean"]),
        Metric("b2_mean", summary["b2_mean"]),
        Metric("b3_mean", summary["b3_mean"]),
        Metric("frac_b1_le_b2", summary["frac_b1_le_b2"], floor=1.0),
        Metric("frac_b1_le_b3", summary["frac_b1_le_b3"], floor=0.5),
    ]
