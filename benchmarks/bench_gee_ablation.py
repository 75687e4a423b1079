"""Extension ablation: GEE aggregate estimates vs the optimizer fallback.

The rows come from :func:`repro.experiments.artifacts.gee_ablation`:
Section 3.2.2 leaves sampling-based aggregate estimation (GEE) as
future work and uses the optimizer's estimates instead. Floored on both
tiers: the TPCH plans have grouped aggregates to compare, and every GEE
error is finite and nonnegative.
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("gee_ablation", tags=("extension", "ablation"))
def scenario(ctx):
    """GEE vs optimizer-fallback aggregate selectivity errors."""
    summary = artifacts.gee_ablation(ctx).summary
    return [
        Metric("fallback_mean_rel_err", summary["fallback_mean_rel_err"]),
        Metric("fallback_median_rel_err", summary["fallback_median_rel_err"]),
        Metric("gee_mean_rel_err", summary["gee_mean_rel_err"]),
        Metric("gee_median_rel_err", summary["gee_median_rel_err"]),
        Metric("aggregates", summary["aggregates"], floor=1.0),
        Metric("gee_finite_frac", summary["gee_finite_frac"], floor=1.0),
    ]
