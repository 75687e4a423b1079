"""Ablation: sampling-based vs histogram-based uncertainty estimation.

The rows come from :func:`repro.experiments.artifacts.histogram_vs_sampling`:
Section 3.2 notes the framework is estimator-agnostic and leaves
histogram-based uncertainty as future work. Both estimators must give
uncertainty that ranks the actual errors: rs floored at 0.5 (sampling)
and 0.3 (histogram) on both tiers.
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("histogram_vs_sampling", tags=("extension", "ablation"))
def scenario(ctx):
    """Sampling vs histogram estimators: sigma-error correlation."""
    summary = artifacts.histogram_vs_sampling(ctx).summary
    return [
        Metric("sampling_rs", summary["sampling_rs"], floor=0.5),
        Metric("histogram_rs", summary["histogram_rs"], floor=0.3),
        Metric("sampling_median_rel_err", summary["sampling_median_rel_err"]),
        Metric("histogram_median_rel_err", summary["histogram_median_rel_err"]),
    ]
