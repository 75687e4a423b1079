"""Extension: predictions under concurrency (Section 8 future work).

The rows come from :func:`repro.experiments.artifacts.concurrency`: a
sweep of the multiprogramming level. Floored on both tiers: load never
speeds a query up (monotone means) and interference adds uncertainty
(std at MPL 8 at least the one at MPL 1), for every query.
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("concurrency", tags=("extension", "mpl"))
def scenario(ctx):
    """Load monotonicity of the interference model across MPLs."""
    summary = artifacts.concurrency(ctx).summary
    return [
        Metric("monotone_mean_frac", summary["monotone_mean_frac"], floor=1.0),
        Metric("mean_slowdown_mpl8", summary["mean_slowdown_mpl8"]),
        Metric("std_growth_mpl8", summary["std_growth_mpl8"]),
        Metric("std_grows_frac", summary["std_grows_frac"], floor=1.0),
    ]
