"""Table 8: mean relative errors of the selectivity estimates.

The rows come from :func:`repro.experiments.artifacts.table8_rel_errors`.
The paper reports relative errors shrinking as the sampling ratio
grows (strong consistency): ``micro_shrink_frac``, the share of
databases whose MICRO error at the largest SR is below the one at the
smallest, is floored at 1.0 on both tiers.
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("table8_rel_errors", tags=("table", "selectivity"))
def scenario(ctx):
    """Mean relative selectivity errors shrink as SR grows."""
    summary = artifacts.table8_rel_errors(ctx).summary
    # Per database: micro_err_sr_min_<db>, micro_err_sr_max_<db> and
    # their ratio micro_shrink_<db>.
    return [
        Metric(name, value) for name, value in summary.items()
        if name != "micro_shrink_frac"
    ] + [Metric("micro_shrink_frac", summary["micro_shrink_frac"], floor=1.0)]
