"""Table 9: error correlations restricted to relative errors > 0.2.

The rows come from
:func:`repro.experiments.artifacts.table9_large_error_corr`. The
paper's explanation for Table 6's weak spots: where the estimation
errors are large, the estimated standard deviations do track them, so
the restricted correlations are mostly positive (median floored at 0
on both tiers).
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("table9_large_error_corr", tags=("table", "selectivity"))
def scenario(ctx):
    """Correlations restricted to relative errors > 0.2."""
    summary = artifacts.table9_large_error_corr(ctx).summary
    return [
        Metric("restricted_rs_median", summary["restricted_rs_median"],
               floor=0.0),
        Metric("restricted_cells", summary["restricted_cells"]),
    ]
