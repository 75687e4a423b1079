"""Table 6: correlation between estimated and actual selectivity errors.

The rows come from :func:`repro.experiments.artifacts.table6_sel_error_corr`.
The paper finds weaker correlations than Table 4 (errors are often
tiny), which motivates Table 9's restriction to large-error operators;
the floor only requires the grid to produce finite cells.
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("table6_sel_error_corr", tags=("table", "selectivity"))
def scenario(ctx):
    """Correlation of estimated vs actual selectivity errors."""
    summary = artifacts.table6_sel_error_corr(ctx).summary
    return [
        Metric("rs_mean", summary["rs_mean"]),
        Metric("rs_median", summary["rs_median"]),
        Metric("cells", summary["cells"], floor=1.0),
    ]
