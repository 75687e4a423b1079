"""Table 4 / Figure 2: rs (rp) of the benchmark queries over the grid.

The rows come from :func:`repro.experiments.artifacts.table4_correlations`
(``repro report`` renders the same value). The paper reports rs mostly
above 0.7. The full tier reproduces that shape, so its median and its
share above 0.5 are floored there; the quick tier's smaller lab does
not (rs median ~0.65) and carries no floor.
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("table4_correlations", tags=("table", "fidelity"))
def scenario(ctx):
    """rs over the full grid: median and fraction above 0.5."""
    summary = artifacts.table4_correlations(ctx).summary
    return [
        Metric("rs_median", summary["rs_median"],
               floor=ctx.pick(quick=None, full=0.7)),
        Metric("rs_frac_gt_05", summary["rs_frac_gt_05"],
               floor=ctx.pick(quick=None, full=0.8)),
        Metric("rs_mean", summary["rs_mean"]),
        Metric("cells", summary["cells"]),
    ]
