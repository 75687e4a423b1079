"""Extension: least-expected-cost plan choice (Section 6.5.1).

The rows come from :func:`repro.experiments.artifacts.lec`: the LEC plan
ranking against the classic point-estimate ranking across SELJOIN
queries. LEC minimizes expected cost, so its choice never costs more in
expectation than the point choice (share floored at 1.0 on both tiers).
"""

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("lec", tags=("extension", "planning"))
def scenario(ctx):
    """LEC vs point-estimate plan choice on SELJOIN queries."""
    summary = artifacts.lec(ctx).summary
    return [
        Metric("queries", summary["queries"]),
        Metric("agree_frac", summary["agree_frac"]),
        Metric("candidates_mean", summary["candidates_mean"]),
        Metric("lec_expected_cost_mean", summary["lec_expected_cost_mean"]),
        Metric("point_expected_cost_mean", summary["point_expected_cost_mean"]),
        Metric("lec_not_worse_frac", summary["lec_not_worse_frac"], floor=1.0),
    ]
