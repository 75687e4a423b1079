"""Table 1: the cost units, as recovered by calibration.

The rows come from :func:`repro.experiments.artifacts.calibration`, one
machine per call so each is timed alone (the paper's offline step).
Every calibrated unit mean must land within 30% of the simulated
hardware's truth on both machines: the complement of the largest
relative error is floored at 0.7 on both tiers.
"""

import time

from repro.benchreport import Metric, register
from repro.experiments import artifacts


@register("calibration", tags=("table1", "offline"))
def scenario(ctx):
    """Calibration recovers the simulated hardware's true cost units."""
    metrics = []
    for machine in ("PC1", "PC2"):
        started = time.perf_counter()
        summary = artifacts.calibration(ctx, (machine,)).summary
        elapsed = time.perf_counter() - started
        name = f"rel_err_max_{machine.lower()}"
        metrics += [
            Metric(name, summary[name]),
            Metric(f"{name}_complement", summary[f"{name}_complement"],
                   floor=0.7),
            Metric(f"calibrate_seconds_{machine.lower()}", elapsed,
                   kind="timing", unit="s"),
        ]
    return metrics
