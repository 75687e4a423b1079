"""The paper reproduction report: every artifact, on one tier's labs.

``repro report [--quick] [--seed N] [--output FILE]`` builds the bench
context of the tier (a :class:`repro.benchreport.BenchContext`: the
full tier by default, the quick one with ``--quick``) and writes one
markdown section per artifact of :mod:`repro.experiments.artifacts`.
The bench scenarios read the same artifacts from the same labs, so each
section's summary numbers are the scenario metrics of that tier and
seed.
"""

from __future__ import annotations

from .artifacts import ARTIFACTS
from .reporting import render_artifact

__all__ = ["write_report"]


def write_report(ctx, out) -> None:
    """Write every artifact of ``ctx``'s tier to ``out``, in paper order."""
    print(
        f"# Paper reproduction report (tier {ctx.tier}, seed {ctx.seed})\n",
        file=out,
    )
    for artifact in ARTIFACTS:
        print(render_artifact(artifact(ctx)), file=out)
