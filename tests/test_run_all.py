"""The paper report and the bench scenarios print the same numbers.

Every artifact of :mod:`repro.experiments.artifacts` runs on a mini lab
whose four database labels share one tiny database. Its scenario's
metrics must be exactly the artifact's summary, and the report section
must print each of them at full precision.
"""

import io
from types import SimpleNamespace

import pytest

from repro.benchreport import BenchRegistry, load_scenarios
from repro.datagen import TpchConfig, generate_tpch
from repro.experiments import DATABASE_CONFIGS, ExperimentLab, artifacts
from repro.experiments.reporting import render_artifact
from repro.experiments.run_all import write_report

# Every artifact on a lab of its own is the slow tier: deselected from
# tier-1 runs by pytest.ini (run explicitly with `pytest -m slow`).
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def mini_ctx():
    database = generate_tpch(TpchConfig(scale_factor=0.005, seed=31))
    lab = ExperimentLab(
        databases={label: database for label in DATABASE_CONFIGS},
        seed=0,
        query_counts={"MICRO": 6, "SELJOIN": 4, "TPCH": 4},
        calibration_repetitions=3,
    )
    return SimpleNamespace(
        tier="quick", seed=0, lab=lab, small_lab=lab,
        pick=lambda *, quick, full: quick,
    )


@pytest.fixture(scope="module")
def scenarios():
    return load_scenarios(registry=BenchRegistry())


@pytest.mark.parametrize(
    "function", artifacts.ARTIFACTS, ids=lambda function: function.__name__
)
def test_report_prints_the_scenario_metrics(function, mini_ctx, scenarios):
    artifact = function(mini_ctx)
    metrics = {
        metric.name: metric
        for metric in scenarios.get(function.__name__).func(mini_ctx)
        if metric.kind != "timing"
    }
    assert set(metrics) == set(artifact.summary)
    section = render_artifact(artifact)
    assert section.startswith(f"## {artifact.title}")
    for name, metric in metrics.items():
        assert repr(metric.value) == repr(artifact.summary[name])
        assert f"| {name} " in section
        assert f" {metric.value!r} " in section


def test_report_has_one_section_per_artifact(mini_ctx):
    out = io.StringIO()
    write_report(mini_ctx, out)
    text = out.getvalue()
    assert text.startswith("# Paper reproduction report (tier quick, seed 0)")
    assert text.count("\n## ") == len(artifacts.ARTIFACTS) == 17
