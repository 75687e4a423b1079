"""The benchmark registry, runner, artifacts, and CLI wiring.

Fast tests only: scenarios here are synthetic (no labs), and the real
paper scenarios run only against stubbed artifacts. The real scenarios
in ``benchmarks/bench_*.py`` are exercised by ``repro bench`` itself
(Makefile `bench-quick`, CI) — these tests pin the subsystem's
contracts: registration, tier selection, deterministic structured
results, artifact emission, trajectory append, failure capture, and
one paper artifact feeding both its scenario and the report.
"""

import io
import json

import pytest

from repro.benchreport import (
    REGISTRY,
    BenchContext,
    BenchRegistry,
    BenchResult,
    Metric,
    environment_fingerprint,
    fingerprints_comparable,
    load_scenarios,
    run_scenarios,
    write_artifacts,
)
from repro.benchreport.runner import SUMMARY_FILENAME
from repro.cli import main as cli_main
from repro.experiments import artifacts, run_all


def make_registry():
    registry = BenchRegistry()

    @registry.register("alpha", tags=("fast", "demo"))
    def alpha(ctx):
        return [Metric("answer", 42.0), Metric("ratio", 2.0, kind="ratio")]

    @registry.register("beta", quick=False)
    def beta(ctx):
        return {"tier_is_quick": float(ctx.quick)}

    @registry.register("broken")
    def broken(ctx):
        raise RuntimeError("scenario exploded")

    return registry


class TestRegistry:
    def test_selection_by_tier(self):
        registry = make_registry()
        quick = [s.name for s in registry.select("quick")]
        full = [s.name for s in registry.select("full")]
        assert quick == ["alpha", "broken"]
        assert full == ["alpha", "beta", "broken"]

    def test_selection_by_pattern_matches_names_and_tags(self):
        registry = make_registry()
        assert [s.name for s in registry.select("full", pattern="alp")] == ["alpha"]
        assert [s.name for s in registry.select("full", pattern="demo")] == ["alpha"]
        assert [s.name for s in registry.select("full", pattern="b*")] == [
            "beta", "broken"
        ]

    def test_explicit_names_override_tier_gate(self):
        registry = make_registry()
        assert [s.name for s in registry.select("quick", names=["beta"])] == ["beta"]

    def test_unknown_name_rejected(self):
        registry = make_registry()
        with pytest.raises(KeyError, match="unknown scenario"):
            registry.select("full", names=["nope"])

    def test_reregistration_replaces(self):
        registry = make_registry()

        @registry.register("alpha")
        def alpha_v2(ctx):
            return [Metric("answer", 43.0)]

        assert len([s for s in registry.scenarios() if s.name == "alpha"]) == 1
        assert registry.get("alpha").func is alpha_v2

    def test_unknown_tier_rejected(self):
        registry = make_registry()
        with pytest.raises(ValueError, match="unknown tier"):
            registry.select("warp")

    def test_real_bench_files_all_register(self, tmp_path):
        registry = load_scenarios(registry=BenchRegistry())
        names = registry.names()
        # every benchmarks/bench_*.py file contributes a scenario
        assert len(names) >= 21
        for expected in ("sampling_engine", "service_throughput",
                         "table4_correlations", "fig8_ablation"):
            assert expected in names
        # and the module-level registry was not polluted by the
        # injected-registry load
        assert "alpha" not in REGISTRY


class _AnySummary(dict):
    """Every summary name reads 1.0, so a scenario runs without a lab."""

    def __missing__(self, name):
        return 1.0


class TestPaperArtifacts:
    """One function per paper artifact feeds its scenario and the report.

    Cheap: every artifact function is replaced by a stub that records
    who read it, so no lab is built.
    """

    def test_report_renders_what_scenarios_read(self, monkeypatch):
        reads = []

        def stub(function):
            def read(ctx, *args):
                reads.append(function.__name__)
                return artifacts.Artifact(function.__name__, (), _AnySummary())
            return read

        stubs = tuple(stub(function) for function in artifacts.ARTIFACTS)
        for function, replacement in zip(artifacts.ARTIFACTS, stubs):
            monkeypatch.setattr(artifacts, function.__name__, replacement)
        monkeypatch.setattr(artifacts, "ARTIFACTS", stubs)
        monkeypatch.setattr(run_all, "ARTIFACTS", stubs)
        ctx = BenchContext(tier="full")

        run_all.write_report(ctx, io.StringIO())
        rendered = set(reads)
        assert len(rendered) == len(stubs) == 17

        registry = load_scenarios(registry=BenchRegistry())
        read_by_scenarios = set()
        for scenario in registry.scenarios():
            if scenario.func.__globals__.get("artifacts") is not artifacts:
                continue
            reads.clear()
            metrics = scenario.func(ctx)
            # Each paper scenario reads its own artifact, and only it ...
            assert set(reads) == {scenario.name}
            read_by_scenarios |= set(reads)
            # ... and floors at least one of the paper's claims on it.
            assert any(metric.floor is not None for metric in metrics), (
                scenario.name
            )
        assert read_by_scenarios == rendered
        assert not ctx._labs  # no lab was built


class TestContext:
    def test_tier_validation(self):
        with pytest.raises(ValueError, match="unknown tier"):
            BenchContext(tier="nope")

    def test_pick(self):
        assert BenchContext(tier="quick").pick(quick=1, full=2) == 1
        assert BenchContext(tier="full").pick(quick=1, full=2) == 2

    def test_quick_counts_smaller(self):
        quick = BenchContext(tier="quick").query_counts
        full = BenchContext(tier="full").query_counts
        assert set(quick) == set(full)
        assert all(quick[k] < full[k] for k in quick)


class TestMetricAndResult:
    def test_metric_kind_validated(self):
        with pytest.raises(ValueError, match="unknown kind"):
            Metric("x", 1.0, kind="vibes")

    def test_result_roundtrip(self, tmp_path):
        result = BenchResult(
            scenario="demo", tier="quick", seed=7, wall_seconds=1.25,
            metrics={
                "a": Metric("a", 0.5),
                "t": Metric("t", 2.0, kind="timing", unit="s"),
                "r": Metric("r", 3.0, kind="ratio", floor=1.5),
            },
            environment=environment_fingerprint(),
        )
        path = result.write(tmp_path)
        assert path.name == "BENCH_demo.json"
        loaded = BenchResult.read(path)
        assert loaded.scenario == "demo"
        assert loaded.tier == "quick"
        assert loaded.seed == 7
        assert loaded.metrics["r"].floor == 1.5
        assert loaded.metrics["t"].kind == "timing"
        assert loaded.environment == result.environment

    def test_fingerprint_fields(self):
        fingerprint = environment_fingerprint()
        for key in ("repro_version", "python", "numpy", "cpu_count"):
            assert fingerprint[key]

    def test_fingerprint_comparability(self):
        a = environment_fingerprint()
        assert fingerprints_comparable(a, dict(a))
        b = dict(a)
        b["cpu_count"] = a["cpu_count"] + 1
        assert not fingerprints_comparable(a, b)
        assert not fingerprints_comparable(a, {})


class TestRunner:
    def test_run_and_artifacts(self, tmp_path):
        registry = make_registry()
        results = run_scenarios(
            registry.select("full", names=["alpha", "beta"]), tier="full",
        )
        assert [r.scenario for r in results] == ["alpha", "beta"]
        assert all(r.ok for r in results)
        # the runner injects wall_seconds as a guardable timing metric
        assert results[0].metrics["wall_seconds"].kind == "timing"
        assert results[1].metrics["tier_is_quick"].value == 0.0
        assert results[0].environment["repro_version"]

        summary_path = write_artifacts(results, tmp_path)
        assert summary_path.name == SUMMARY_FILENAME
        assert (tmp_path / "BENCH_alpha.json").exists()
        summary = json.loads(summary_path.read_text())
        assert len(summary["runs"]) == 1
        assert summary["runs"][0]["sequence"] == 1
        assert set(summary["runs"][0]["scenarios"]) == {"alpha", "beta"}

    def test_summary_appends_trajectory(self, tmp_path):
        registry = make_registry()
        results = run_scenarios(registry.select("full", names=["alpha"]))
        write_artifacts(results, tmp_path)
        write_artifacts(results, tmp_path)
        summary = json.loads((tmp_path / SUMMARY_FILENAME).read_text())
        assert [run["sequence"] for run in summary["runs"]] == [1, 2]

    def test_failure_captured_not_raised(self):
        registry = make_registry()
        results = run_scenarios(registry.select("full", names=["broken"]))
        assert not results[0].ok
        assert "scenario exploded" in results[0].error
        assert results[0].metrics["wall_seconds"].kind == "timing"

    def test_scenario_metrics_deterministic(self):
        registry = make_registry()
        first = run_scenarios(registry.select("full", names=["alpha"]))
        second = run_scenarios(registry.select("full", names=["alpha"]))
        assert (
            {k: m.value for k, m in first[0].metrics.items() if k != "wall_seconds"}
            == {k: m.value for k, m in second[0].metrics.items() if k != "wall_seconds"}
        )


def write_fake_bench_dir(tmp_path):
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    (bench_dir / "bench_fake.py").write_text(
        "from repro.benchreport import Metric, register\n"
        "\n"
        "@register('fake', tags=('demo',))\n"
        "def scenario(ctx):\n"
        "    return [Metric('value', 1.0),\n"
        "            Metric('speed', 5.0, kind='ratio', floor=1.0)]\n"
        "\n"
        "@register('fake_full_only', quick=False)\n"
        "def scenario_full(ctx):\n"
        "    return [Metric('value', 2.0)]\n"
    )
    return bench_dir


class TestBenchCli:
    def run(self, *argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    def test_list(self, tmp_path):
        bench_dir = write_fake_bench_dir(tmp_path)
        code, text = self.run(
            "bench", "--list", "--quick", "--bench-dir", str(bench_dir)
        )
        assert code == 0
        assert "fake" in text
        assert "fake_full_only" not in text

    def test_quick_run_writes_artifacts(self, tmp_path):
        bench_dir = write_fake_bench_dir(tmp_path)
        out_dir = tmp_path / "out"
        code, text = self.run(
            "bench", "--quick", "--bench-dir", str(bench_dir),
            "--output-dir", str(out_dir),
        )
        assert code == 0
        assert "1/1 scenarios ok" in text
        result = BenchResult.read(out_dir / "BENCH_fake.json")
        assert result.tier == "quick"
        assert result.metrics["speed"].floor == 1.0
        assert (out_dir / SUMMARY_FILENAME).exists()

    def test_full_runs_everything(self, tmp_path):
        bench_dir = write_fake_bench_dir(tmp_path)
        out_dir = tmp_path / "out"
        code, text = self.run(
            "bench", "--full", "--bench-dir", str(bench_dir),
            "--output-dir", str(out_dir),
        )
        assert code == 0
        assert "2/2 scenarios ok" in text
        assert (out_dir / "BENCH_fake_full_only.json").exists()

    def test_filter_without_match_errors(self, tmp_path):
        bench_dir = write_fake_bench_dir(tmp_path)
        code, text = self.run(
            "bench", "--quick", "--bench-dir", str(bench_dir), "-k", "zzz"
        )
        assert code == 1
        assert "no scenarios selected" in text

    def test_no_artifacts_flag(self, tmp_path):
        bench_dir = write_fake_bench_dir(tmp_path)
        out_dir = tmp_path / "out"
        code, _ = self.run(
            "bench", "--quick", "--bench-dir", str(bench_dir),
            "--output-dir", str(out_dir), "--no-artifacts",
        )
        assert code == 0
        assert not out_dir.exists()

    def test_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_jobs_survive_worker_death(self, tmp_path):
        # A scenario hard-killing its worker process (stand-in for an
        # OOM kill) must surface as a recorded failure, not an
        # unhandled exception that loses the run's artifacts.
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench_killer.py").write_text(
            "import os\n"
            "from repro.benchreport import Metric, register\n"
            "\n"
            "@register('killer')\n"
            "def scenario(ctx):\n"
            "    os._exit(9)\n"
            "\n"
            "@register('innocent')\n"
            "def scenario2(ctx):\n"
            "    return [Metric('v', 1.0)]\n"
        )
        out_dir = tmp_path / "out"
        code, text = self.run(
            "bench", "--full", "--bench-dir", str(bench_dir),
            "--output-dir", str(out_dir), "--jobs", "2",
        )
        assert code == 1
        assert "FAILED killer" in text
        killed = BenchResult.read(out_dir / "BENCH_killer.json")
        assert not killed.ok
        assert "worker failed" in killed.error

    def test_jobs_fan_out(self, tmp_path):
        bench_dir = write_fake_bench_dir(tmp_path)
        out_dir = tmp_path / "out"
        code, text = self.run(
            "bench", "--full", "--bench-dir", str(bench_dir),
            "--output-dir", str(out_dir), "--jobs", "2",
        )
        assert code == 0
        assert "2/2 scenarios ok" in text
        assert BenchResult.read(
            out_dir / "BENCH_fake.json"
        ).metrics["value"].value == 1.0
