"""Regression guard: diff fresh bench results against committed baselines.

Usage::

    python tools/benchguard.py [--results DIR] [--baselines DIR]
                               [--tier quick|full] [--update]
                               [--strict-timings] [--scenario NAME ...]

Reads ``BENCH_<scenario>.json`` artifacts produced by ``repro bench``
from ``--results`` (default: cwd) and compares them against the
baselines committed under ``--baselines`` (default:
``benchmarks/baselines/<tier>``). Exit status 1 on any regression.

Tolerance policy, per metric kind (see ``repro.benchreport.result``):

* ``fidelity`` — two-sided, tight: deterministic paper-shape numbers
  may drift only within ``max(abs_tol, rel_tol * |baseline|)``.
* ``ratio`` — one-sided, loose: a speedup may fall at most
  ``ratio_slack`` below the baseline (improvements always pass).
* ``timing`` — one-sided, loosest: a wall time may grow at most
  ``timing_slack`` above the baseline, and is only compared at all
  when the fresh and baseline environment fingerprints are comparable
  (same machine class / CPU count / python); cross-machine timing
  diffs are noise, not regressions.

A hard ``floor`` binds on every kind, with or without a baseline: the
paper's claims are floors on fidelity metrics, the serving claims
floors on ratios and flags.

``--update`` refreshes the baselines from the fresh results instead of
comparing (use after an intentional perf or fidelity change, and commit
the diff).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.benchreport import BenchResult, fingerprints_comparable  # noqa: E402

SUMMARY_NAME = "BENCH_summary.json"


@dataclass(frozen=True)
class TolerancePolicy:
    """Per-kind tolerance bands. Fidelity tight, timings loose."""

    fidelity_rel: float = 0.02
    fidelity_abs: float = 0.02
    # Speedup ratios swing ~2x run-to-run on busy 1-core runners; the
    # slack tolerates that while a collapse to ~1x (the real failure
    # mode) still lands far below baseline * (1 - slack). Scenarios pin
    # the collapse case with hard `floor`s, which ignore the slack.
    ratio_slack: float = 0.6
    timing_slack: float = 1.0
    # Absolute grace on timings: millisecond-scale baselines are
    # jitter-dominated, so a pure relative band flags noise (a 4 ms
    # calibration doubling to 8 ms is not a regression worth a red CI).
    timing_abs: float = 0.05
    #: Compare timings even across differing environment fingerprints.
    strict_timings: bool = False


@dataclass(frozen=True)
class Finding:
    """One comparison outcome."""

    scenario: str
    metric: str
    message: str
    regression: bool

    def __str__(self) -> str:
        tag = "REGRESSION" if self.regression else "note"
        where = f"{self.scenario}.{self.metric}" if self.metric else self.scenario
        return f"{tag:>10}  {where}: {self.message}"


def load_results(directory: Path) -> dict[str, BenchResult]:
    """All ``BENCH_<scenario>.json`` records in ``directory``, by name."""
    results = {}
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        if path.name == SUMMARY_NAME:
            continue
        result = BenchResult.read(path)
        results[result.scenario] = result
    return results


def _floor_finding(scenario, name, fresh, base=None) -> Finding | None:
    """Hard floors bind with or without a baseline (NaN never clears one)."""
    floor = fresh.floor
    if floor is None and base is not None:
        floor = base.floor
    if floor is not None and not (fresh.value >= floor):
        return Finding(
            scenario, name,
            f"{fresh.value:.4g} below its hard floor {floor:.4g}", True,
        )
    return None


def _compare_metric(scenario, name, fresh, base, timings_comparable,
                    policy: TolerancePolicy) -> list[Finding]:
    findings = []
    if fresh.kind != base.kind:
        findings.append(Finding(
            scenario, name, f"kind changed {base.kind} -> {fresh.kind} "
            "(refresh baselines with --update)", True,
        ))
        return findings

    floored = _floor_finding(scenario, name, fresh, base)
    if floored is not None:
        findings.append(floored)

    # Ordered float comparisons are all False for NaN, so the band
    # checks below would wave a metric that degraded to NaN/inf
    # straight through — the exact breakage class (estimator suddenly
    # returning garbage everywhere) the guard exists to catch.
    if not math.isfinite(fresh.value):
        if math.isfinite(base.value):
            findings.append(Finding(
                scenario, name,
                f"became non-finite: {base.value:.4g} -> {fresh.value}", True,
            ))
        return findings
    if not math.isfinite(base.value):
        findings.append(Finding(
            scenario, name,
            f"baseline is non-finite ({base.value}) but the fresh value "
            f"is {fresh.value:.4g} — refresh baselines with --update", False,
        ))
        return findings

    if base.kind == "fidelity":
        band = max(policy.fidelity_abs, policy.fidelity_rel * abs(base.value))
        drift = abs(fresh.value - base.value)
        if drift > band:
            findings.append(Finding(
                scenario, name,
                f"fidelity drifted {base.value:.4g} -> {fresh.value:.4g} "
                f"(|delta| {drift:.4g} > band {band:.4g})", True,
            ))
    elif base.kind == "ratio":
        allowed = base.value * (1.0 - policy.ratio_slack)
        if fresh.value < allowed:
            findings.append(Finding(
                scenario, name,
                f"ratio fell {base.value:.4g} -> {fresh.value:.4g} "
                f"(below {allowed:.4g} = baseline - {policy.ratio_slack:.0%})",
                True,
            ))
    elif base.kind == "timing":
        if not timings_comparable and not policy.strict_timings:
            findings.append(Finding(
                scenario, name,
                "timing skipped: environment fingerprint differs from the "
                "baseline's (run with --strict-timings to force)", False,
            ))
        else:
            allowed = base.value * (1.0 + policy.timing_slack) + policy.timing_abs
            if fresh.value > allowed:
                findings.append(Finding(
                    scenario, name,
                    f"timing grew {base.value:.4g}s -> {fresh.value:.4g}s "
                    f"(above {allowed:.4g}s = baseline + "
                    f"{policy.timing_slack:.0%})", True,
                ))
    return findings


def compare(fresh: dict[str, BenchResult], baseline: dict[str, BenchResult],
            policy: TolerancePolicy | None = None) -> list[Finding]:
    """Every baseline scenario/metric checked against the fresh run."""
    policy = policy or TolerancePolicy()
    findings: list[Finding] = []
    for name in sorted(baseline):
        base = baseline[name]
        if name not in fresh:
            findings.append(Finding(
                name, "", "scenario missing from the fresh results", True,
            ))
            continue
        got = fresh[name]
        if not got.ok:
            findings.append(Finding(
                name, "", f"scenario failed:\n{got.error}", True,
            ))
            continue
        if got.tier != base.tier:
            findings.append(Finding(
                name, "", f"tier mismatch: fresh {got.tier!r} vs baseline "
                f"{base.tier!r} — compared anyway, refresh the baselines",
                False,
            ))
        timings_comparable = fingerprints_comparable(
            got.environment, base.environment
        )
        for metric_name in sorted(base.metrics):
            if metric_name not in got.metrics:
                findings.append(Finding(
                    name, metric_name, "metric missing from the fresh result",
                    True,
                ))
                continue
            findings.extend(_compare_metric(
                name, metric_name, got.metrics[metric_name],
                base.metrics[metric_name], timings_comparable, policy,
            ))
        for metric_name in sorted(set(got.metrics) - set(base.metrics)):
            findings.append(Finding(
                name, metric_name,
                "new metric without a baseline (add it with --update)", False,
            ))
            floored = _floor_finding(name, metric_name, got.metrics[metric_name])
            if floored is not None:
                findings.append(floored)
    for name in sorted(set(fresh) - set(baseline)):
        findings.append(Finding(
            name, "", "new scenario without a baseline (add it with --update)",
            False,
        ))
        got = fresh[name]
        if not got.ok:
            findings.append(Finding(
                name, "", f"new scenario failed:\n{got.error}", True,
            ))
            continue
        for metric_name in sorted(got.metrics):
            floored = _floor_finding(name, metric_name, got.metrics[metric_name])
            if floored is not None:
                findings.append(floored)
    return findings


def update_baselines(fresh: dict[str, BenchResult], directory: Path) -> int:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for result in fresh.values():
        result.write(directory)
    return len(fresh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results", default=".", help="directory with fresh BENCH_*.json"
    )
    parser.add_argument(
        "--baselines", default=None,
        help="baseline directory (default: benchmarks/baselines/<tier>)",
    )
    parser.add_argument("--tier", choices=("quick", "full"), default="quick")
    parser.add_argument(
        "--scenario", action="append", default=None,
        help="restrict the diff to these scenarios (repeatable)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="refresh the baselines from the fresh results instead of diffing",
    )
    parser.add_argument("--strict-timings", action="store_true")
    parser.add_argument("--fidelity-rel", type=float, default=None)
    parser.add_argument("--fidelity-abs", type=float, default=None)
    parser.add_argument("--ratio-slack", type=float, default=None)
    parser.add_argument("--timing-slack", type=float, default=None)
    args = parser.parse_args(argv)

    baselines_dir = Path(
        args.baselines
        if args.baselines
        else REPO_ROOT / "benchmarks" / "baselines" / args.tier
    )
    fresh = load_results(Path(args.results))
    if args.scenario:
        fresh = {k: v for k, v in fresh.items() if k in set(args.scenario)}
    if not fresh:
        print(f"benchguard: no fresh BENCH_*.json found in {args.results}")
        return 1

    if args.update:
        count = update_baselines(fresh, baselines_dir)
        print(f"benchguard: wrote {count} baselines to {baselines_dir}")
        return 0

    if not baselines_dir.is_dir():
        print(
            f"benchguard: no baselines at {baselines_dir} — seed them with "
            "--update"
        )
        return 1
    baseline = load_results(baselines_dir)
    if args.scenario:
        baseline = {k: v for k, v in baseline.items() if k in set(args.scenario)}

    defaults = TolerancePolicy()
    policy = TolerancePolicy(
        fidelity_rel=args.fidelity_rel if args.fidelity_rel is not None
        else defaults.fidelity_rel,
        fidelity_abs=args.fidelity_abs if args.fidelity_abs is not None
        else defaults.fidelity_abs,
        ratio_slack=args.ratio_slack if args.ratio_slack is not None
        else defaults.ratio_slack,
        timing_slack=args.timing_slack if args.timing_slack is not None
        else defaults.timing_slack,
        strict_timings=args.strict_timings,
    )
    findings = compare(fresh, baseline, policy)
    regressions = [f for f in findings if f.regression]
    for finding in findings:
        print(finding)
    checked = sum(len(b.metrics) for b in baseline.values())
    print(
        f"benchguard: {len(baseline)} scenarios, {checked} metrics checked, "
        f"{len(regressions)} regressions"
    )
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
