"""Run registered scenarios and emit the JSON artifacts.

Serial runs share one :class:`BenchContext` (so the expensive labs are
built once). ``jobs > 1``
fans scenarios out across worker processes; each worker builds its own
context, which trades lab reuse for parallelism — worth it only when
scenarios outnumber the shared-lab savings (many cores, few shared
labs). Results are identical either way: scenarios are deterministic
functions of (tier, seed).

Artifacts:

* ``BENCH_<scenario>.json`` — one structured :class:`BenchResult` each;
* ``BENCH_summary.json`` — an append-only trajectory: one entry per
  run, so the perf history of the repo accumulates across PRs.
"""

from __future__ import annotations

import concurrent.futures
import json
import time
import traceback
from pathlib import Path

from .context import BenchContext
from .environment import environment_fingerprint
from .registry import BenchScenario, load_scenarios
from .result import BenchResult, Metric, normalize_metrics

__all__ = ["run_scenarios", "write_artifacts", "SUMMARY_FILENAME"]

SUMMARY_FILENAME = "BENCH_summary.json"


def _execute(scenario: BenchScenario, context: BenchContext) -> BenchResult:
    """Run one scenario, timing it and capturing any failure."""
    environment = environment_fingerprint()
    started = time.perf_counter()
    try:
        metrics = normalize_metrics(scenario.func(context))
        error = None
    except Exception:
        metrics = {}
        error = traceback.format_exc(limit=8)
    wall = time.perf_counter() - started
    result = BenchResult(
        scenario=scenario.name,
        tier=context.tier,
        seed=context.seed,
        wall_seconds=wall,
        metrics=metrics,
        environment=environment,
        error=error,
    )
    # Every result carries its own wall time as a guardable timing
    # metric (unless the scenario measured a more meaningful one under
    # the same name).
    result.metrics.setdefault(
        "wall_seconds", Metric("wall_seconds", wall, kind="timing", unit="s")
    )
    return result


#: Per-worker-process state: the registry and the shared context are
#: built once by the pool initializer, so a worker running several
#: scenarios reuses its labs exactly like the serial path does.
_worker_state: dict = {}


def _worker_init(tier: str, seed: int, bench_dir: str) -> None:
    from .registry import BenchRegistry

    _worker_state["registry"] = load_scenarios(
        Path(bench_dir), registry=BenchRegistry()
    )
    _worker_state["context"] = BenchContext(tier=tier, seed=seed)


def _run_in_worker(name: str) -> dict:
    """Process-pool entry point: run one scenario on the worker's state."""
    registry = _worker_state["registry"]
    context = _worker_state["context"]
    return _execute(registry.get(name), context).to_dict()


def run_scenarios(
    scenarios: list[BenchScenario],
    tier: str = "full",
    seed: int = 0,
    jobs: int = 1,
    bench_dir: Path | None = None,
    progress=None,
) -> list[BenchResult]:
    """Run ``scenarios`` and return their results in input order.

    ``progress`` is an optional callable receiving each finished
    :class:`BenchResult` as it lands (the CLI prints a table row).
    """
    if jobs > 1:
        if bench_dir is None:
            raise ValueError("multi-process runs need an explicit bench_dir")
        results_by_name: dict[str, BenchResult] = {}
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_worker_init,
            initargs=(tier, seed, str(bench_dir)),
        ) as pool:
            futures = {
                pool.submit(_run_in_worker, scenario.name): scenario.name
                for scenario in scenarios
            }
            for future in concurrent.futures.as_completed(futures):
                name = futures[future]
                try:
                    result = BenchResult.from_dict(future.result())
                except Exception as exc:
                    # A worker that died outside _execute's own capture
                    # (import error in a bench file, OOM-killed process,
                    # broken pool) still yields a recorded failure
                    # instead of losing the whole run's artifacts.
                    result = BenchResult(
                        scenario=name, tier=tier, seed=seed,
                        wall_seconds=0.0,
                        environment=environment_fingerprint(),
                        error=f"worker failed: {exc!r}",
                    )
                results_by_name[name] = result
                if progress is not None:
                    progress(result)
        return [results_by_name[s.name] for s in scenarios]

    context = BenchContext(tier=tier, seed=seed)
    results = []
    for scenario in scenarios:
        result = _execute(scenario, context)
        results.append(result)
        if progress is not None:
            progress(result)
    return results


def write_artifacts(results: list[BenchResult], output_dir: Path) -> Path:
    """Write per-scenario files and append the summary trajectory entry.

    Returns the summary path.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        result.write(output_dir)

    summary_path = output_dir / SUMMARY_FILENAME
    if summary_path.exists():
        try:
            summary = json.loads(summary_path.read_text())
        except json.JSONDecodeError:
            summary = {"runs": []}
        summary.setdefault("runs", [])
    else:
        summary = {"runs": []}

    entry = {
        "sequence": len(summary["runs"]) + 1,
        "tier": results[0].tier if results else "full",
        "seed": results[0].seed if results else 0,
        "environment": results[0].environment if results else {},
        "total_seconds": round(sum(r.wall_seconds for r in results), 6),
        "failures": sorted(r.scenario for r in results if not r.ok),
        "scenarios": {
            r.scenario: {
                "wall_seconds": round(r.wall_seconds, 6),
                "metrics": {name: m.to_dict() for name, m in r.metrics.items()},
                "error": r.error,
            }
            for r in results
        },
    }
    summary["runs"].append(entry)
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary_path
