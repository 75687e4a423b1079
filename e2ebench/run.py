"""End-to-end benchmark of the uncertainty-aware prediction stack.

Runs one named workload (see ``workloads.py``) at one seed against the
default system and prints every metric by name and unit; the last line
of standard output is one JSON object::

    python3 e2ebench/run.py --workload cold-stream --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs the timed phase twice, half the seconds each: first
untraced, then with spans recorded around every layer's entry points
(``tracing.py``); it prints the per-layer metrics, including the
tracing overhead as untraced over traced throughput, and writes the
spans to ``e2ebench/out/``.

Every run checks its outputs (``checks.py``). When a check fails it
still prints the result, with ``"correct": false``, and exits 1 naming
the workload and the failed check; it exits 2 when it cannot run at
all, 3 when teardown hangs, and 128 + the signal number when
interrupted. It starts
no subprocess, binds only ``127.0.0.1:0``, writes only under
``e2ebench/out/``, and at exit asserts that no child process, thread
or listening socket is left.
"""

import time

_STARTED = time.perf_counter()  # "process start" for setup_s

import argparse  # noqa: E402 — the clock above must start first
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True  # write nothing outside the output directory
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
for _entry in (str(HERE.parent / "src"), str(HERE)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

#: Names the metrics to print: the end-to-end ones with --trace 0, the
#: per-layer ones with --trace 1.
BENCHMARK_FILE = HERE.parent / "BENCHMARK.json"

#: The feedback layer's per-layer metric. Only online-mix sends observes,
#: and BENCHMARK.json does not list online-mix while the program fails its
#: nesting check (see ``workloads.py``), so it is printed, beside the
#: listed metrics, by traced runs that called the feedback layer.
FEEDBACK_METRIC = "feedback.observe_ms"


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_FILE.read_text())


def metric_units(benchmark: dict, trace: int, metrics: dict) -> dict[str, str]:
    """Metric name -> unit of the metrics a run prints."""
    table = benchmark["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in table}
    if FEEDBACK_METRIC in metrics:
        units[FEEDBACK_METRIC] = "ms"
    return units


class Interrupted(BaseException):
    """SIGINT or SIGTERM arrived; unwinds through every ``finally``."""

    def __init__(self, signum: int):
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


def _interrupt(signum, frame):
    # A second signal must not cut teardown short.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise Interrupted(signum)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="e2ebench", description=__doc__.split("\n\n")[0]
    )
    # Checked against ``workloads.WORKLOADS`` once the program imports.
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(phase, metrics: dict, samples: dict) -> None:
    """p50/p90/p99 per request, each with how many samples lie beyond it."""
    import numpy as np

    latencies_ms = np.asarray(phase.latencies) * 1e3
    for percentile in (50, 90, 99):
        name = f"latency_p{percentile}_ms"
        value = float(np.percentile(latencies_ms, percentile))
        metrics[name] = value
        samples[name] = (
            f"{latencies_ms.size} requests, "
            f"{int(np.sum(latencies_ms > value))} beyond"
        )


def set_up(workload, repeats: int) -> float:
    """Build the workload's stack ``repeats`` times; keep the last.

    Returns ``setup_s``: the time from process start to the first timed
    request, with the repeated set-ups counted once, at their median.
    """
    builds = []
    before = time.perf_counter()
    for repeat in range(repeats):
        if repeat:
            workload.close()
            gc.collect()
        started = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - started)
    return before - _STARTED + statistics.median(builds)


def measure(workload, args, metrics, samples, problems) -> tuple[int, int]:
    """Set up, time, verify; fill ``metrics``, ``samples`` and ``problems``.

    Returns ``(attempted, failed)`` requests over the timed phase(s).
    """
    from checks import actual_seconds, quality

    repeats = 1 if args.trace else workload.shape.setup_repeats
    setup_s = set_up(workload, repeats)
    if args.trace:
        phases = trace_phases(workload, args, metrics, samples)
    else:
        phase = workload.run(args.seconds)
        phases = [phase]
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["throughput_qps"] = workload.throughput(phase)
        latency_metrics(phase, metrics, samples)
        samples["setup_s"] = f"median of {repeats} set-ups"
        samples["peak_rss_mb"] = "high-water mark after timing"
        samples["throughput_qps"] = f"{phase.elapsed:.1f} s timed"
    for phase in phases:
        problems += phase.report()
        if not phase.latencies:
            problems.append("no request completed in the timed phase")
    problems += workload.verify()
    if not args.trace:
        queries, points = workload.quality_set()
        corr, gap = quality(points, actual_seconds(workload.session, queries))
        metrics["error_rank_corr"] = corr
        metrics["coverage_gap_90"] = gap
        for name in ("error_rank_corr", "coverage_gap_90"):
            samples[name] = f"{len(queries)} scored queries"
    return (
        sum(phase.attempted for phase in phases),
        sum(phase.failed for phase in phases),
    )


def trace_phases(workload, args, metrics: dict, samples: dict) -> list:
    """An untraced then a traced half-phase; per-layer metrics from both."""
    from tracing import SpanRecorder

    untraced = workload.run(args.seconds / 2)
    before = workload.session.stats().report
    refused_before = workload.refused()
    recorder = SpanRecorder()
    recorder.install()
    try:
        traced = workload.run(args.seconds / 2)
    finally:
        recorder.uninstall()
    after = workload.session.stats().report
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")

    summary = recorder.summary()
    queries = max(traced.queries, 1)
    requests = max(len(traced.latencies), 1)
    sampling_hits = after.sampling_cache.hits - before.sampling_cache.hits
    sampling_lookups = (
        after.sampling_cache.lookups - before.sampling_cache.lookups
    )
    prepares = after.stats.prepares_run - before.stats.prepares_run
    prepare_hits = (
        after.stats.prepare_cache_hits - before.stats.prepare_cache_hits
    )
    metrics.update({
        "optimizer.plan_ms": summary.mean_ms("optimizer"),
        "sampling.estimate_ms": summary.mean_ms("sampling"),
        "costfuncs.fit_ms": summary.mean_ms("costfuncs"),
        "sampling.engine_hit_ratio": (
            sampling_hits / sampling_lookups if sampling_lookups else 0.0
        ),
        "service.prepares": prepares,
        "service.prepare_hit_ratio": (
            prepare_hits / (prepare_hits + prepares)
            if prepare_hits + prepares else 0.0
        ),
        "service.self_ms_per_query": summary.total_ms("service") / queries,
        "api.session_ms_per_query": summary.total_ms("api.session") / queries,
        "api.wire_ms_per_request": summary.total_ms("api.wire") / requests,
        "serving.transport_ms_per_request": summary.transport_ms() / requests,
        "serving.admission_ms_per_request": (
            summary.total_ms("serving.admission") / requests
        ),
        "serving.app_ms_per_request": summary.total_ms("serving.app") / requests,
        "serving.refused": workload.refused() - refused_before,
        "trace.request_ms": 1e3 * sum(traced.latencies) / requests,
        "trace.overhead_ratio": (
            workload.throughput(untraced) / workload.throughput(traced)
        ),
    })
    if summary.calls.get("feedback"):
        metrics[FEEDBACK_METRIC] = summary.mean_ms("feedback")
    for name in metrics:
        layer = name.rsplit(".", 1)[0]
        if name.endswith("_per_query"):
            samples[name] = f"{traced.queries} queries"
        elif name.endswith(("_per_request", "request_ms")):
            samples[name] = f"{len(traced.latencies)} requests"
        elif name.endswith("_ms"):
            samples[name] = f"{summary.calls.get(layer, 0)} calls"
    return [untraced, traced]


def report(name, metrics, samples, units, correct, attempted, failed):
    """The human-readable table, then the JSON result as the last line."""
    for metric, unit in units.items():
        print(
            f"{name:>12}  {metric:<34} {metrics[metric]:>14.6g} {unit:<6}"
            f"{samples.get(metric, '')}"
        )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }))


def main(argv=None, shape=None) -> int:
    benchmark = load_benchmark()
    args = parse_args(argv)
    try:
        from stack import TeardownError, leaks
        from workloads import FULL, WORKLOADS
    except ImportError as error:
        print(
            f"e2ebench: {args.workload}: cannot import the program "
            f"(expected under {HERE.parent / 'src'}): {error}",
            file=sys.stderr,
        )
        return 2
    if args.workload not in WORKLOADS:
        print(
            f"e2ebench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed, shape or FULL)
    previous = {
        signum: signal.signal(signum, _interrupt)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    signals: list[int] = []
    metrics: dict = {}
    samples: dict = {}
    problems: list[str] = []
    attempted = failed = 0
    crashed = False
    try:
        attempted, failed = measure(workload, args, metrics, samples, problems)
    except Interrupted as error:
        signals.append(error.signum)
    except Exception:  # noqa: BLE001 — report which workload broke, then tear down
        traceback.print_exc()
        problems.append("the run raised the exception above")
        crashed = True
    finally:
        # Teardown always finishes; a signal arriving now is acted on after.
        for signum in previous:
            signal.signal(signum, lambda signum, frame: signals.append(signum))
        try:
            workload.close()
        except TeardownError as error:
            print(f"e2ebench: {args.workload}: teardown: {error}", file=sys.stderr)
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(3)  # a stuck non-daemon thread would otherwise hang exit
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
    problems += [f"leak: {found}" for found in leaks()]
    if failed:
        problems.append(f"{failed} of {attempted} requests failed")
    for problem in problems:
        print(f"e2ebench: {args.workload}: FAILED check: {problem}", file=sys.stderr)
    if signals:
        print(
            f"e2ebench: {args.workload}: interrupted by signal {signals[0]}",
            file=sys.stderr,
        )
        return 128 + signals[0]
    if crashed:
        return 1
    report(
        args.workload, metrics, samples,
        metric_units(benchmark, args.trace, metrics),
        not problems, attempted, failed,
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
