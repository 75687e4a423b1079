"""Command-line interface.

Subcommands::

    python -m repro generate      --scale 0.02 --skew 0          # describe a DB
    python -m repro explain       --sql "SELECT ..."             # show the plan
    python -m repro predict       --sql "SELECT ..." [--sr 0.05] # distribution
    python -m repro predict-batch --templates 20 --mpl 1,4       # batch service
    python -m repro serve         --port 8080                    # HTTP front-end
    python -m repro replay        --mix mixed --arrival poisson:20  # load test
    python -m repro bench         [--quick | --full]             # the registry
    python -m repro report        [--quick]                      # paper report

``predict``/``predict-batch``/``serve`` all drive one
:class:`repro.api.Session` built from the same declarative
:class:`repro.api.SessionConfig` — ``serve`` exposes it over the
versioned HTTP/JSON wire schema (see ``docs/api.md``). ``replay``
generates deterministic mixed workloads and drives either an
in-process session or a live ``repro serve`` endpoint with them (see
``docs/replay.md``). ``bench`` runs the registered benchmark scenarios
(see ``docs/benchmarks.md``) and writes ``BENCH_<scenario>.json``
artifacts plus the ``BENCH_summary.json`` trajectory; ``report``
regenerates the paper's tables and figures as one markdown report (the
old ``bench`` behaviour). The CLI regenerates the database from its
config on every invocation (generation is deterministic and fast at
these scales), so it needs no on-disk state.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .api import Session, SessionConfig
from .core import Variant
from .datagen import TpchConfig, generate_tpch
from .errors import PredictionError, ReproError, SessionError
from .executor import Executor
from .hardware import PROFILES
from .optimizer import Optimizer
from .scheduler import SCHEDULER_POLICIES

__all__ = ["main", "build_parser"]

_VARIANT_NAMES = sorted(variant.wire_name for variant in Variant)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Uncertainty-aware query execution time prediction",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_db_args(p):
        p.add_argument("--scale", type=float, default=0.02, help="TPC-H scale factor")
        p.add_argument("--skew", type=float, default=0.0, help="Zipf z (0 = uniform)")
        p.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("generate", help="generate a TPC-H database and describe it")
    add_db_args(gen)

    explain = sub.add_parser("explain", help="show the optimized plan for a query")
    add_db_args(explain)
    explain.add_argument("--sql", required=True)

    predict = sub.add_parser("predict", help="predict a running-time distribution")
    add_db_args(predict)
    predict.add_argument("--sql", required=True)
    predict.add_argument("--sr", type=float, default=0.05, help="sampling ratio")
    predict.add_argument(
        "--machine", choices=sorted(PROFILES), default="PC2", help="hardware profile"
    )
    predict.add_argument(
        "--execute", action="store_true",
        help="also execute and report the simulated actual time",
    )

    batch = sub.add_parser(
        "predict-batch", help="serve a batch of queries through the service"
    )
    add_db_args(batch)
    source = batch.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--sql", action="append", default=None,
        help="a query to serve (repeatable)",
    )
    source.add_argument(
        "--file", default=None,
        help="file with one SQL query per line (blank lines and # comments skipped)",
    )
    source.add_argument(
        "--templates", type=int, default=None, metavar="N",
        help="serve N TPC-H template instantiations",
    )
    batch.add_argument("--sr", type=float, default=0.05, help="sampling ratio")
    batch.add_argument(
        "--machine", choices=sorted(PROFILES), default="PC2", help="hardware profile"
    )
    batch.add_argument(
        "--variants", default="all",
        help="comma-separated predictor variants "
        f"({', '.join(_VARIANT_NAMES)})",
    )
    batch.add_argument(
        "--mpl", default="1",
        help="comma-separated multiprogramming levels (default: 1)",
    )
    batch.add_argument(
        "--template-seed", type=int, default=0,
        help="RNG seed for --templates instantiation",
    )

    serve = sub.add_parser(
        "serve", help="serve predictions over HTTP/JSON (see docs/api.md)"
    )
    add_db_args(serve)
    serve.add_argument("--sr", type=float, default=0.05, help="sampling ratio")
    serve.add_argument(
        "--machine", choices=sorted(PROFILES), default="PC2", help="hardware profile"
    )
    serve.add_argument(
        "--estimator", choices=("sampling", "histogram"), default="sampling",
        help="selectivity estimator backend (default: sampling)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 picks an ephemeral one, printed at startup)",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=8,
        help="bounded admission: concurrent prediction requests (default: 8)",
    )
    serve.add_argument(
        "--scheduler", choices=SCHEDULER_POLICIES, default="fifo",
        help="admission policy past --max-in-flight: fifo refuses "
        "immediately (the historical behavior); edf-slack and "
        "budget-fair defer into an uncertainty-aware queue "
        "(see docs/scheduling.md; default: fifo)",
    )
    serve.add_argument(
        "--variants", default="all",
        help="default predictor variants for requests that omit them "
        f"({', '.join(_VARIANT_NAMES)})",
    )
    serve.add_argument(
        "--mpl", default="1",
        help="default comma-separated multiprogramming levels (default: 1)",
    )
    serve.add_argument(
        "--warmup", action="store_true",
        help="pre-serve one instantiation of every TPC-H template at startup",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="pre-fork worker processes sharing the port, each with its "
        "own session and cache shard (default: 1 — single-process)",
    )
    serve.add_argument(
        "--serving-mode", choices=("auto", "reuseport", "handoff"),
        default="auto",
        help="how workers share the port: kernel SO_REUSEPORT balancing "
        "or parent-socket handoff (default: auto-detect)",
    )

    replay = sub.add_parser(
        "replay",
        help="replay a deterministic workload against the serving stack "
        "(see docs/replay.md)",
    )
    add_db_args(replay)
    replay.add_argument("--sr", type=float, default=0.05, help="sampling ratio")
    replay.add_argument(
        "--machine", choices=sorted(PROFILES), default="PC2", help="hardware profile"
    )
    replay.add_argument(
        "--mix", default="mixed",
        help="workload mix: a preset (tpch, micro, mixed, multitenant) "
        "or kind=weight,... (default: mixed)",
    )
    replay.add_argument(
        "--arrival", default="poisson:20",
        help="open-loop arrival process: poisson:<rate>, uniform:<rate>, "
        "bursty:<rate>[:factor[:period[:on_fraction]]] (default: poisson:20)",
    )
    replay.add_argument(
        "--clients", type=int, default=None,
        help="switch to closed-loop with N concurrent clients "
        "(overrides --arrival)",
    )
    replay.add_argument(
        "--requests", type=int, default=10,
        help="closed-loop requests per client (default: 10)",
    )
    replay.add_argument(
        "--think", type=float, default=0.0,
        help="closed-loop think time between requests, seconds (default: 0)",
    )
    replay.add_argument(
        "--duration", type=float, default=5.0,
        help="open-loop schedule horizon in seconds (default: 5)",
    )
    replay.add_argument(
        "--time-scale", type=float, default=1.0,
        help="multiply open-loop arrival offsets (0.5 replays twice as fast)",
    )
    replay.add_argument(
        "--deadline-ms", type=int, default=None,
        help="stamp a per-request latency budget (ms) on every scheduled "
        "request whose mix component does not set its own; the report "
        "then quotes the deadline-miss rate (see docs/scheduling.md)",
    )
    replay.add_argument(
        "--target", default="inproc",
        help="'inproc' (default) or a live endpoint base URL, "
        "e.g. http://127.0.0.1:8080",
    )
    replay.add_argument(
        "--retries-503", type=int, default=0,
        help="HTTP target: retry admission-refused requests up to N times "
        "behind a seeded jittered backoff (default: 0 — observe the 503s)",
    )
    replay.add_argument(
        "--replay-seed", type=int, default=0,
        help="seed for the request schedule (queries + arrival times)",
    )
    replay.add_argument(
        "--calibrate", action="store_true",
        help="also measure prediction-interval coverage under load vs idle "
        "(executes each distinct query once for simulated ground truth)",
    )
    replay.add_argument(
        "--observe", action="store_true",
        help="after the replay, re-drive the schedule through the online "
        "feedback loop: each prediction's simulated actual runtime is fed "
        "back via /v1/observe and online-vs-static interval coverage is "
        "reported (see docs/feedback.md)",
    )
    replay.add_argument(
        "--shift-at", type=float, default=None, metavar="FRACTION",
        help="with --observe: inject a hardware/load shift at this "
        "fraction of the schedule (actual runtimes multiplied by "
        "--shift-factor from there on)",
    )
    replay.add_argument(
        "--shift-factor", type=float, default=3.0,
        help="with --observe --shift-at: the post-shift actual-runtime "
        "multiplier (default: 3.0)",
    )
    replay.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the report as JSON instead of text",
    )
    replay.add_argument(
        "--quick", action="store_true",
        help="canned short run: one seeded mixed schedule replayed against "
        "BOTH the in-process session and an ephemeral HTTP server, with "
        "determinism and bitwise cross-target checks",
    )

    bench = sub.add_parser(
        "bench", help="run registered benchmark scenarios, emit JSON artifacts"
    )
    tier = bench.add_mutually_exclusive_group()
    tier.add_argument(
        "--quick", action="store_true",
        help="fast CI tier: reduced workloads, quick-eligible scenarios only",
    )
    tier.add_argument(
        "--full", action="store_true",
        help="every scenario at full workload (the default)",
    )
    bench.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="run exactly this scenario (repeatable; overrides the tier gate)",
    )
    bench.add_argument(
        "-k", "--filter", default=None, metavar="PATTERN",
        help="fnmatch/substring filter on scenario names and tags",
    )
    bench.add_argument(
        "--jobs", type=int, default=1,
        help="fan scenarios out across N worker processes (default: 1)",
    )
    bench.add_argument(
        "--output-dir", default=".",
        help="where BENCH_*.json artifacts land (default: cwd)",
    )
    bench.add_argument(
        "--bench-dir", default=None,
        help="directory holding bench_*.py files (default: ./benchmarks)",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the selected scenarios and exit",
    )
    bench.add_argument(
        "--no-artifacts", action="store_true",
        help="run without writing BENCH_*.json files",
    )

    report = sub.add_parser(
        "report", help="regenerate the paper's tables/figures as one report"
    )
    report.add_argument("--quick", action="store_true")
    report.add_argument("--output", default=None)
    report.add_argument("--seed", type=int, default=0)

    staticcheck = sub.add_parser(
        "staticcheck",
        help="run the repo's concurrency/determinism static analysis",
        description="Thin launcher for tools/staticcheck; every argument "
        "after the subcommand is passed through unchanged "
        "(--select, --jobs, --format, --baseline, ...).",
    )
    staticcheck.add_argument(
        "staticcheck_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to tools/staticcheck",
    )

    return parser


def _database(args):
    config = TpchConfig(scale_factor=args.scale, skew_z=args.skew, seed=args.seed)
    return generate_tpch(config), config


def _cmd_generate(args, out) -> int:
    """Generate the TPC-H database for ``--scale/--skew/--seed``, describe it."""
    db, config = _database(args)
    print(f"generated {config.describe()}", file=out)
    for name in db.table_names:
        table = db.table(name)
        print(f"  {name:>10}: {table.num_rows:>9} rows, {table.num_pages:>6} pages", file=out)
    return 0


def _cmd_explain(args, out) -> int:
    """Plan ``--sql`` through the optimizer and print the physical plan."""
    db, _ = _database(args)
    planned = Optimizer(db).plan_sql(args.sql)
    print(planned.explain(), file=out)
    return 0


def _session_config(args, **overrides) -> SessionConfig:
    """The declarative session config shared by predict/predict-batch/serve.

    Seed layout matches the historical hand-wired CLI: the simulator is
    seeded with ``--seed``, the sample database with ``--seed + 1``.
    """
    try:
        return SessionConfig(
            scale_factor=args.scale,
            skew_z=args.skew,
            db_seed=args.seed,
            machine=args.machine,
            calibration_seed=args.seed,
            sampling_ratio=args.sr,
            sampling_seed=args.seed + 1,
            **overrides,
        )
    except SessionError as error:
        raise SystemExit(str(error)) from None


def _cmd_predict(args, out) -> int:
    """Predict one query's running-time distribution (optionally execute).

    Builds a session from the CLI's database/calibration flags, prints
    the plan, the predicted mean/std, and the configured confidence
    intervals; ``--execute`` also runs the plan on the simulated
    hardware for a ground-truth comparison.
    """
    session = Session(_session_config(args))
    print(session.explain(args.sql), file=out)
    response = session.predict(args.sql)
    result = response.results[0]
    print(f"\npredicted mean : {result.mean:.4f} s", file=out)
    print(f"predicted std  : {result.std:.4f} s", file=out)
    for interval in result.intervals:
        print(
            f"{interval.confidence:>6.0%} interval : "
            f"[{interval.low:.4f} s, {interval.high:.4f} s]",
            file=out,
        )
    if args.execute:
        executed = Executor(session.database).execute(session.plan(args.sql))
        actual = session.simulator.run_repeated(executed.counts)
        print(f"actual (sim)   : {actual:.4f} s", file=out)
    return 0


def _batch_queries(args) -> list[str]:
    if args.sql:
        return list(args.sql)
    if args.file:
        with open(args.file) as handle:
            lines = [line.strip() for line in handle]
        return [line for line in lines if line and not line.startswith("#")]
    from .util import ensure_rng
    from .workloads.tpch_templates import TPCH_TEMPLATES

    rng = ensure_rng(args.template_seed)
    return [
        TPCH_TEMPLATES[i % len(TPCH_TEMPLATES)].instantiate(rng)
        for i in range(args.templates)
    ]


def _parse_variants(spec: str) -> tuple[str, ...]:
    names = []
    for name in spec.split(","):
        try:
            names.append(Variant.from_name(name).wire_name)
        except PredictionError:
            raise SystemExit(
                f"unknown variant {name.strip().lower()!r}; choose from "
                f"{', '.join(_VARIANT_NAMES)}"
            ) from None
    return tuple(names)


def _parse_mpls(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(level) for level in spec.split(","))
    except ValueError:
        raise SystemExit(
            f"--mpl expects comma-separated integers, got {spec!r}"
        ) from None


def _cmd_predict_batch(args, out) -> int:
    """Serve a batch (``--sql``/``--file``/``--templates``) through a session.

    Prints one row per query (mean, std, 90% interval, cache state)
    plus the serving counters; failed queries become per-row errors and
    exit status 1 rather than aborting the batch.
    """
    queries = _batch_queries(args)
    if not queries:
        print("no queries to serve", file=out)
        return 1
    variants = _parse_variants(args.variants)
    mpls = _parse_mpls(args.mpl)
    session = Session(
        _session_config(args, default_variants=variants, default_mpls=mpls)
    )
    # Failures are skipped: one malformed statement yields a per-query
    # error row, not an aborted batch; the exit code still reports it.
    batch = session.predict_batch(queries)

    header = f"{'#':>3}  {'mean':>9}  {'std':>9}  {'90% interval':>22}  cache"
    print(header, file=out)
    failure_by_index = {failure.index: failure for failure in batch.failures}
    responses = iter(batch.responses)
    for index in range(len(queries)):
        failure = failure_by_index.get(index)
        if failure is not None:
            print(f"{index:>3}  ERROR [{failure.code}]  {failure.error}", file=out)
            continue
        response = next(responses)
        result = response.result(variants[0], mpls[0])
        interval = result.interval(0.90)
        cache = "hit" if response.prepare_was_cached else "miss"
        print(
            f"{index:>3}  {result.mean:>8.4f}s  {result.std:>8.4f}s  "
            f"[{interval.low:>8.4f}s, {interval.high:>8.4f}s]  {cache}",
            file=out,
        )
        for mpl in mpls[1:]:
            loaded = response.result(variants[0], mpl)
            print(
                f"{'':>3}  {loaded.mean:>8.4f}s  {loaded.std:>8.4f}s  "
                f"(mpl={mpl})",
                file=out,
            )
    stats = batch.stats
    print(
        f"\nserved {len(batch)} of {len(queries)} queries in "
        f"{batch.elapsed_seconds:.3f}s "
        f"({batch.queries_per_second:.1f} q/s) — "
        f"{stats.prepares_run} prepares, {stats.prepare_cache_hits} cache hits "
        f"(hit rate {stats.describe_hit_rate()}), "
        f"{stats.assemblies} assemblies",
        file=out,
    )
    for line in session.stats().cache_lines():
        print(line, file=out)
    if batch.failures:
        print(f"{len(batch.failures)} queries failed", file=out)
        return 1
    return 0


def _install_drain_handlers(handler) -> None:
    """Route SIGTERM/SIGINT to ``handler`` when running on the main thread.

    Signal delivery is a main-thread privilege; test harnesses driving
    the serve command from a worker thread keep the default disposition
    (and exercise graceful drain through the worker pool instead).
    """
    import signal

    try:
        signal.signal(signal.SIGTERM, handler)
        signal.signal(signal.SIGINT, handler)
    except ValueError:
        pass


def _cmd_serve(args, out) -> int:
    """Expose a session over the versioned HTTP/JSON wire schema.

    Binds the threaded front-end (``docs/api.md``) on ``--host/--port``
    with bounded admission (``--max-in-flight``); the printed
    "listening on" line is the startup contract tools parse. With
    ``--workers N > 1``, pre-forks N processes sharing the port (see
    ``docs/serving.md``), each with its own session and cache shard.
    Both paths drain in-flight requests on SIGTERM/SIGINT.
    """
    import threading

    from .api.wire import SCHEMA_VERSION
    from .serving import build_server

    variants = _parse_variants(args.variants)
    mpls = _parse_mpls(args.mpl)
    config = _session_config(
        args,
        estimator=args.estimator,
        default_variants=variants,
        default_mpls=mpls,
        scheduler_policy=args.scheduler,
    )
    if args.workers != 1:
        return _serve_pool(args, out, config)
    print(
        f"building session (scale {args.scale}, machine {args.machine}, "
        f"estimator {args.estimator}) ...",
        file=out, flush=True,
    )
    session = Session(config)
    if args.warmup:
        warmed = session.warmup()
        print(f"warmed {warmed} template queries", file=out, flush=True)
    server = build_server(
        session, host=args.host, port=args.port,
        max_in_flight=args.max_in_flight,
    )
    # The "listening on" line is the startup contract: tools/http_smoke.py
    # and operators parse the (possibly ephemeral) bound address from it.
    print(
        f"repro serve listening on {server.url} "
        f"(wire schema v{SCHEMA_VERSION}, max in-flight {args.max_in_flight}, "
        f"scheduler {args.scheduler})",
        file=out, flush=True,
    )

    def _drain(signum, frame):
        print("shutting down", file=out, flush=True)
        # shutdown() blocks until serve_forever exits; this (main)
        # thread is inside serve_forever, so it must run elsewhere.
        threading.Thread(target=server.shutdown, daemon=True).start()

    _install_drain_handlers(_drain)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=out)
    finally:
        # server_close joins in-flight handler threads: admitted
        # requests finish before the process exits.
        server.server_close()
        session.close()
    return 0


def _serve_pool(args, out, config) -> int:
    """The ``--workers N`` serve path: pre-fork pool, drain on signal."""
    import threading

    from .api.wire import SCHEMA_VERSION
    from .serving import WorkerPool

    print(
        f"starting {args.workers} workers (scale {args.scale}, machine "
        f"{args.machine}, estimator {args.estimator}, mode "
        f"{args.serving_mode}) ...",
        file=out, flush=True,
    )
    pool = WorkerPool(
        args.workers,
        config=config,
        host=args.host,
        port=args.port,
        max_in_flight=args.max_in_flight,
        mode=args.serving_mode,
        warmup=args.warmup,
    )
    pool.start()
    print(
        f"repro serve listening on {pool.url} "
        f"(wire schema v{SCHEMA_VERSION}, max in-flight "
        f"{args.max_in_flight} per worker, workers {args.workers}, "
        f"mode {pool.mode}, scheduler {config.scheduler_policy})",
        file=out, flush=True,
    )
    stop = threading.Event()
    _install_drain_handlers(lambda signum, frame: stop.set())
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    print("shutting down", file=out, flush=True)
    codes = pool.stop()
    return 0 if all(code == 0 for code in codes) else 1


def _replay_load_model(args):
    """The load model requested by the CLI flags (closed wins over open)."""
    from .replay import ClosedLoop, parse_arrival

    if args.clients is not None:
        return ClosedLoop(
            clients=args.clients,
            requests_per_client=args.requests,
            think_seconds=args.think,
        )
    return parse_arrival(args.arrival)


def _cmd_replay(args, out) -> int:
    """Replay a deterministic workload against the serving stack.

    ``--target inproc`` builds a session in this process;
    ``--target http://...`` drives a live ``repro serve`` endpoint
    (the schedule is built locally from the same database config, which
    regenerates deterministically). ``--quick`` runs the canned
    both-targets determinism check instead. Exit status 1 when any
    request failed or a ``--quick`` cross-check did not hold.
    """
    from .replay import (
        HttpTarget,
        InProcessTarget,
        ReplayReport,
        ReplayRunner,
        build_schedule,
        parse_mix,
    )
    from .replay.report import calibration_under_load

    if args.quick:
        return _cmd_replay_quick(args, out)
    try:
        mix = parse_mix(args.mix)
        load = _replay_load_model(args)
    except ReproError as error:
        raise SystemExit(str(error)) from None

    config = _session_config(args)
    if args.target == "inproc":
        # --json promises parseable stdout: progress chatter stays off it.
        if not args.as_json:
            print("building in-process session ...", file=out, flush=True)
        session = Session(config)
        target = InProcessTarget(session)
        database = session.database
    elif args.target.startswith(("http://", "https://")):
        from .api import ClientConfig, HttpClient

        target = HttpTarget(
            HttpClient(
                args.target,
                config=ClientConfig(
                    retries_503=args.retries_503,
                    backoff_seed=args.replay_seed,
                ),
            )
        )
        session = None
        database, _ = _database(args)
    else:
        raise SystemExit(
            f"--target must be 'inproc' or an http(s) URL, got {args.target!r}"
        )

    schedule = build_schedule(
        mix, database, load,
        seed=args.replay_seed, duration_seconds=args.duration,
        deadline_ms=args.deadline_ms,
    )
    if not args.as_json:
        print(schedule.describe(), file=out, flush=True)
    run = ReplayRunner(target, time_scale=args.time_scale).run(schedule)
    calibration = None
    trajectory = None
    if args.calibrate or args.observe:
        if session is None:
            if not args.as_json:
                print(
                    "calibrating against a local mirror session ...",
                    file=out, flush=True,
                )
            session = Session(config)
    if args.calibrate:
        calibration = calibration_under_load(run, session)
    if args.observe:
        # The mirror session stays observation-free: it is both the
        # static control arm and the simulated-ground-truth oracle.
        from .replay import run_feedback_loop

        mirror = Session(config) if target.name == "inproc" else session
        trajectory = run_feedback_loop(
            schedule, target, mirror,
            shift_at=args.shift_at, shift_factor=args.shift_factor,
        )
    report = ReplayReport.from_run(run, calibration=calibration)
    if args.as_json:
        # wire.dumps rejects NaN/inf: a poisoned latency estimate fails
        # loudly here instead of emitting invalid JSON to a pipeline.
        from .api import wire

        record = report.to_dict()
        if trajectory is not None:
            record["feedback"] = trajectory.summary()
        print(wire.dumps(record, indent=2), file=out)
    else:
        print(report.render(), file=out)
        if trajectory is not None:
            print("", file=out)
            print(trajectory.render(), file=out)
    return 1 if report.requests_failed else 0


def _cmd_replay_quick(args, out) -> int:
    """The canned ``repro replay --quick`` acceptance run.

    One seeded mixed TPC-H/micro schedule is built twice (fingerprints
    must match), replayed against the in-process session, replayed
    again in-process (predictions must be bitwise identical), then
    replayed against an ephemeral HTTP server sharing the session
    (responses must be bitwise identical across the wire).
    """
    import threading

    from .api import ClientConfig, HttpClient
    from .replay import (
        HttpTarget,
        InProcessTarget,
        PoissonArrivals,
        ReplayReport,
        ReplayRunner,
        build_schedule,
        parse_mix,
    )
    from .replay.report import calibration_under_load
    from .serving import build_server

    mix = parse_mix("mixed")
    arrival = PoissonArrivals(rate=30.0)
    config = _session_config(args)
    print("building in-process session ...", file=out, flush=True)
    session = Session(config)

    schedule = build_schedule(
        mix, session.database, arrival,
        seed=args.replay_seed, duration_seconds=1.0,
    )
    rebuilt = build_schedule(
        mix, session.database, arrival,
        seed=args.replay_seed, duration_seconds=1.0,
    )
    schedules_match = schedule.fingerprint() == rebuilt.fingerprint()
    print(schedule.describe(), file=out, flush=True)

    runner = ReplayRunner(InProcessTarget(session), time_scale=0.2)
    first = runner.run(schedule)
    second = runner.run(schedule)
    inproc_match = first.results_signature() == second.results_signature()
    calibration = calibration_under_load(first, session)
    print("\n-- in-process --", file=out)
    print(
        ReplayReport.from_run(second, calibration=calibration).render(),
        file=out, flush=True,
    )

    server = build_server(session, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        http_target = HttpTarget(
            HttpClient(
                server.url,
                config=ClientConfig(
                    retries_503=3, backoff_seed=args.replay_seed
                ),
            )
        )
        http_run = ReplayRunner(http_target, time_scale=0.2).run(schedule)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    http_match = (
        http_run.results_signature() == first.results_signature()
    )
    print("\n-- http --", file=out)
    print(ReplayReport.from_run(http_run).render(), file=out)

    checks = {
        "identical schedules from one seed": schedules_match,
        "bitwise-identical in-process replays": inproc_match,
        "bitwise-identical responses over http": http_match,
        "no failed requests": not (first.failed or second.failed or http_run.failed),
    }
    print("", file=out)
    for label, passed in checks.items():
        print(f"{'ok ' if passed else 'FAIL'} {label}", file=out)
    return 0 if all(checks.values()) else 1


def _cmd_bench(args, out) -> int:
    """Run registered benchmark scenarios, write ``BENCH_*.json`` artifacts.

    Loads every ``benchmarks/bench_*.py`` into a fresh registry,
    selects by tier/name/pattern, and runs them with the shared
    :class:`~repro.benchreport.BenchContext` (see ``docs/benchmarks.md``).
    """
    from pathlib import Path

    from .benchreport import (
        BenchRegistry,
        load_scenarios,
        run_scenarios,
        write_artifacts,
    )
    from .benchreport.registry import default_bench_dir

    bench_dir = Path(args.bench_dir) if args.bench_dir else default_bench_dir()
    # A fresh registry per invocation: in-process callers (tests, other
    # tools) must not see scenarios accumulated from earlier loads.
    registry = load_scenarios(bench_dir, registry=BenchRegistry())
    tier = "quick" if args.quick else "full"
    selected = registry.select(
        tier=tier, names=args.scenario, pattern=args.filter
    )
    if not selected:
        print("no scenarios selected", file=out)
        return 1
    if args.list_scenarios:
        for scenario in selected:
            tags = f" [{', '.join(scenario.tags)}]" if scenario.tags else ""
            quick = "quick" if scenario.quick else "full-only"
            print(f"{scenario.name:<26} {quick:<9}{tags}", file=out)
        return 0

    print(
        f"running {len(selected)} scenarios, tier={tier}, seed={args.seed}"
        + (f", jobs={args.jobs}" if args.jobs > 1 else ""),
        file=out,
    )

    def progress(result):
        status = "ok" if result.ok else "FAILED"
        print(
            f"  {result.scenario:<26} {result.wall_seconds:>8.2f}s  "
            f"{len(result.metrics):>2} metrics  {status}",
            file=out,
        )

    results = run_scenarios(
        selected, tier=tier, seed=args.seed, jobs=args.jobs,
        bench_dir=bench_dir, progress=progress,
    )
    total = sum(r.wall_seconds for r in results)
    failures = [r for r in results if not r.ok]
    if not args.no_artifacts:
        summary_path = write_artifacts(results, Path(args.output_dir))
        print(f"artifacts in {Path(args.output_dir).resolve()}", file=out)
        print(f"summary appended to {summary_path}", file=out)
    print(
        f"{len(results) - len(failures)}/{len(results)} scenarios ok "
        f"in {total:.1f}s",
        file=out,
    )
    for result in failures:
        print(f"\nFAILED {result.scenario}:\n{result.error}", file=out)
    return 1 if failures else 0


def _cmd_report(args, out) -> int:
    """Regenerate the paper's tables and figures as one markdown report."""
    from .experiments.run_all import build_lab, report_sections

    lab = build_lab(quick=args.quick, seed=args.seed)
    if args.output:
        with open(args.output, "w") as handle:
            report_sections(lab, handle)
        print(f"report written to {args.output}", file=out)
    else:
        report_sections(lab, out)
    return 0


def _cmd_staticcheck(args, out) -> int:
    """Run ``tools/staticcheck`` in-process against the source checkout.

    The tool lives in the repo, not the installed package: locate it
    relative to this file and forward the remaining argv unchanged, so
    ``repro staticcheck --select lock-discipline --jobs 4`` behaves
    exactly like ``python tools/staticcheck ...``.
    """
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[2]
    tools_dir = repo_root / "tools"
    if not (tools_dir / "staticcheck" / "__init__.py").is_file():
        print(
            f"repro staticcheck: tools/staticcheck not found under "
            f"{repo_root}; a source checkout is required",
            file=out,
        )
        return 2
    sys.path.insert(0, str(tools_dir))
    try:
        from staticcheck.runner import main as staticcheck_main
    finally:
        sys.path.remove(str(tools_dir))
    forwarded = list(args.staticcheck_args)
    if forwarded[:1] == ["--"]:
        forwarded = forwarded[1:]
    return staticcheck_main(forwarded)


_COMMANDS = {
    "generate": _cmd_generate,
    "explain": _cmd_explain,
    "predict": _cmd_predict,
    "predict-batch": _cmd_predict_batch,
    "serve": _cmd_serve,
    "replay": _cmd_replay,
    "bench": _cmd_bench,
    "report": _cmd_report,
    "staticcheck": _cmd_staticcheck,
}


def main(argv=None, out=None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out or sys.stdout)


if __name__ == "__main__":
    raise SystemExit(main())
