"""Workload replay: drive the serving stack with sustained mixed traffic.

Builds one session, then replays a seeded multi-tenant workload three
ways and prints the full load reports:

1. open-loop Poisson arrivals against the in-process session, with the
   under-load calibration check (interval coverage vs simulated ground
   truth, and the bitwise predictions-match-idle flag);
2. the same schedule replayed again — bitwise-identical by contract;
3. closed-loop clients against an ephemeral HTTP server with bounded
   admission — zero 503s while clients stay below the cap.

Run:  python examples/replay_workload.py
"""

import threading

from repro import HttpClient, Session, SessionConfig
from repro.replay import (
    ClosedLoop,
    HttpTarget,
    InProcessTarget,
    PoissonArrivals,
    ReplayReport,
    ReplayRunner,
    build_schedule,
    parse_mix,
)
from repro.replay.report import calibration_under_load
from repro.serving import build_server


def main() -> None:
    print("1. building the session (TPC-H scale 0.01, machine PC2) ...")
    session = Session(
        SessionConfig(scale_factor=0.01, db_seed=5, calibration_repetitions=6)
    )

    mix = parse_mix("multitenant")
    schedule = build_schedule(
        mix, session.database, PoissonArrivals(rate=30.0),
        seed=17, duration_seconds=2.0,
    )
    print("\n2. the schedule (deterministic given the seed):")
    print(schedule.describe())

    print("\n3. open-loop replay against the in-process session ...")
    runner = ReplayRunner(InProcessTarget(session), time_scale=0.25)
    run = runner.run(schedule)
    calibration = calibration_under_load(run, session, confidence=0.9)
    print(ReplayReport.from_run(run, calibration=calibration).render())

    print("\n4. replaying the identical schedule again ...")
    again = runner.run(schedule)
    identical = run.results_signature() == again.results_signature()
    print(f"   bitwise-identical predictions across replays: {identical}")

    print("\n5. closed-loop clients against an HTTP server (admission cap 8) ...")
    server = build_server(session, port=0, max_in_flight=8)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        closed = build_schedule(
            mix, session.database,
            ClosedLoop(clients=4, requests_per_client=8, think_seconds=0.005),
            seed=17,
        )
        http_run = ReplayRunner(HttpTarget(HttpClient(server.url))).run(closed)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    print(ReplayReport.from_run(http_run).render())
    refused = http_run.error_counts().get("over-capacity", 0)
    print(
        f"   503 refusals with 4 clients under an 8-slot cap: {refused} "
        f"(max observed in flight: {http_run.max_in_flight})"
    )


if __name__ == "__main__":
    main()
