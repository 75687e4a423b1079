"""HTTP serving overhead: the threaded front-end vs the in-process facade.

The serving claim: putting the predictor behind ``repro serve`` (the
stdlib threaded HTTP server + the versioned JSON wire schema) costs
transport and (de)serialization, not prediction quality — responses are
**bitwise identical** to the in-process :class:`repro.api.Session`, and
a warm batch keeps a usable fraction of in-process throughput.

Three measurements on one warmed session (so both paths replay cached
plans/prepares and the numbers isolate serving overhead):

* in-process ``Session.predict_batch`` wall time;
* the same batch as one ``POST /v1/predict-batch``;
* the same queries as individual ``POST /v1/predict`` requests — the
  per-request overhead an online deployment sees (requests/sec is the
  query count over ``http_request_seconds``).

The guarded ratios ``batch_efficiency`` / ``request_efficiency``
(in-process seconds over HTTP seconds; dimensionless, so the guard can
band them across machines) carry hard floors: if the front-end ever
costs 50x the engine, the "cheap enough to serve online" pitch
(Sec. 6.3.4) is broken. ``http_bitwise_agreement`` is a hard-floored
flag: 1.0 only when **every** float of every response — mean, variance,
std, interval bounds — is bitwise identical over HTTP.
"""

import threading

import pytest

from repro.api import HttpClient, Session, SessionConfig
from repro.api.wire import BatchRequest
from repro.benchreport import Metric, register
from repro.serving import build_server
from repro.util import ensure_rng
from repro.workloads.tpch_templates import TPCH_TEMPLATES

BATCH_SIZE = 30
SETUP_CONFIG = SessionConfig(
    scale_factor=0.01,
    db_seed=11,
    calibration_seed=0,
    calibration_repetitions=6,
    sampling_ratio=0.05,
    sampling_seed=1,
    default_variants=("all", "nocov"),
    default_mpls=(1, 4),
)


def _build_serving_setup(batch_size=BATCH_SIZE):
    session = Session(SETUP_CONFIG)
    rng = ensure_rng(21)
    queries = tuple(
        TPCH_TEMPLATES[i % len(TPCH_TEMPLATES)].instantiate(rng)
        for i in range(batch_size)
    )
    return session, queries


@pytest.fixture(scope="module")
def serving_setup():
    session, queries = _build_serving_setup()
    server = build_server(session, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield session, queries, HttpClient(server.url)
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@register("http_serving", tags=("service", "http", "throughput"))
def scenario(ctx):
    """Threaded HTTP front-end vs in-process Session on a warm batch."""
    session, queries = _build_serving_setup(
        batch_size=ctx.pick(quick=12, full=BATCH_SIZE)
    )
    request = BatchRequest(queries=queries)
    session.predict_batch(request)  # warm plans + prepares for both paths

    inproc_seconds, in_process = ctx.best_of(
        lambda: session.predict_batch(request), 3
    )

    server = build_server(session, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = HttpClient(server.url)
        http_seconds, over_http = ctx.best_of(
            lambda: client.predict_batch(request), 3
        )
        request_seconds, _ = ctx.best_of(
            lambda: [client.predict(sql) for sql in queries], 2
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    # Bitwise agreement is part of the scenario: JSON floats round-trip
    # exactly, so any drift means the wire schema corrupted a number.
    # Every serialized float is compared — means, variances, stds, and
    # interval bounds — and the agreement flag has a hard floor, so the
    # guard fails on the first non-identical bit regardless of baseline
    # bands.
    max_diff = max(
        _max_result_diff(got, expected)
        for remote, local in zip(over_http, in_process)
        for got, expected in zip(remote.results, local.results)
    )
    return [
        Metric("inprocess_batch_seconds", inproc_seconds, kind="timing", unit="s"),
        Metric("http_batch_seconds", http_seconds, kind="timing", unit="s"),
        Metric("http_request_seconds", request_seconds, kind="timing", unit="s"),
        # Dimensionless ratios only: absolute requests/sec would be
        # banded across machines by the guard, which gates only timing
        # metrics on the environment fingerprint.
        Metric(
            "batch_efficiency",
            inproc_seconds / http_seconds,
            kind="ratio",
            floor=0.02,
        ),
        Metric(
            "request_efficiency",
            inproc_seconds / request_seconds,
            kind="ratio",
            floor=0.005,
        ),
        Metric(
            "http_bitwise_agreement",
            1.0 if max_diff == 0.0 else 0.0,
            kind="ratio",
            floor=1.0,
        ),
        Metric("http_agreement_max_abs_diff", float(max_diff)),
    ]


def _max_result_diff(got, expected) -> float:
    """The largest absolute drift across every float of one result cell."""
    diffs = [
        abs(got.mean - expected.mean),
        abs(got.variance - expected.variance),
        abs(got.std - expected.std),
    ]
    for got_iv, expected_iv in zip(got.intervals, expected.intervals):
        diffs.append(abs(got_iv.low - expected_iv.low))
        diffs.append(abs(got_iv.high - expected_iv.high))
    return max(diffs)


def test_http_serving_bitwise_and_bounded_overhead(serving_setup):
    session, queries, client = serving_setup
    request = BatchRequest(queries=queries)
    in_process = session.predict_batch(request)
    over_http = client.predict_batch(request)
    assert not over_http.failures
    for remote, local in zip(over_http, in_process):
        assert remote.results == local.results  # exact float equality
    # Warm single-request serving must stay interactive on localhost.
    single = client.predict(queries[0])
    assert single.prepare_was_cached
