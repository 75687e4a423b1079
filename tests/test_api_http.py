"""The HTTP front-end: wire fidelity, error taxonomy, admission.

The load-bearing assertion is `test_http_batch_bitwise_identical`: a
batch of TPC-H template queries served over HTTP must be **bitwise**
equal — means, variances, interval bounds — to the same batch through
the in-process :class:`repro.api.Session`, the acceptance criterion of
the serving front-end.
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import ApiError, HttpClient, Session, SessionConfig
from repro.api.wire import (
    MAX_MPL,
    SCHEMA_VERSION,
    BatchRequest,
    Observation,
    PredictRequest,
    dumps,
)
from repro.errors import (
    OptimizerError,
    ReproError,
    SqlParseError,
    WireError,
)
from repro.serving import build_server, status_for_error
from repro.serving.transport import MAX_BODY_BYTES, ServingHandler
from repro.util import ensure_rng
from repro.workloads.tpch_templates import TPCH_TEMPLATES

SQL = "SELECT COUNT(*) FROM orders WHERE o_totalprice > 100000"


@pytest.fixture(scope="module")
def session(tpch_db, calibrated_units):
    return Session.from_components(
        tpch_db,
        calibrated_units,
        SessionConfig(sampling_ratio=0.05, sampling_seed=3),
    )


@pytest.fixture(scope="module")
def server(session):
    bound = build_server(session, port=0, max_in_flight=4)
    thread = threading.Thread(target=bound.serve_forever, daemon=True)
    thread.start()
    yield bound
    bound.shutdown()
    bound.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def client(server):
    return HttpClient(server.url, timeout=30.0)


def template_queries(count=8):
    rng = ensure_rng(17)
    return [
        TPCH_TEMPLATES[i % len(TPCH_TEMPLATES)].instantiate(rng)
        for i in range(count)
    ]


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["schema_version"] == SCHEMA_VERSION
        assert health["max_in_flight"] == 4

    def test_predict_round_trip(self, client, session):
        over_http = client.predict(SQL)
        in_process = session.predict(SQL)
        assert over_http.results == in_process.results

    def test_stats_endpoint_decodes_to_report(self, client):
        report = client.stats()
        assert report.stats.queries_served >= 1
        assert report.sampling_bytes_budget > 0

    def test_http_batch_bitwise_identical(self, client, session):
        """Acceptance: HTTP == in-process, bitwise, for a template batch."""
        queries = template_queries()
        request = BatchRequest(
            queries=tuple(queries), variants=("all", "nocov"),
            mpls=(1, 4), confidences=(0.5, 0.9, 0.99),
        )
        over_http = client.predict_batch(request)
        in_process = session.predict_batch(request)
        assert len(over_http) == len(queries)
        assert not over_http.failures
        for remote, local in zip(over_http, in_process):
            assert remote.sql == local.sql
            for got, expected in zip(remote.results, local.results):
                # == on the frozen dataclasses is exact float equality:
                # means, variances, stds, and every interval bound.
                assert got == expected

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ApiError) as caught:
            client.request_json("GET", "/v2/predict")
        assert caught.value.status == 404
        assert caught.value.code == "not-found"

    def test_unsupported_method_405(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/predict", data=b"{}", method="PUT"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 405


class TestErrorTaxonomy:
    def test_malformed_sql_is_400_with_parser_message(self, client):
        with pytest.raises(ApiError) as caught:
            client.predict("SELEC nope")
        error = caught.value
        assert error.status == 400
        assert error.code == "sql-parse"
        assert "expected SELECT" in error.remote_message

    def test_bad_json_body_is_400(self, client):
        request = urllib.request.Request(
            f"{client.base_url}/v1/predict", data=b"not json {",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 400

    def test_missing_body_is_400(self, client):
        with pytest.raises(ApiError) as caught:
            client.request_json("POST", "/v1/predict")
        assert caught.value.status == 400

    def test_invalid_fanout_payload_is_400(self, client):
        for payload in (
            {"sql": SQL, "variants": ["warp-speed"]},
            {"sql": SQL, "mpls": [0]},
            {"sql": SQL, "confidences": [1.5]},
        ):
            with pytest.raises(ApiError) as caught:
                client.request_json("POST", "/v1/predict", payload)
            assert caught.value.status == 400
            assert caught.value.code == "bad-request"

    def test_foreign_schema_version_is_400(self, client):
        with pytest.raises(ApiError) as caught:
            client.request_json(
                "POST", "/v1/predict",
                {"sql": SQL, "schema_version": SCHEMA_VERSION + 1},
            )
        assert caught.value.status == 400
        assert caught.value.code == "schema-version"

    def test_batch_failures_carry_codes_not_500s(self, client):
        batch = client.predict_batch([SQL, "SELEC nope"])
        assert len(batch) == 1
        (failure,) = batch.failures
        assert failure.index == 1
        assert failure.code == "sql-parse"

    def test_status_mapping(self):
        assert status_for_error(SqlParseError("x")) == 400
        assert status_for_error(WireError("x")) == 400
        assert status_for_error(OptimizerError("x")) == 422
        assert status_for_error(ReproError("x")) == 422
        assert status_for_error(RuntimeError("x")) == 500

    @pytest.mark.parametrize(
        "path, body, code",
        [
            ("/v1/predict", '{"sql": "%s", "mpls": [1e999]}' % SQL, "bad-request"),
            ("/v1/predict", '{"sql": "%s", "mpls": [1.7]}' % SQL, "bad-request"),
            # Infinity is not a JSON number: refused while parsing.
            (
                "/v1/predict-batch",
                '{"queries": ["%s"], "mpls": [Infinity]}' % SQL,
                "bad-json",
            ),
            (
                "/v1/predict-batch",
                '{"queries": ["%s"], "skip_failures": "no"}' % SQL,
                "bad-request",
            ),
            ("/v1/observe", '{"sql": "%s", "actual_seconds": "x"}' % SQL, "bad-request"),
            ("/v1/observe", '{"sql": "%s", "actual_seconds": [1]}' % SQL, "bad-request"),
            (
                "/v1/observe",
                '{"sql": "%s", "actual_seconds": 1, "mpl": "x"}' % SQL,
                "bad-request",
            ),
            (
                "/v1/observe",
                '{"sql": "%s", "actual_seconds": 1, "mpl": 1e999}' % SQL,
                "bad-request",
            ),
            # More digits than python converts to an int: not a 500.
            (
                "/v1/predict",
                '{"sql": "%s", "mpls": [%s]}' % (SQL, "1" * 5000),
                "bad-json",
            ),
        ],
        ids=[
            "predict-mpl-overflow", "predict-mpl-fraction",
            "batch-mpl-infinity", "batch-skip-failures-string",
            "observe-actual-string", "observe-actual-list",
            "observe-mpl-string", "observe-mpl-overflow",
            "predict-mpl-5000-digits",
        ],
    )
    def test_malformed_fields_are_400_not_500(self, server, path, body, code):
        """A field of the wrong kind is a payload error, never a 500 or a
        silent misreading (``1.7`` is not an mpl, ``"no"`` not a bool)."""
        request = urllib.request.Request(
            f"{server.url}{path}", data=body.encode(), method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=30)
        record = json.loads(caught.value.read())
        assert caught.value.code == 400
        assert record["error"]["code"] == code
        assert server.app.policy.stats().in_flight == 0

    @pytest.mark.parametrize(
        "sql, status, code, names",
        [
            (
                "SELECT * FROM orders WHERE o_totalprice > 'abc'",
                422, "plan", ("o_totalprice", "'abc'"),
            ),
            (
                "SELECT * FROM lineitem WHERE l_shipdate > '1995-03-06'",
                422, "plan", ("l_shipdate", "'1995-03-06'"),
            ),
            (
                "SELECT * FROM lineitem WHERE l_shipdate > DATE ''",
                400, "sql-parse", ("DATE literal ''",),
            ),
        ],
        ids=["string-vs-float", "string-vs-date", "empty-date"],
    )
    def test_wrong_type_literals_are_coded_not_500(
        self, server, sql, status, code, names
    ):
        """A literal that cannot compare with its column is refused where
        its type is known, naming the column and the literal."""
        body = dumps({"sql": sql}).encode()
        request = urllib.request.Request(
            f"{server.url}/v1/predict", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=30)
        record = json.loads(caught.value.read())
        assert caught.value.code == status
        assert record["error"]["code"] == code
        for name in names:
            assert name in record["error"]["message"]
        assert server.app.policy.stats().in_flight == 0

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/predict", '{"sql": "%s", "mpls": [1%s]}' % (SQL, "0" * 400)),
            ("/v1/predict", '{"sql": "%s", "mpls": [%d]}' % (SQL, 2**70)),
            ("/v1/predict", '{"sql": "%s", "mpls": [%d]}' % (SQL, MAX_MPL + 1)),
            ("/v1/predict-batch", '{"queries": ["%s"], "mpls": [1, %d]}' % (SQL, 2**70)),
            ("/v1/observe", '{"sql": "%s", "actual_seconds": 1, "mpl": %d}' % (SQL, 2**70)),
        ],
        ids=["predict-1e400", "predict-2**70", "predict-max+1", "batch-2**70", "observe-2**70"],
    )
    def test_mpls_above_the_bound_are_400(self, server, path, body):
        request = urllib.request.Request(
            f"{server.url}{path}", data=body.encode(), method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=30)
        record = json.loads(caught.value.read())
        assert caught.value.code == 400
        assert record["error"]["code"] == "bad-request"
        assert ".mpl" in record["error"]["message"]
        assert str(MAX_MPL) in record["error"]["message"]
        assert server.app.policy.stats().in_flight == 0

    def test_the_bound_itself_is_served(self, client):
        response = client.request_json(
            "POST", "/v1/predict", {"sql": SQL, "mpls": [8, MAX_MPL]}
        )
        assert [r["mpl"] for r in response["results"]] == [8, MAX_MPL]

    def test_unknown_table_is_422_catalog(self, client):
        # Parseable SQL the catalog refuses: a library error, not a 500.
        with pytest.raises(ApiError) as caught:
            client.predict("SELECT COUNT(*) FROM nosuchtable")
        assert caught.value.status == 422
        assert caught.value.code == "catalog"
        assert "nosuchtable" in caught.value.remote_message


#: A well-formed predict body: a server that ignored a bad length and
#: read to the end of the stream would serve it.
PREDICT_BODY = dumps({"sql": SQL}).encode()


def _raw_post(server, content_length: str) -> bytes:
    """POST :data:`PREDICT_BODY` over a raw socket under a hand-written
    ``Content-Length``, half-close, and return the whole reply."""
    with socket.create_connection(server.server_address[:2], timeout=30) as conn:
        conn.sendall(
            b"POST /v1/predict HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + content_length.encode("latin-1")
            + b"\r\n\r\n" + PREDICT_BODY
        )
        conn.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := conn.recv(65536):
            reply += chunk
    return reply


class TestContentLength:
    """A request's declared body length is checked before a byte of the
    body is read: nothing but a plain decimal count within the bound is
    served, and a body that ends early is refused. No declared size here
    is one the server would really allocate."""

    @pytest.mark.parametrize("content_length", [
        pytest.param("abc", id="not-a-number"),
        pytest.param("1.5", id="fraction"),
        pytest.param("-5", id="negative"),
        pytest.param("+2", id="signed"),
        pytest.param(str(MAX_BODY_BYTES + 1), id="above-the-bound"),
        pytest.param("9" * 5000, id="far-above-the-bound"),
        pytest.param(
            str(len(PREDICT_BODY) + 10), id="body-shorter-than-declared"
        ),
    ])
    def test_refused_with_a_coded_4xx(self, server, client, content_length):
        reply = _raw_post(server, content_length)
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(payload)["error"]["code"] == "bad-request"
        assert server.app.policy.in_flight() == 0
        assert client.predict(SQL).results

    def test_exact_length_with_leading_zeros_is_served(self, server):
        reply = _raw_post(server, "00%d" % len(PREDICT_BODY))
        assert reply.startswith(b"HTTP/1.1 200 ")

    def test_stalled_body_is_refused_with_a_coded_400(
        self, server, client, monkeypatch
    ):
        """A client that declares a body and stops sending it is refused
        once the handler's socket timeout passes, not answered 500."""
        monkeypatch.setattr(ServingHandler, "timeout", 0.5)
        address = server.server_address[:2]
        with socket.create_connection(address, timeout=30) as conn:
            conn.sendall(
                b"POST /v1/predict HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 100\r\n\r\n" + PREDICT_BODY[:8]
            )
            reply = b""
            while chunk := conn.recv(65536):
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(payload)["error"]["code"] == "bad-request"
        assert server.app.policy.in_flight() == 0
        assert client.predict(SQL).results


class TestKeepAlive:
    """Answers on one persistent connection do not wait for the client's
    delayed ACK: the server sends with Nagle's algorithm off."""

    def test_requests_on_one_connection_do_not_stall(self, server):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            started = time.perf_counter()
            for _ in range(25):
                connection.request(
                    "POST", "/v1/predict", body=PREDICT_BODY,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        # Stalled on delayed ACKs, 25 answers take over a second.
        assert elapsed < 0.5, elapsed


class TestObserveLoop:
    """The v2 observation loop over the wire vs in-process, bitwise."""

    def test_observe_then_predict_matches_in_process(
        self, client, tpch_db, calibrated_units
    ):
        # A fresh mirror session with the server's exact configuration:
        # both arms receive the identical observation stream, so their
        # corrected predictions must stay byte-identical throughout.
        mirror = Session.from_components(
            tpch_db,
            calibrated_units,
            SessionConfig(sampling_ratio=0.05, sampling_seed=3),
        )
        tenant = "wire-parity"
        request = PredictRequest(sql=SQL, tenant=tenant, confidences=(0.5, 0.9))
        # Warm the prepared cache on both arms so ``prepare_was_cached``
        # agrees below regardless of what earlier tests served.
        client.predict(request)
        mirror.predict(request)
        base_http = client.predict(request)
        base_local = mirror.predict(request)
        assert dumps(base_http.to_dict()) == dumps(base_local.to_dict())
        assert base_http.feedback is None
        (result,) = base_http.results

        rng = ensure_rng(29)
        ack_http = None
        for _ in range(25):
            observation = Observation(
                sql=SQL,
                actual_seconds=result.mean * float(rng.uniform(0.5, 2.0)),
                tenant=tenant,
                predicted_mean=result.mean,
                predicted_std=result.std,
                variant=result.variant,
                mpl=result.mpl,
            )
            ack_http = client.observe(observation)
            ack_local = mirror.observe(observation)
            assert dumps(ack_http.to_dict()) == dumps(ack_local.to_dict())
        assert ack_http.active
        assert ack_http.observations == 25

        corrected_http = client.predict(request)
        corrected_local = mirror.predict(request)
        assert dumps(corrected_http.to_dict()) == dumps(
            corrected_local.to_dict()
        )
        assert corrected_http.feedback is not None
        assert corrected_http.feedback.tenant == tenant
        # The conformal correction actually moved the served intervals.
        assert dumps(corrected_http.to_dict()) != dumps(base_http.to_dict())

        # Tenant isolation over the wire: the default tenant still
        # serves the untouched static profile on both arms.
        untouched = PredictRequest(sql=SQL, confidences=(0.5, 0.9))
        default_http = client.predict(untouched)
        assert dumps(default_http.to_dict()) == dumps(
            mirror.predict(untouched).to_dict()
        )
        assert default_http.feedback is None

    def test_observe_surfaces_in_v2_stats(self, client):
        record = client.request_json("GET", "/v1/stats?schema_version=2")
        assert record["schema_version"] == SCHEMA_VERSION
        feedback = record["feedback"]
        assert feedback["observations"] >= 25
        assert any(
            t["tenant"] == "wire-parity" for t in feedback["tenants"]
        )
        # The unversioned form stays the flat v1 report for deployed
        # monitors; no v2 sections leak in.
        v1_record = client.request_json("GET", "/v1/stats")
        assert v1_record["schema_version"] == 1
        assert "feedback" not in v1_record


class TestAdmission:
    def test_over_capacity_is_503_with_retry_after(self, server, client):
        # Deterministic: drain every admission slot directly, then ask.
        policy = server.app.policy
        taken = 0
        while policy.admit():
            taken += 1
        assert taken == policy.capacity == 4
        try:
            with pytest.raises(ApiError) as caught:
                client.predict(SQL)
            assert caught.value.status == 503
            assert caught.value.code == "over-capacity"
        finally:
            for _ in range(taken):
                policy.release()
        # slots restored: serving works again
        assert client.predict(SQL).results

    def test_health_probes_never_metered(self, server, client):
        policy = server.app.policy
        taken = 0
        while policy.admit():
            taken += 1
        try:
            assert client.healthz()["status"] == "ok"
            assert client.stats().stats.queries_served >= 1
        finally:
            for _ in range(taken):
                policy.release()

    def test_concurrent_batches_agree_with_serial(self, client, session):
        """4 threads x same batch: every response bitwise-identical."""
        queries = template_queries(4)
        expected = session.predict_batch(queries)
        results = [None] * 4
        errors = []

        def drive(slot):
            try:
                results[slot] = client.predict_batch(queries)
            except Exception as error:  # noqa: BLE001 — assert below
                errors.append(error)

        threads = [
            threading.Thread(target=drive, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for batch in results:
            assert batch is not None
            for remote, local in zip(batch, expected):
                assert remote.results == local.results
