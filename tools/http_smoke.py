"""HTTP serving smoke for CI: boot ``repro serve``, drive it, shut down.

Four stages, each booting ``python -m repro serve`` on an **ephemeral
port** as a child process and parsing the bound address from the
startup "listening on" line.

Stage 1 — single worker (the pre-fork-identical path):

* ``GET /v1/healthz`` — must report ``status: ok`` and the exact wire
  ``schema_version`` this checkout speaks;
* ``POST /v1/predict`` — one TPC-H query must come back with a positive
  mean, a declared ``schema_version``, and interval bounds;
* a malformed statement must be a structured 400 (``sql-parse``);
* a field of the wrong kind or out of range — ``"mpls": [1e999]`` or
  ``[2**70]`` on ``/v1/predict``, ``"actual_seconds": "x"`` on
  ``/v1/observe`` — must be a structured 400 (``bad-request``), a
  string literal compared with a float column (``o_totalprice >
  'abc'``) a 422 (``plan``), and an empty ``DATE ''`` literal a 400
  (``sql-parse``); after them a well-formed predict still answers 200
  with the same numbers;
* ``POST /v1/predict-batch`` with a full fan-out that repeats a
  variant under two spellings and repeats an mpl, plus one malformed
  query, must fail only that query, with ``sql-parse`` at its index;
  each good query must carry one result per distinct (variant, mpl),
  and its ``results`` must equal the ``/v1/predict`` answer for the
  same SQL and fan-out.

Stage 2 — cross-version interop (the v2 compatibility contract):

* a ``schema_version: 1`` predict must come back stamped v1 with no
  v2-only keys; unversioned ``GET /v1/stats`` stays the flat v1 report
  while ``?schema_version=2`` opts into the sectioned form;
* a ``schema_version: 1`` batch must come back stamped v1 at the top
  and in every response, with no ``feedback`` key, and its body must
  be byte for byte ``dumps(BatchResponse.from_dict(body).to_dict(1))``;
* ``POST /v1/observe`` must round-trip and surface in v2 stats;
* a foreign version must be a structured 400 (``schema-version``).

Stage 3 — ``--workers 2`` (the pre-fork pool, ``docs/serving.md``):

* healthz must answer from **each** worker (``worker`` 0 and 1 both
  observed) with ``status: ok`` and the same ``schema_version``;
* a prediction must round-trip through the sharded pool.

Stage 4 — ``--workers 2 --scheduler edf-slack`` (the uncertainty-aware
admission tier, ``docs/scheduling.md``):

* the listening line must advertise the scheduler;
* a deadline-stamped v2 predict (``deadline_ms``/``priority``) must
  round-trip through the deferring gate unchanged;
* v2 stats must carry the ``scheduler`` section naming the policy.

Exit status 0 on success; any failure kills the children and exits 1.
Wired into ``.github/workflows/ci.yml`` and ``make ci`` (pinned by
``tests/test_ci_workflow.py``).

Usage: ``python tools/http_smoke.py [--scale 0.01] [--timeout 180]``
"""

from __future__ import annotations

import argparse
import os
import queue
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.client import ApiError, HttpClient  # noqa: E402
from repro.api.wire import (  # noqa: E402
    SCHEMA_VERSION,
    BatchResponse,
    Observation,
    dumps,
    loads,
)

SQL = "SELECT COUNT(*) FROM orders WHERE o_totalprice > 100000"
#: A string literal against a float column, and a malformed DATE literal.
WRONG_TYPE_SQL = "SELECT COUNT(*) FROM orders WHERE o_totalprice > 'abc'"
EMPTY_DATE_SQL = "SELECT COUNT(*) FROM lineitem WHERE l_shipdate > DATE ''"
JOIN_SQL = (
    "SELECT COUNT(*) FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey AND o_totalprice > 150000"
)
#: Every predictor variant, several multiprogramming levels and
#: confidence levels: the widest fan-out a batch can ask for.
FULL_FANOUT = {
    "variants": ["all", "novar[c]", "novar[x]", "nocov"],
    "mpls": [1, 2, 4],
    "confidences": [0.5, 0.9, 0.99],
}
#: The full fan-out with repeats: ``all``/``ALL`` name one variant and
#: mpl 2 comes twice, so both endpoints must serve 4 x 3 distinct cells.
REPEATED_FANOUT = {
    "variants": ["all", "novar[c]", "novar[x]", "nocov", "ALL"],
    "mpls": [1, 2, 4, 2],
    "confidences": [0.5, 0.9, 0.99],
}
_LISTENING = re.compile(r"listening on (http://[0-9.]+:\d+)")


def _spawn(
    scale: float, workers: int = 1, scheduler: str | None = None
) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    command = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0", "--scale", str(scale),
    ]
    if workers != 1:
        command += ["--workers", str(workers)]
    if scheduler is not None:
        command += ["--scheduler", scheduler]
    return subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


def _wait_for_url(
    proc: subprocess.Popen, deadline: float, expect: str | None = None
) -> str:
    # readline() on the child's pipe blocks with no timeout, so a hung
    # server would stall this stage until the CI job-level timeout. A
    # daemon thread feeds a queue; the main thread polls it against the
    # deadline and can give up while the reader is still blocked.
    lines: list[str] = []
    feed: queue.Queue[str] = queue.Queue()
    reader = threading.Thread(
        target=lambda: [feed.put(line) for line in proc.stdout],
        daemon=True,
    )
    reader.start()
    while time.monotonic() < deadline:
        try:
            line = feed.get(timeout=min(1.0, max(deadline - time.monotonic(), 0.01)))
        except queue.Empty:
            if proc.poll() is not None:
                raise RuntimeError(
                    "repro serve exited before listening:\n" + "".join(lines)
                )
            continue
        lines.append(line)
        match = _LISTENING.search(line)
        if match:
            if expect is not None and expect not in line:
                raise AssertionError(
                    f"listening line missing {expect!r}: {line!r}"
                )
            return match.group(1)
    raise RuntimeError(
        "timed out waiting for the listening line:\n" + "".join(lines)
    )


def _post_raw(url: str, path: str, body: str, timeout: float):
    """POST ``body`` verbatim (non-finite numbers included); (status, JSON)."""
    request = urllib.request.Request(url + path, data=body.encode(), method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, loads(error.read())


def _stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()


def _single_worker_stage(scale: float, timeout: float) -> None:
    proc = _spawn(scale)
    try:
        url = _wait_for_url(proc, time.monotonic() + timeout)
        client = HttpClient(url, timeout=timeout)

        health = client.healthz()
        assert health["status"] == "ok", health
        assert health["schema_version"] == SCHEMA_VERSION, health

        body = client.request_json("POST", "/v1/predict", {"sql": SQL})
        assert body["schema_version"] == SCHEMA_VERSION, body
        (result,) = body["results"]
        assert result["mean"] > 0, result
        assert result["intervals"], result

        try:
            client.predict("SELEC nope")
        except ApiError as error:
            assert error.status == 400, error
            assert error.code == "sql-parse", error
        else:
            raise AssertionError("malformed SQL did not produce a 400")

        for path, raw, status_code, code in (
            ("/v1/predict", '{"sql": "%s", "mpls": [1e999]}' % SQL, 400,
             "bad-request"),
            ("/v1/predict", '{"sql": "%s", "mpls": [%d]}' % (SQL, 2**70), 400,
             "bad-request"),
            ("/v1/observe", '{"sql": "%s", "actual_seconds": "x"}' % SQL, 400,
             "bad-request"),
            ("/v1/predict", dumps({"sql": WRONG_TYPE_SQL}), 422, "plan"),
            ("/v1/predict", dumps({"sql": EMPTY_DATE_SQL}), 400, "sql-parse"),
        ):
            status, refused = _post_raw(url, path, raw, timeout)
            assert status == status_code, (path, raw, status, refused)
            assert refused["error"]["code"] == code, (path, raw, refused)
        again = client.request_json("POST", "/v1/predict", {"sql": SQL})
        assert again["results"] == body["results"], (again, body)

        batch = client.request_json(
            "POST",
            "/v1/predict-batch",
            {"queries": [SQL, "SELEC nope", JOIN_SQL], **REPEATED_FANOUT},
        )
        (failure,) = batch["failures"]
        assert failure["index"] == 1, failure
        assert failure["code"] == "sql-parse", failure
        responses = batch["responses"]
        assert [r["sql"] for r in responses] == [SQL, JOIN_SQL], batch
        cells = [
            (variant.lower(), mpl)
            for mpl in dict.fromkeys(REPEATED_FANOUT["mpls"])
            for variant in dict.fromkeys(
                name.lower() for name in REPEATED_FANOUT["variants"]
            )
        ]
        for response in responses:
            single = client.request_json(
                "POST", "/v1/predict", {"sql": response["sql"], **REPEATED_FANOUT}
            )
            served = [(r["variant"], r["mpl"]) for r in response["results"]]
            assert served == cells, (served, cells)
            assert response["results"] == single["results"], (response, single)

        print(
            f"http smoke ok: {url} schema v{health['schema_version']}, "
            f"mean {result['mean']:.4f}s, batch of {len(responses)} "
            f"equal to single predicts, {len(cells)} distinct cells each"
        )
    finally:
        _stop(proc)


def _cross_version_stage(scale: float, timeout: float) -> None:
    """A deployed v1 client interoperates unmodified with the v2 server."""
    proc = _spawn(scale)
    try:
        url = _wait_for_url(proc, time.monotonic() + timeout)
        client = HttpClient(url, timeout=timeout)

        # v1-declared predict: answered in v1 shape (no feedback key).
        body = client.request_json(
            "POST", "/v1/predict", {"sql": SQL, "schema_version": 1}
        )
        assert body["schema_version"] == 1, body
        assert "feedback" not in body, body
        (result,) = body["results"]
        assert result["mean"] > 0, result

        # v1-declared batch: the text rendered from the batch kernels
        # is the exact v1 wire form of the typed answer.
        request = urllib.request.Request(
            url + "/v1/predict-batch",
            data=dumps(
                {"queries": [SQL, "SELEC nope", JOIN_SQL, SQL],
                 "schema_version": 1, **FULL_FANOUT}
            ).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=timeout) as raw:
            text = raw.read().decode("utf-8")
        batch = loads(text)
        assert batch["schema_version"] == 1, batch
        assert len(batch["responses"]) == 3, batch
        for response in batch["responses"]:
            assert response["schema_version"] == 1, response
            assert "feedback" not in response, response
        assert text == dumps(BatchResponse.from_dict(batch).to_dict(1)), text

        # Unversioned GET /v1/stats stays the flat v1 report a deployed
        # monitor expects; ?schema_version=2 opts into the sectioned form.
        v1_stats = client.request_json("GET", "/v1/stats")
        assert v1_stats["schema_version"] == 1, v1_stats
        assert "feedback" not in v1_stats, v1_stats
        v2_stats = client.request_json("GET", "/v1/stats?schema_version=2")
        assert v2_stats["schema_version"] == SCHEMA_VERSION, v2_stats
        assert "feedback" in v2_stats, v2_stats

        # The v2 observation loop round-trips over the wire.
        ack = client.observe(
            Observation(sql=SQL, actual_seconds=result["mean"])
        )
        assert ack.observations == 1, ack
        after = client.request_json("GET", "/v1/stats?schema_version=2")
        assert after["feedback"]["observations"] == 1, after

        # Foreign versions are rejected with the structured code.
        try:
            client.request_json(
                "POST", "/v1/predict", {"sql": SQL, "schema_version": 99}
            )
        except ApiError as error:
            assert error.status == 400, error
            assert error.code == "schema-version", error
        else:
            raise AssertionError("schema_version 99 did not produce a 400")

        print(
            f"http smoke ok: {url} v1 interop (predict, batch) + "
            "observe round-trip"
        )
    finally:
        _stop(proc)


def _worker_pool_stage(scale: float, timeout: float) -> None:
    proc = _spawn(scale, workers=2)
    try:
        url = _wait_for_url(proc, time.monotonic() + timeout)
        client = HttpClient(url, timeout=timeout)

        # The kernel picks which worker accepts each fresh connection;
        # probe until both have answered (or the deadline passes).
        seen: dict[int, dict] = {}
        deadline = time.monotonic() + timeout
        while set(seen) != {0, 1} and time.monotonic() < deadline:
            health = client.healthz()
            seen[health["worker"]] = health
        assert set(seen) == {0, 1}, f"workers seen: {sorted(seen)}"
        for worker, health in sorted(seen.items()):
            assert health["status"] == "ok", (worker, health)
            assert health["schema_version"] == SCHEMA_VERSION, (worker, health)
            assert health["workers"] == 2, (worker, health)

        body = client.request_json("POST", "/v1/predict", {"sql": SQL})
        assert body["schema_version"] == SCHEMA_VERSION, body
        (result,) = body["results"]
        assert result["mean"] > 0, result

        print(
            f"http smoke ok: {url} workers {sorted(seen)} "
            f"schema v{SCHEMA_VERSION}, mean {result['mean']:.4f}s"
        )
    finally:
        _stop(proc)


def _scheduler_stage(scale: float, timeout: float) -> None:
    """A deadline-stamped v2 request through the deferring admission tier."""
    proc = _spawn(scale, workers=2, scheduler="edf-slack")
    try:
        url = _wait_for_url(
            proc, time.monotonic() + timeout, expect="scheduler edf-slack"
        )
        client = HttpClient(url, timeout=timeout)

        body = client.request_json(
            "POST",
            "/v1/predict",
            {
                "sql": SQL,
                "schema_version": SCHEMA_VERSION,
                "deadline_ms": 500,
                "priority": 1,
            },
        )
        assert body["schema_version"] == SCHEMA_VERSION, body
        (result,) = body["results"]
        assert result["mean"] > 0, result

        stats = client.request_json("GET", "/v1/stats?schema_version=2")
        scheduler = stats.get("scheduler")
        assert scheduler is not None, stats
        assert scheduler["policy"] == "edf-slack", scheduler

        print(
            f"http smoke ok: {url} scheduler {scheduler['policy']}, "
            f"deadline-stamped mean {result['mean']:.4f}s"
        )
    finally:
        _stop(proc)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--timeout", type=float, default=180.0)
    args = parser.parse_args(argv)

    _single_worker_stage(args.scale, args.timeout)
    _cross_version_stage(args.scale, args.timeout)
    _worker_pool_stage(args.scale, args.timeout)
    _scheduler_stage(args.scale, args.timeout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
