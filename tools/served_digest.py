"""Print one sha256 per category of the bytes a fixed corpus is served.

Serves a fixed request corpus through :func:`repro.serving.build_server`
on ``127.0.0.1:0`` and hashes what comes back, status line and body,
category by category. It is the before/after check for a change that
must not move a served bit: run it on both trees and compare the
lines. Digests depend on the BLAS kernel numpy picks at run time,
through the least-squares solves of cost-function fitting
(``costfuncs/nnls.py``), so compare runs on one host, and do not commit
them as expected values.

Categories:

* ``predict-v1`` / ``predict-v2`` — single predicts with the full
  variant x mpl x confidence fan-out, declared v1 and v2;
* ``batch-v1`` / ``batch-v2`` — the same queries as one batch;
* ``cold`` — never-seen queries served one at a time by a fresh
  session (every request plans, samples and fits);
* ``feedback`` — a tenant's answer after enough observations that the
  feedback loop corrects its intervals;
* ``failure`` — a batch carrying one malformed query (a failure row);
* ``observe`` — the observation acks that fed the feedback loop;
* ``stats-v1`` / ``stats-v2`` — the stats report after the corpus;
* ``errors`` — coded error bodies: parse, plan, wire and version
  errors, an unknown route.

Every ``elapsed_seconds`` value is blanked, and the corpus leaves out
``/v1/healthz`` (its uptime), so two runs of one tree print the same
lines. Every run serves one fixed configuration (``CONFIG``): its
database size decides which operators the optimizer picks, and at that
size the corpus plans cover every operator kind it emits and the fitter
fits (``CORPUS_KINDS``).

Usage: ``PYTHONPATH=src python tools/served_digest.py``
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import Session, SessionConfig  # noqa: E402
from repro.serving import build_server  # noqa: E402
from repro.util import ensure_rng  # noqa: E402
from repro.workloads.tpch_templates import TPCH_TEMPLATES  # noqa: E402

#: The one configuration every corpus is served with.
CONFIG = SessionConfig(scale_factor=0.005)

#: The full fan-out every prediction in the corpus asks for.
FANOUT = {
    "variants": ["all", "novar[c]", "novar[x]", "nocov"],
    "mpls": [1, 2, 4],
    "confidences": [0.5, 0.9, 0.99],
}

#: Plans the templates rarely produce: an index scan, a cross-table
#: filter, a sort under a limit, a single-table scan. The fitting
#: oracle's plan pool (``tests/test_fitting_oracle.py``) reads them too.
EDGE_SQLS = [
    "SELECT * FROM lineitem WHERE l_shipdate <= DATE '1992-03-01'",
    (
        "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey "
        "AND o_orderdate < l_shipdate AND o_totalprice > 300000"
    ),
    "SELECT * FROM orders WHERE o_totalprice > 100000 ORDER BY o_totalprice LIMIT 10",
    "SELECT * FROM region",
]

#: Operator kinds (``OpKind.name``) the corpus plans must contain.
CORPUS_KINDS = frozenset({
    "SEQ_SCAN", "INDEX_SCAN", "FILTER", "HASH_JOIN", "NESTLOOP_JOIN",
    "SORT", "AGGREGATE", "LIMIT",
})

#: Requests that must answer with a coded error body.
ERROR_REQUESTS = [
    ("POST", "/v1/predict", {"sql": "SELEC nothing"}),
    ("POST", "/v1/predict", {"sql": "SELECT * FROM orders WHERE o_totalprice > 'abc'"}),
    ("POST", "/v1/predict", {"sql": "SELECT * FROM nowhere"}),
    ("POST", "/v1/predict", {"sql": "SELECT * FROM region", "mpls": [0]}),
    ("POST", "/v1/predict", {"sql": "SELECT * FROM region", "schema_version": 99}),
    ("POST", "/v1/observe", {"sql": "SELECT * FROM region", "actual_seconds": "x"}),
    ("GET", "/v2/predict", None),
]

_ELAPSED = re.compile(rb'"elapsed_seconds": ?[-+0-9.eE]+')


def corpus_queries(count: int = 12, seed: int = 17) -> list[str]:
    """Template instantiations (both forms) plus the edge plans."""
    rng = ensure_rng(seed)
    queries = []
    for i in range(count):
        template = TPCH_TEMPLATES[i % len(TPCH_TEMPLATES)]
        queries.append(template.seljoin(rng) if i % 2 else template.instantiate(rng))
    return queries + EDGE_SQLS


def cold_queries() -> list[str]:
    """Distinct queries for a fresh session: each is never seen on arrival."""
    return corpus_queries(count=8, seed=29)


class _Served:
    """One session behind a live server on an ephemeral port."""

    def __init__(self, session: Session):
        self._server = build_server(session, port=0)
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()

    def exchange(self, method: str, path: str, payload=None) -> bytes:
        """One request; ``b"<status> <path>\\n<body>\\n"``, blanked."""
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            self._server.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                status, body = response.status, response.read()
        except urllib.error.HTTPError as error:
            status, body = error.code, error.read()
        body = _ELAPSED.sub(b'"elapsed_seconds": null', body)
        return b"%d %s\n%s\n" % (status, path.encode(), body)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)


def session_factory() -> Callable[[], Session]:
    """Fresh ``CONFIG`` sessions over one database and one calibration."""
    base = Session(CONFIG)
    return lambda: Session.from_components(base.database, base.units, CONFIG)


def serve_corpus(make_session: Callable[[], Session]) -> dict[str, list[bytes]]:
    """``{category: answers}`` of one corpus served by fresh sessions."""
    queries = corpus_queries()
    records: dict[str, list[bytes]] = {}

    def add(category: str, answer: bytes) -> None:
        records.setdefault(category, []).append(answer)

    served = _Served(make_session())
    try:
        for version in (1, 2):
            for sql in queries:
                add(f"predict-v{version}", served.exchange(
                    "POST", "/v1/predict",
                    {"sql": sql, "schema_version": version, **FANOUT},
                ))
            add(f"batch-v{version}", served.exchange(
                "POST", "/v1/predict-batch",
                {"queries": queries, "schema_version": version, **FANOUT},
            ))
        add("failure", served.exchange(
            "POST", "/v1/predict-batch",
            {"queries": [queries[0], "SELEC broken", queries[1]], **FANOUT},
        ))
        # Residuals within 1.4 sigma of the served distribution: the
        # drift detector stays quiet and the tenant's window activates.
        for i, sql in enumerate(queries * 2):
            add("observe", served.exchange("POST", "/v1/observe", {
                "sql": sql, "tenant": "digest",
                "predicted_mean": 0.5, "predicted_std": 0.05,
                "actual_seconds": 0.5 + 0.05 * ((i * 5) % 9 - 4) / 3,
            }))
        for sql in queries[:3]:
            add("feedback", served.exchange(
                "POST", "/v1/predict", {"sql": sql, "tenant": "digest", **FANOUT}
            ))
        for method, path, payload in ERROR_REQUESTS:
            add("errors", served.exchange(method, path, payload))
        add("stats-v1", served.exchange("GET", "/v1/stats"))
        add("stats-v2", served.exchange("GET", "/v1/stats?schema_version=2"))
    finally:
        served.close()

    fresh = _Served(make_session())
    try:
        for sql in cold_queries():
            add("cold", fresh.exchange("POST", "/v1/predict", {"sql": sql, **FANOUT}))
    finally:
        fresh.close()
    return records


def digests(records: dict[str, list[bytes]]) -> dict[str, str]:
    """``{category: sha256 hex}`` over each category's answers in order."""
    return {
        category: hashlib.sha256(b"".join(answers)).hexdigest()
        for category, answers in records.items()
    }


def main() -> int:
    records = serve_corpus(session_factory())
    for category, digest in digests(records).items():
        print(f"{category:<12} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
