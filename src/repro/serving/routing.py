"""Plan-signature routing: keep each plan's caches on one worker.

Pre-fork workers each own a private :class:`~repro.api.session.Session`
and therefore a private prepared/sampling cache shard. Left alone,
kernel-level connection balancing would spray a recurring query across
all shards — every shard pays the prepare cost, and effective cache
capacity stays at one worker's. The router fixes that: each worker
plans the incoming SQL, takes the plan's interned
:func:`~repro.service.cache.plan_signature_hash`, and either serves locally
(it owns the key) or forwards the request — over the owner's *private*
transport — to the worker whose shard holds that plan's artifacts.

:class:`ConsistentHashRouter` places workers on a CRC-32 hash ring with
virtual nodes. CRC-32 rather than ``hash()`` because every worker
process must agree on ownership and Python randomizes string hashes per
process. Consistent hashing (vs ``hash % n``) keeps most keys in place
if a deployment later grows or shrinks the pool.

Availability beats affinity: any failure to compute a routing key or to
reach the owner falls back to serving locally — routing is a cache
optimization, never a correctness dependency.
"""

from __future__ import annotations

import bisect
import http.client
import urllib.error
import urllib.request
import zlib
from collections.abc import Callable

from ..api.session import Session
from ..api.wire import dumps, loads
from ..errors import ServingError
from ..service.cache import plan_signature_hash
from .app import METERED_PATHS, WireApp, negotiated_version, split_path
from .stats import aggregate_report_records
from .transport import WireResponse

__all__ = ["ROUTED_HEADER", "ConsistentHashRouter", "RoutedApp", "Router"]

#: Marks a forwarded request so the receiving worker serves it locally
#: instead of re-routing (no forwarding loops).
ROUTED_HEADER = "X-Repro-Routed"


class Router:
    """Maps a routing key to the index of the worker that owns it."""

    def owner(self, key: str) -> int:
        """The worker index responsible for ``key``."""
        raise NotImplementedError

    def owner_point(self, point: int) -> int:
        """The worker index responsible for an already-hashed key.

        :class:`RoutedApp` routes on
        :func:`~repro.service.cache.plan_signature_hash` — the CRC-32
        interned on the planned query itself, shared with the prepared
        cache and the batch kernel's interner — so the ring never
        re-hashes the signature and can never disagree with them.
        """
        raise NotImplementedError


class ConsistentHashRouter(Router):
    """A CRC-32 hash ring with virtual nodes, identical in every process."""

    def __init__(self, workers: int, replicas: int = 64):
        if workers < 1:
            raise ServingError(f"workers must be >= 1, got {workers}")
        if replicas < 1:
            raise ServingError(f"replicas must be >= 1, got {replicas}")
        self.workers = workers
        self.replicas = replicas
        ring = []
        for worker in range(workers):
            for replica in range(replicas):
                token = f"worker-{worker}:{replica}".encode("ascii")
                ring.append((zlib.crc32(token), worker))
        ring.sort()
        self._points = [point for point, _ in ring]
        self._owners = [owner for _, owner in ring]

    def owner(self, key: str) -> int:
        """The worker owning ``key``: first ring point at/after its hash."""
        return self.owner_point(zlib.crc32(key.encode("utf-8")))

    def owner_point(self, point: int) -> int:
        """The worker owning an already-computed CRC-32 ring point."""
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]


class RoutedApp(WireApp):
    """The wire app that forwards predictions to their owning worker.

    Wraps a worker's :class:`~repro.serving.app.SessionApp`; sits inside
    the admission gate so forwarded requests (which arrive on the
    private transport, below any gate) are never double-metered.
    Also aggregates ``/v1/stats`` across the pool by querying every
    peer's private transport.
    """

    def __init__(
        self,
        inner: WireApp,
        session: Session,
        router: Router,
        peers: dict[int, str],
        self_index: int,
        timeout: float = 60.0,
    ):
        self.inner = inner
        self.session = session
        self.router = router
        self.peers = dict(peers)
        self.self_index = self_index
        self.timeout = timeout

    def health(self) -> dict:
        """The inner health payload plus this worker's pool coordinates."""
        return {
            **self.inner.health(),
            "worker": self.self_index,
            "workers": len(self.peers),
        }

    def handle_get(self, path: str) -> WireResponse:
        """Serve healthz with pool coordinates; aggregate stats pool-wide."""
        bare, params = split_path(path)
        if bare == "/v1/healthz":
            return WireResponse(200, self.health())
        if bare == "/v1/stats":
            version = negotiated_version(params, default=1)
            return WireResponse(200, self._aggregate_stats(version))
        return self.inner.handle_get(path)

    def handle_post(
        self, path: str, read_body: Callable[[], dict]
    ) -> WireResponse:
        """Serve locally when this worker owns the plan; else forward."""
        record = read_body()
        key = self._routing_key(split_path(path)[0], record)
        if key is not None:
            owner = self.router.owner_point(key)
            if owner != self.self_index:
                relayed = self._forward(owner, path, record)
                if relayed is not None:
                    return relayed
        return self.inner.handle_post(path, lambda: record)

    def _routing_key(self, path: str, record: dict) -> int | None:
        """The plan's interned signature hash, or None to serve locally.

        A batch routes on its first query — recurring dashboards replay
        whole batches, so first-query affinity captures the common case
        without planning the entire batch twice. Observations route on
        their ``sql`` exactly like predictions, so a tenant's feedback
        window lives on the same shard that serves that plan's
        predictions. Anything that fails to plan is served locally so
        error bodies come from the worker the client actually reached,
        byte-identical to a single worker.

        The key is :func:`~repro.service.cache.plan_signature_hash` —
        the CRC-32 interned on the planned query, shared with the
        prepared cache's keying and the batch kernel's interner — so a
        recurring plan is hashed once per worker process, not once per
        request, and all three consumers agree by construction. Ring
        placement is unchanged: the hash is the same CRC-32 of the same
        signature string the ring hashed itself before.
        """
        try:
            if path not in METERED_PATHS:
                return None
            if path == "/v1/predict-batch":
                sql = record["queries"][0]
            else:
                sql = record["sql"]
            return plan_signature_hash(self.session.plan(sql))
        except Exception:  # noqa: BLE001 — availability over affinity
            return None

    def _forward(self, owner: int, path: str, record: dict):
        """Relay the request to ``owner``'s private transport.

        Returns the relayed :class:`WireResponse` — a success body byte
        for byte as the owner wrote it, an error body re-parsed — or
        None when the peer is unreachable, hangs up or cuts its reply
        short, or answers an error unparseably; the caller then serves
        locally.
        """
        url = self.peers.get(owner)
        if url is None:
            return None
        body = dumps(record).encode("utf-8")
        request = urllib.request.Request(
            url + path,
            data=body,
            headers={
                "Content-Type": "application/json",
                ROUTED_HEADER: "1",
            },
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as raw:
                return WireResponse(raw.status, body=raw.read())
        except urllib.error.HTTPError as error:
            try:
                relayed = loads(error.read())
            except Exception:  # noqa: BLE001 — relay only clean errors
                return None
            retry_after = error.headers.get("Retry-After")
            return WireResponse(
                error.code,
                relayed,
                retry_after=int(retry_after) if retry_after else None,
                close=True,
            )
        except (OSError, http.client.HTTPException):
            return None

    def _aggregate_stats(self, version: int) -> dict:
        """Sum this worker's snapshot with every reachable peer's.

        Workers are always fetched at v2 — the sectioned form carries
        the feedback state the aggregate needs — and the pool answer is
        re-emitted at the client's negotiated ``version``, so a v1
        monitor still receives the flat report it was written against.
        """
        records = [self.inner.handle_get("/v1/stats?schema_version=2").record]
        for index, url in sorted(self.peers.items()):
            if index == self.self_index:
                continue
            try:
                with urllib.request.urlopen(
                    url + "/v1/stats?schema_version=2", timeout=self.timeout
                ) as raw:
                    records.append(loads(raw.read()))
            except (OSError, http.client.HTTPException):
                continue  # a dying peer must not fail the probe
        pool = aggregate_report_records(records)
        pool["schema_version"] = version
        if version < 2:
            pool.pop("admission", None)
            pool.pop("feedback", None)
            pool.pop("scheduler", None)
        return pool
