"""Pre-fork worker pool: N processes, one session and cache shard each.

The GIL caps one process at roughly one core of prediction work, so the
pool scales the serving tier the classic pre-fork way: the parent forks
``workers`` processes, each of which owns a private
:class:`~repro.api.session.Session` (its cache shard) and a full wire
stack — ``AdmissionGate(RoutedApp(SessionApp))`` on the public port,
plus a private per-worker transport that carries routed forwards and
peer stats probes without re-metering.

Two ways to share the public port (:data:`POOL_MODES`):

* ``reuseport`` — every worker binds its own ``SO_REUSEPORT`` socket;
  the kernel balances connections across them.
* ``handoff`` — the parent binds and listens once, workers inherit the
  socket across ``fork()`` and share its accept queue. The portable
  fallback; ``auto`` picks it when ``SO_REUSEPORT`` is missing.

Workers drain on SIGTERM/SIGINT: stop accepting, finish in-flight
requests, exit 0. The parent's :meth:`WorkerPool.stop` sends SIGTERM,
waits, and only escalates to SIGKILL past the deadline.
"""

from __future__ import annotations

import multiprocessing
import signal
import socket
import threading
import time
import traceback

from ..api.config import SessionConfig
from ..api.session import Session
from ..errors import ServingError
from ..util import freeze_startup_heap
from .admission import DEFAULT_MAX_IN_FLIGHT, AdmissionGate, build_admission
from .app import SessionApp
from .routing import ConsistentHashRouter, RoutedApp
from .transport import HttpTransport, reuseport_available

__all__ = ["POOL_MODES", "WorkerPool", "resolve_mode"]

#: Accepted ``mode`` arguments: ``auto`` resolves per platform.
POOL_MODES = ("auto", "reuseport", "handoff")


def resolve_mode(mode: str) -> str:
    """Resolve ``auto`` to a concrete port-sharing mode for this platform.

    Asking for ``reuseport`` explicitly on a platform without it is an
    error rather than a silent downgrade — the operator asked for
    kernel balancing semantics they would not get.
    """
    if mode not in POOL_MODES:
        raise ServingError(
            f"unknown serving mode {mode!r}; expected one of {POOL_MODES}"
        )
    if mode == "auto":
        return "reuseport" if reuseport_available() else "handoff"
    if mode == "reuseport" and not reuseport_available():
        raise ServingError(
            "SO_REUSEPORT is not available on this platform; "
            "use --serving-mode handoff"
        )
    return mode


def _worker_main(
    index: int,
    workers: int,
    mode: str,
    host: str,
    public_port: int,
    listening_socket,
    config: SessionConfig | None,
    session: Session | None,
    max_in_flight: int,
    warmup: bool,
    conn,
) -> None:
    """One worker process: build the stack, rendezvous, serve, drain.

    Startup protocol over ``conn``: send ``("ready", index,
    private_port)``, receive the ``{index: private_url}`` peer table,
    send ``("serving", index)`` once the public socket is accepting.
    Any startup failure sends ``("error", index, traceback)`` and exits
    nonzero.
    """
    try:
        if session is None:
            session = Session(config)
        if warmup:
            session.warmup()
        session_app = SessionApp(session)

        # The private transport carries routed forwards and peer stats
        # probes; it is admission-free so a forwarded request can never
        # consume a second slot or deadlock two full workers.
        private = HttpTransport(session_app, (host, 0))
        private_thread = threading.Thread(
            target=private.serve_forever, daemon=True
        )
        private_thread.start()

        if mode == "reuseport":
            # Bind only after the peer table arrives: a shared-port
            # socket starts receiving connections the moment it
            # listens, and the app stack does not exist yet.
            public = HttpTransport(
                None,
                (host, public_port),
                reuse_port=True,
                bind_and_activate=False,
            )
        else:
            public = HttpTransport.from_listening_socket(
                None, listening_socket
            )

        conn.send(("ready", index, private.server_address[1]))
        peers = conn.recv()

        router = ConsistentHashRouter(workers)
        routed = RoutedApp(session_app, session, router, peers, index)
        public.app = AdmissionGate(
            routed, build_admission(session, max_in_flight)
        )
        if mode == "reuseport":
            public.server_bind()
            public.server_activate()

        # Graceful drain: the handler runs on this (main) thread while
        # it sits inside serve_forever, so shutdown() must run
        # elsewhere — calling it here would wait on our own loop
        # forever. Installed *before* announcing "serving": the parent
        # may SIGTERM the instant it hears from us, and a signal
        # arriving before serve_forever still drains (the shutdown
        # request flag short-circuits the serve loop on entry).
        def _drain(signum, frame):
            threading.Thread(target=public.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)
        conn.send(("serving", index))
    except Exception:  # noqa: BLE001 — report, then die visibly
        conn.send(("error", index, traceback.format_exc()))
        raise SystemExit(1)

    public.serve_forever()
    # server_close joins every in-flight handler thread (stdlib
    # block_on_close) — requests admitted before the signal finish.
    public.server_close()
    private.shutdown()
    private.server_close()
    session.close()


class WorkerPool:
    """N pre-fork serving workers behind one shared public port.

    Built from either a :class:`~repro.api.config.SessionConfig` (each
    worker constructs its own session — identical by determinism) or a
    prebuilt ``session`` (workers inherit it copy-on-write across
    ``fork()``, so a benchmark pays the build cost once; the copies
    diverge the moment caches mutate, which is exactly the per-worker
    shard semantics wanted).

    Usable as a context manager: ``with WorkerPool(4, config=cfg) as
    pool: ...`` starts on enter and stops on exit.
    """

    def __init__(
        self,
        workers: int,
        *,
        config: SessionConfig | None = None,
        session: Session | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        mode: str = "auto",
        warmup: bool = False,
    ):
        if workers < 1:
            raise ServingError(f"workers must be >= 1, got {workers}")
        if config is None and session is None:
            raise ServingError("WorkerPool needs a config or a session")
        self.workers = workers
        self.mode = resolve_mode(mode)
        self.max_in_flight = max_in_flight
        self._config = config
        self._session = session
        self._host = host
        self._port = port
        self._warmup = warmup
        self._procs: list = []
        self._conns: list = []
        self._parent_socket = None
        self.exit_codes: list[int | None] = []

    @property
    def port(self) -> int:
        """The resolved public port (0 until :meth:`start` binds one)."""
        return self._port

    @property
    def url(self) -> str:
        """The public base URL every worker serves behind."""
        return f"http://{self._host}:{self._port}"

    def _bind_parent_socket(self) -> None:
        """Create the parent-side socket that anchors the public port.

        reuseport: a bound, never-listening placeholder that resolves
        ``port=0`` to a concrete port and keeps it reserved while
        workers bind their own sockets (a non-listening member of a
        reuseport group receives no connections). handoff: the real
        listening socket every worker will inherit and accept on.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            if self.mode == "reuseport":
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
                )
            sock.bind((self._host, self._port))
            if self.mode == "handoff":
                sock.listen(128)
        except OSError as error:
            sock.close()
            raise ServingError(
                f"cannot bind {self._host}:{self._port}: {error}"
            ) from error
        self._parent_socket = sock
        self._host, self._port = sock.getsockname()[:2]

    def start(self, ready_timeout: float = 300.0) -> "WorkerPool":
        """Fork the workers and block until every one is accepting.

        Raises :class:`~repro.errors.ServingError` (after tearing down
        whatever started) if any worker dies or stalls during startup.
        """
        if self._procs:
            raise ServingError("pool is already started")
        self._bind_parent_socket()
        # Freeze before forking (a no-op if a session already did), so
        # each worker inherits a frozen heap: its full collections
        # neither walk those objects nor copy their pages by writing
        # their gc headers.
        freeze_startup_heap()
        # fork, not spawn: workers must inherit the listening socket
        # and the (optionally prebuilt) session without pickling.
        ctx = multiprocessing.get_context("fork")
        for index in range(self.workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    index,
                    self.workers,
                    self.mode,
                    self._host,
                    self._port,
                    self._parent_socket if self.mode == "handoff" else None,
                    self._config,
                    self._session,
                    self.max_in_flight,
                    self._warmup,
                    child_conn,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        try:
            peers = {}
            for index, conn in enumerate(self._conns):
                message = self._await_message(
                    index, conn, ready_timeout, expected="ready"
                )
                peers[index] = f"http://{self._host}:{message[2]}"
            for conn in self._conns:
                conn.send(peers)
            for index, conn in enumerate(self._conns):
                self._await_message(
                    index, conn, ready_timeout, expected="serving"
                )
        except Exception:
            self.stop()
            raise
        return self

    def _await_message(self, index, conn, timeout, expected):
        """Receive one startup-protocol message, or fail loudly."""
        if not conn.poll(timeout):
            raise ServingError(
                f"worker {index} sent no {expected!r} message within "
                f"{timeout:.0f}s"
            )
        try:
            message = conn.recv()
        except EOFError:
            raise ServingError(
                f"worker {index} died during startup (no {expected!r})"
            ) from None
        if message[0] == "error":
            raise ServingError(
                f"worker {index} failed during startup:\n{message[2]}"
            )
        if message[0] != expected:
            raise ServingError(
                f"worker {index} sent {message[0]!r}, expected {expected!r}"
            )
        return message

    def stop(self, timeout: float = 30.0) -> list[int | None]:
        """SIGTERM every worker, wait for the drain, SIGKILL stragglers.

        Returns the workers' exit codes (0 = clean drain). Idempotent.
        """
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.kill()
                proc.join(5.0)
        self.exit_codes = [proc.exitcode for proc in self._procs]
        for conn in self._conns:
            conn.close()
        if self._parent_socket is not None:
            self._parent_socket.close()
            self._parent_socket = None
        self._procs = []
        self._conns = []
        return self.exit_codes

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
