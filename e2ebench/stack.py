"""The serving stack under test, its bounded teardown, and leak checks.

:class:`ServingStack` composes the single-worker stack ``repro serve``
builds — :class:`~repro.serving.HttpTransport` →
:class:`~repro.serving.AdmissionGate` → :class:`~repro.serving.SessionApp`
— from :mod:`repro.serving` directly, bound to ``127.0.0.1:0`` and
served from a thread of this process. No subprocess is ever started.
"""

from __future__ import annotations

import os
import threading
import time

from repro.api import ClientConfig, HttpClient
from repro.serving import (
    DEFAULT_MAX_IN_FLIGHT,
    AdmissionGate,
    HttpTransport,
    SessionApp,
    build_admission,
)

#: How long one teardown step may take before the run fails loudly.
#: Handler threads keep a 60 s socket timeout; waiting that out would
#: look like a hang, so a stuck step is an error instead.
TEARDOWN_SECONDS = 5.0


class TeardownError(RuntimeError):
    """A teardown step did not finish within :data:`TEARDOWN_SECONDS`."""


def bounded(step, what: str, seconds: float = TEARDOWN_SECONDS) -> None:
    """Run ``step`` on a helper thread; raise if it outlives ``seconds``."""
    errors: list[BaseException] = []

    def run():
        try:
            step()
        except BaseException as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    helper = threading.Thread(target=run, name=f"teardown: {what}", daemon=True)
    helper.start()
    helper.join(seconds)
    if helper.is_alive():
        raise TeardownError(f"{what} did not finish within {seconds:g} s")
    if errors:
        raise errors[0]


class ServingStack:
    """One session served over HTTP on a thread, with its callers' clients."""

    def __init__(self, session, callers: int):
        self.policy = build_admission(session, DEFAULT_MAX_IN_FLIGHT)
        self.transport = HttpTransport(
            AdmissionGate(SessionApp(session), self.policy), ("127.0.0.1", 0)
        )
        # Daemon, so a teardown that never ran cannot hang interpreter
        # exit; the leak check at exit still reports the live thread.
        self._thread = threading.Thread(
            target=self.transport.serve_forever, name="e2ebench-serve",
            daemon=True,
        )
        self._thread.start()
        self.clients = [
            HttpClient(self.transport.url, config=ClientConfig(retries_503=0))
            for _ in range(callers)
        ]

    def close(self) -> None:
        """Drop the clients, stop serving, close the socket, join the thread.

        The clients hold no sockets between requests (each exchange
        opens and closes its own connection), so dropping them is all
        closing takes.
        """
        self.clients = []
        bounded(self.transport.shutdown, "server shutdown()")
        bounded(self.transport.server_close, "server_close()")
        self._thread.join(TEARDOWN_SECONDS)
        if self._thread.is_alive():
            raise TeardownError("the serving thread did not stop")


def listening_sockets() -> list[str]:
    """Local addresses of TCP sockets this process holds in LISTEN state."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # closed between listdir and readlink
        if target.startswith("socket:["):
            inodes.add(target[len("socket:["):-1])
    found = []
    for table in ("/proc/self/net/tcp", "/proc/self/net/tcp6"):
        try:
            with open(table, encoding="ascii") as lines:
                rows = lines.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            if fields[3] == "0A" and fields[9] in inodes:  # 0A: TCP_LISTEN
                found.append(fields[1])
    return found


def leaks(wait_seconds: float = TEARDOWN_SECONDS) -> list[str]:
    """What the run left behind: child processes, threads, listening sockets.

    Threads get ``wait_seconds`` to finish (a handler thread may still be
    closing its connection); any left after that is reported, daemon or
    not.
    """
    found = []
    try:
        os.waitpid(-1, os.WNOHANG)
        found.append("a child process exists")
    except ChildProcessError:
        pass  # no children: the expected case
    deadline = time.monotonic() + wait_seconds
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(max(deadline - time.monotonic(), 0.0))
    for thread in threading.enumerate():
        if thread is not threading.main_thread() and thread.is_alive():
            kind = "daemon" if thread.daemon else "non-daemon"
            found.append(f"{kind} thread {thread.name!r} is alive")
    for address in listening_sockets():
        found.append(f"a socket is listening on {address}")
    return found
