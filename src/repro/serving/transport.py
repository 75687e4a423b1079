"""The worker-agnostic HTTP transport of the layered serving tier.

This module is the bottom of the serving stack (see ``docs/serving.md``):
a threaded stdlib HTTP server that knows *nothing* about sessions,
admission, or routing. It parses requests, hands ``(path, read_body)``
to a wire app (:class:`repro.serving.app.WireApp`), and writes the
:class:`WireResponse` the app returns. Everything an app raises is
mapped onto the error taxonomy by :func:`status_for_error` and
serialized with the NaN-guarded :func:`repro.api.wire.dumps` — the
transport never answers with a bare traceback. An answer an app
already rendered to JSON text (``WireResponse.body``) is written as
is.

Two ways to own a port:

* :class:`HttpTransport` binds an address itself; ``reuse_port=True``
  sets ``SO_REUSEPORT`` before binding so several worker processes can
  share one port (kernel-level connection balancing).
* :meth:`HttpTransport.from_listening_socket` adopts an inherited,
  already-listening socket — the pre-fork *handoff* path for platforms
  without ``SO_REUSEPORT`` (every worker accepts on the parent's
  socket).

The canned refusal bodies (404 / 405 / 503) live here as functions so
every layer produces byte-identical answers to the pre-refactor
monolithic server.
"""

from __future__ import annotations

import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..api.wire import SCHEMA_VERSION, dumps, error_body, loads
from ..errors import ReproError, ServingError, SqlError, WireError

__all__ = [
    "HttpTransport",
    "MAX_BODY_BYTES",
    "ServingHandler",
    "WireResponse",
    "error_response",
    "method_not_allowed_response",
    "not_found_response",
    "over_capacity_response",
    "reuseport_available",
    "status_for_error",
]


#: The largest request body the server reads, in bytes (docs/api.md).
#: A body is read in one call of its declared size, so without a bound
#: the client's ``Content-Length`` would decide what the server
#: allocates.
MAX_BODY_BYTES = 16 * 1024 * 1024


def status_for_error(error: BaseException) -> int:
    """The HTTP status for a failed request, per the error taxonomy."""
    if isinstance(error, (SqlError, WireError)):
        return 400
    if isinstance(error, ReproError):
        return 422
    return 500


def reuseport_available() -> bool:
    """Whether this platform exposes ``SO_REUSEPORT`` port sharing."""
    return hasattr(socket, "SO_REUSEPORT")


class WireResponse:
    """One JSON answer, ready for any transport to write.

    An answer is either a wire ``record`` — serialized by the transport
    with the NaN-guarded :func:`~repro.api.wire.dumps` — or a
    pre-rendered ``body`` of JSON text, written verbatim: the batch
    endpoint's text rendered from the kernels' arrays, or a routed
    peer's reply relayed byte for byte. ``record`` always reads as the
    wire dict; for a body it is parsed on first access, so record-level
    callers see no difference. ``retry_after`` (seconds) becomes a
    ``Retry-After`` header — the admission layer's client backoff hint
    on 503. ``close`` marks responses after which the connection must
    not be reused (error paths may leave declared body bytes unread;
    under HTTP/1.1 keep-alive those would desync the connection).
    """

    def __init__(
        self,
        status: int,
        record: dict | None = None,
        retry_after: int | None = None,
        close: bool = False,
        *,
        body: str | bytes | None = None,
    ):
        if (record is None) == (body is None):
            raise ServingError("a wire response has exactly one of record and body")
        self.status = status
        self._record = record
        self.body = body.encode("utf-8") if isinstance(body, str) else body
        self.retry_after = retry_after
        self.close = close

    @property
    def record(self) -> dict:
        """The answer as a wire dict (a body is decoded once, on demand)."""
        if self._record is None:
            self._record = loads(self.body)
        return self._record


def error_response(error: BaseException) -> WireResponse:
    """The structured error answer for anything an app raised."""
    return WireResponse(
        status_for_error(error), error_body(error), close=True
    )


def not_found_response(path: str) -> WireResponse:
    """404 for an unknown endpoint (closes: the body was not drained)."""
    return WireResponse(404, {
        "schema_version": SCHEMA_VERSION,
        "error": {
            "code": "not-found",
            "type": "NotFound",
            "message": f"unknown endpoint {path!r}; known: "
            "/v1/predict, /v1/predict-batch, /v1/observe, "
            "/v1/healthz, /v1/stats",
        },
    }, close=True)


def over_capacity_response(limit: int, retry_after: int = 1) -> WireResponse:
    """503 shed-load refusal with the admission layer's backoff hint."""
    return WireResponse(503, {
        "schema_version": SCHEMA_VERSION,
        "error": {
            "code": "over-capacity",
            "type": "OverCapacity",
            "message": f"server is at its in-flight limit "
            f"({limit}); retry shortly",
        },
    }, retry_after=retry_after, close=True)


def method_not_allowed_response(command: str, path: str) -> WireResponse:
    """405 for verbs outside the GET/POST wire contract."""
    return WireResponse(405, {
        "schema_version": SCHEMA_VERSION,
        "error": {
            "code": "method-not-allowed",
            "type": "MethodNotAllowed",
            "message": f"{command} is not supported on {path!r}",
        },
    }, close=True)


class ServingHandler(BaseHTTPRequestHandler):
    """Parses HTTP, dispatches into ``server.app``, writes the answer."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # Bounds every socket read/write. Without it a client declaring a
    # Content-Length it never delivers would block rfile.read() forever
    # *while holding an admission slot* — max_in_flight such clients
    # would wedge the server permanently.
    timeout = 60
    # TCP_NODELAY. An answer goes out as two sends, headers then body;
    # with Nagle's algorithm on, the body waits for the client's delayed
    # ACK of the headers, ~44 ms an answer on a kept-alive connection.
    disable_nagle_algorithm = True

    # The default handler logs every request line to stderr; serving
    # benchmarks would drown in it.
    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        pass

    def _send(self, response: WireResponse) -> None:
        if response.close:
            self.close_connection = True
        body = response.body
        if body is None:
            body = dumps(response.record).encode("utf-8")
        self.send_response(response.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if response.retry_after is not None:
            self.send_header("Retry-After", str(response.retry_after))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        """The request's JSON body, read only once its length is sound.

        ``Content-Length`` must be a plain decimal count of 1 to
        :data:`MAX_BODY_BYTES` bytes, and the body must deliver all of
        it, each read within the handler's ``timeout``; anything else is
        refused as 400 ``bad-request`` (which closes the connection),
        the length before a body byte is read.
        """
        declared = (self.headers.get("Content-Length") or "0").strip(" \t")
        if not (declared.isascii() and declared.isdigit()):
            raise WireError(
                "Content-Length must be a decimal byte count, "
                f"got {declared[:32]!r}"
            )
        digits = declared.lstrip("0") or "0"
        # Compared as text first: int() refuses strings over 4,300 digits.
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            raise WireError(
                f"Content-Length {digits[:32]} exceeds the "
                f"{MAX_BODY_BYTES}-byte body limit"
            )
        length = int(digits)
        if length == 0:
            raise WireError("request needs a JSON body with Content-Length")
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            raise WireError(
                f"body stalled: no data for {self.timeout} s of "
                f"{length} declared bytes"
            ) from None
        if len(body) < length:
            raise WireError(
                f"body ended after {len(body)} of {length} declared bytes"
            )
        return loads(body)

    def do_GET(self):  # noqa: N802 — stdlib naming
        try:
            self._send(self.server.app.handle_get(self.path))
        except Exception as error:  # noqa: BLE001 — HTTP boundary
            self._send(error_response(error))

    def do_POST(self):  # noqa: N802 — stdlib naming
        # The body is read lazily, by whichever layer decides to: the
        # admission gate refuses over-capacity requests *before* their
        # body bytes are consumed.
        try:
            self._send(self.server.app.handle_post(self.path, self._read_body))
        except Exception as error:  # noqa: BLE001 — HTTP boundary
            self._send(error_response(error))

    def do_PUT(self):  # noqa: N802 — stdlib naming
        self._send(method_not_allowed_response(self.command, self.path))

    def do_DELETE(self):  # noqa: N802 — stdlib naming
        self._send(method_not_allowed_response(self.command, self.path))


class HttpTransport(ThreadingHTTPServer):
    """A threaded stdlib HTTP server dispatching into one wire app.

    ``app`` may be assigned after construction (the worker pool builds
    the routing layer only once every peer's address is known) but must
    be set before ``serve_forever()``. ``server_close()`` *drains*: with
    the stdlib's ``block_on_close`` it joins every in-flight handler
    thread, which is what makes SIGTERM shutdown graceful.
    """

    daemon_threads = True

    def __init__(
        self,
        app,
        address: tuple[str, int] = ("127.0.0.1", 0),
        *,
        reuse_port: bool = False,
        bind_and_activate: bool = True,
    ):
        self.app = app
        self.reuse_port = reuse_port
        super().__init__(
            address, ServingHandler, bind_and_activate=bind_and_activate
        )

    def server_bind(self):
        """Bind, first opting into kernel port sharing when requested."""
        if self.reuse_port:
            if not reuseport_available():
                raise WireError(
                    "SO_REUSEPORT is not available on this platform; "
                    "use the socket-handoff serving mode"
                )
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    @property
    def url(self) -> str:
        """The base URL the server is reachable at."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    @classmethod
    def from_listening_socket(cls, app, listening_socket) -> "HttpTransport":
        """Adopt an inherited, already-listening socket (pre-fork handoff).

        The transport neither binds nor listens; it only ``accept()``\\ s.
        Several forked workers adopting the same socket share its kernel
        accept queue — the fallback when ``SO_REUSEPORT`` is missing.

        The socket is switched to non-blocking: every worker's serve
        loop wakes on a new connection, and only one wins the accept.
        A blocking ``accept()`` would park each loser until some later
        connection arrived, deaf to ``shutdown()``; a non-blocking one
        fails fast and the loser goes back to polling.
        """
        listening_socket.setblocking(False)
        transport = cls(
            app,
            listening_socket.getsockname()[:2],
            bind_and_activate=False,
        )
        # Replace the placeholder socket TCPServer created with the
        # inherited one, and fill in what server_bind would have set.
        transport.socket.close()
        transport.socket = listening_socket
        transport.server_address = listening_socket.getsockname()
        host, port = transport.server_address[:2]
        transport.server_name = socket.getfqdn(host)
        transport.server_port = port
        return transport
