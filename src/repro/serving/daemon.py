"""The ``ripple serve`` daemon: stdio and TCP front ends.

Both front ends speak the line-delimited JSON protocol of
:mod:`repro.serving.protocol` over the same :class:`QueryEngine`:

* **stdio** — one session on stdin/stdout, for subprocess embedding
  and shell pipelines (requests in, responses out, in order);
* **TCP** — a threading server handling each connection in its own
  thread; a shared :class:`~repro.serving.admission.AdmissionController`
  caps how many requests are *answered* concurrently, lets a bounded
  number wait (partitioned by cost class), and sheds the rest with an
  ``overloaded`` error instead of queueing without bound.

Per-request deadlines reuse :class:`repro.resilience.Deadline` and are
cooperative: expiry is observed at query boundaries, so a batch cut
short returns its completed prefix with a ``deadline`` error code.

Both front ends cap the request line at ``max_line_bytes``: an
oversized line is drained and answered with a ``bad-request`` error
(the session survives) instead of buffering an unbounded line in
memory.

Degradation is graceful end to end: a missing index file means the
engine builds one from the graph on first use (the first query pays
the build; the rest ride it), a stale index (fingerprint mismatch
against the served graph) is rebuilt instead of serving wrong answers,
and a corrupt index file is quarantined at load time (see
:mod:`repro.serving.index`) with the engine rebuilding live.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import IO

from repro import obs
from repro.serving.accesslog import AccessLog
from repro.serving.admission import AdmissionController
from repro.serving.chaos import SessionCrash
from repro.serving.engine import QueryEngine
from repro.serving.protocol import ServerContext, error_line, handle_line

__all__ = ["ServeSettings", "TcpServerHandle", "serve_stdio", "serve_tcp"]


@dataclass(frozen=True)
class ServeSettings:
    """Daemon tunables shared by the stdio and TCP front ends."""

    #: Per-request wall-clock budget in seconds (None = unbounded).
    request_timeout: float | None = None
    #: Maximum requests answered concurrently (TCP only).
    workers: int = 4
    #: Zero-argument callable returning a fresh Graph for the
    #: ``reload`` op (None = reload is unsupported on this daemon).
    reloader: Callable | None = None
    #: Bound on requests *waiting* for a worker before the daemon
    #: starts shedding (TCP only; see AdmissionController).
    max_queue: int = 32
    #: Longest accepted request line; anything longer is drained and
    #: answered with ``bad-request``.
    max_line_bytes: int = 1 << 20
    #: Path for the JSONL access log (None = no access log); one
    #: record per request line, appended and flushed as responses go
    #: out (see :mod:`repro.serving.accesslog`).
    access_log: str | None = None


def _open_context(settings: ServeSettings) -> ServerContext:
    access_log = (
        AccessLog.open(settings.access_log)
        if settings.access_log is not None
        else None
    )
    return ServerContext(access_log=access_log)


def _oversized_response(limit: int) -> str:
    obs.count("serving.oversized_lines")
    return error_line(
        f"request line exceeds {limit} bytes", "bad-request"
    )


def serve_stdio(
    engine: QueryEngine,
    settings: ServeSettings = ServeSettings(),
    *,
    in_stream: IO[str],
    out_stream: IO[str],
) -> int:
    """Serve one session over text streams; returns served request count.

    Ends at EOF or after a ``shutdown`` op. Blank lines are ignored,
    malformed lines get ``parse`` error responses — the session
    survives bad input.
    """
    served = 0
    obs.count("serving.sessions")
    limit = settings.max_line_bytes
    context = _open_context(settings)
    try:
        while True:
            line = in_stream.readline(limit)
            if not line:
                break
            if len(line) >= limit and not line.endswith("\n"):
                # Oversized: drain the rest of the line in bounded
                # chunks, reject it, keep the session.
                while True:
                    chunk = in_stream.readline(limit)
                    if not chunk or chunk.endswith("\n"):
                        break
                served += 1
                out_stream.write(_oversized_response(limit) + "\n")
                out_stream.flush()
                continue
            try:
                response, keep_serving = handle_line(
                    engine,
                    line,
                    request_timeout=settings.request_timeout,
                    reloader=settings.reloader,
                    context=context,
                )
            except SessionCrash:
                obs.count("serving.sessions.crashed")
                break
            if response:
                served += 1
                out_stream.write(response + "\n")
                out_stream.flush()
            if not keep_serving:
                break
    finally:
        if context.access_log is not None:
            context.access_log.close()
    return served


class _SessionHandler(socketserver.StreamRequestHandler):
    """One TCP connection = one protocol session (line in, line out)."""

    def handle(self) -> None:
        server: _TcpServer = self.server  # type: ignore[assignment]
        obs.set_collector(server.collector)
        obs.count("serving.sessions")
        limit = server.settings.max_line_bytes
        try:
            while True:
                raw = self.rfile.readline(limit)
                if not raw:
                    return
                if len(raw) >= limit and not raw.endswith(b"\n"):
                    while True:
                        chunk = self.rfile.readline(limit)
                        if not chunk or chunk.endswith(b"\n"):
                            break
                    response, keep_serving = _oversized_response(limit), True
                else:
                    line = raw.decode("utf-8", errors="replace")
                    try:
                        response, keep_serving = handle_line(
                            server.engine,
                            line,
                            request_timeout=server.settings.request_timeout,
                            reloader=server.settings.reloader,
                            admission=server.admission,
                            context=server.context,
                        )
                    except SessionCrash:
                        # Injected handler crash: the connection dies
                        # without a response; the daemon survives.
                        obs.count("serving.sessions.crashed")
                        return
                if response:
                    try:
                        self.wfile.write(response.encode("utf-8") + b"\n")
                        self.wfile.flush()
                    except (BrokenPipeError, ConnectionResetError):
                        return
                if not keep_serving or server.draining.is_set():
                    # A draining daemon finishes the in-flight request
                    # (the response above went out) and then hangs up
                    # instead of waiting for the client's next line.
                    return
        finally:
            server.unregister_session(threading.current_thread())


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        engine: QueryEngine,
        settings: ServeSettings,
    ) -> None:
        super().__init__(address, _SessionHandler)
        self.engine = engine
        self.settings = settings
        self.admission = AdmissionController(
            workers=max(1, settings.workers),
            max_queue=settings.max_queue,
        )
        # Handler threads inherit the collector active at server
        # creation: counters from concurrent sessions all land in the
        # run's collector (Collector.count is a dict update under the
        # GIL; merge-safe for our integer bumps).
        self.collector = obs.get_collector()
        #: Daemon-scoped serving state: uptime epoch + optional access
        #: log, shared by every session thread.
        self.context = _open_context(settings)
        #: Set while :meth:`TcpServerHandle.stop` drains sessions.
        self.draining = threading.Event()
        self._sessions_lock = threading.Lock()
        self._sessions: dict[threading.Thread, object] = {}

    def process_request(self, request, client_address) -> None:
        # Register before the thread starts, so a stop() racing this
        # accept still sees the session it has to drain or close.
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        self.register_session(thread, request)
        thread.start()

    def register_session(self, thread, connection) -> None:
        with self._sessions_lock:
            self._sessions[thread] = connection

    def unregister_session(self, thread) -> None:
        with self._sessions_lock:
            self._sessions.pop(thread, None)

    def live_sessions(self) -> list[tuple[threading.Thread, object]]:
        with self._sessions_lock:
            return list(self._sessions.items())


class TcpServerHandle:
    """A running TCP daemon: address for clients, shutdown for owners."""

    def __init__(self, server: _TcpServer, thread: threading.Thread) -> None:
        self._server = server
        self._thread = thread

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port is concrete even if 0 was asked."""
        return self._server.server_address  # type: ignore[return-value]

    @property
    def port(self) -> int:
        """The bound port (ephemeral when 0 was requested)."""
        return self.address[1]

    @property
    def admission(self) -> AdmissionController:
        """The daemon's admission controller (for gauges/metrics)."""
        return self._server.admission

    @property
    def context(self) -> ServerContext:
        """The daemon's serving context (uptime epoch, access log)."""
        return self._server.context

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain in-flight sessions, join every thread.

        In-flight requests get ``drain_timeout`` seconds to finish
        (their responses go out; the connections then close). Sessions
        still alive past the budget — e.g. a client holding an idle
        connection open — have their sockets force-closed, which
        unblocks the handler's read and ends the thread. On return no
        session threads remain, so back-to-back load-test runs (and
        pytest sessions) never inherit orphan handlers.
        """
        self._server.draining.set()
        self._server.shutdown()  # acceptor loop exits; no new sessions
        deadline = time.monotonic() + max(0.0, drain_timeout)
        # The acceptor can exit with connections the kernel already
        # completed still queued on the listener; closing it would
        # reset their clients with requests unanswered.
        try:
            self._server.socket.setblocking(False)
            while time.monotonic() < deadline:
                request, client_address = self._server.get_request()
                self._server.process_request(request, client_address)
        except OSError:
            pass  # backlog empty, or the listener is already closed
        for thread, _ in self._server.live_sessions():
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        for thread, connection in self._server.live_sessions():
            # Past the drain budget: yank the transport out from under
            # the blocked read. shutdown() (not just close()) is what
            # reliably wakes a thread parked in recv().
            try:
                connection.shutdown(socket.SHUT_RDWR)  # type: ignore[attr-defined]
            except OSError:
                pass
            thread.join(timeout=1.0)
        self._server.server_close()
        self._thread.join(timeout=5)
        if self._server.context.access_log is not None:
            self._server.context.access_log.close()

    def __enter__(self) -> "TcpServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_tcp(
    engine: QueryEngine,
    settings: ServeSettings = ServeSettings(),
    *,
    host: str = "127.0.0.1",
    port: int = 0,
) -> TcpServerHandle:
    """Serve the protocol over TCP from a background acceptor thread.

    Returns a :class:`TcpServerHandle` at once; stop the server with
    :meth:`TcpServerHandle.stop` (or a ``with`` block). ``port=0``
    binds an ephemeral port (read it off the handle's
    :attr:`~TcpServerHandle.address`).
    """
    server = _TcpServer((host, port), engine, settings)
    thread = threading.Thread(
        target=server.serve_forever,
        name="ripple-serve-acceptor",
        daemon=True,
    )
    thread.start()
    return TcpServerHandle(server, thread)
