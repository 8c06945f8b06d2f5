"""Request-scoped structured access logs for the serve daemon.

One JSONL line per protocol request, written as the response goes out,
so any client-observed anomaly (a loadtest failure row, a latency
spike, an unexplained shed) can be joined — by ``request_id`` — to the
exact server-side decision that produced it. Enabled with
``ripple serve --access-log PATH``; the daemon writes, flushes per
line, and closes the file on shutdown, so a crashed run still leaves
every completed request on disk.

Record fields (absent keys simply did not apply to that request):

``ts``
    Unix timestamp (seconds, microsecond precision) of the response.
``request_id``
    The server-assigned (or client-echoed) id; see
    :mod:`repro.serving.protocol`.
``op`` / ``class``
    The operation and its admission cost class (``control`` for
    admission-bypassing ops and unparseable lines).
``outcome``
    ``"ok"``, an error code (``parse``, ``overloaded``, …), or a chaos
    verdict (``"crash"``, ``"garbage"``) for injected session faults
    that never produced a JSON response.
``queue_ms`` / ``service_ms`` / ``handle_ms``
    Admission queue wait, engine service time (admission slot hold),
    and end-to-end handle time for this request.
``tier``
    Where a query resolved (``cache`` / ``index``); for a
    batch, a tier → count summary.
``shed``
    The shed reason when admission refused the request.
``fault``
    The injected chaos mode when one fired at ``serve.handle``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import IO

__all__ = ["AccessLog"]


class AccessLog:
    """A thread-safe JSONL appender for per-request access records.

    Daemon session threads share one instance; the lock serialises
    whole lines so concurrent requests never interleave bytes. Writes
    flush immediately — an access log is for post-mortems, and the
    post-mortem case is exactly the one where buffered tails vanish.
    """

    __slots__ = ("_stream", "_lock", "_owns_stream", "_closed")

    def __init__(self, stream: IO[str], *, owns_stream: bool = False) -> None:
        self._stream = stream
        self._lock = threading.Lock()
        self._owns_stream = owns_stream
        self._closed = False

    @classmethod
    def open(cls, path) -> "AccessLog":
        """Open (append) an access log at ``path``."""
        return cls(open(path, "a", encoding="utf-8"), owns_stream=True)

    def write(self, record: dict) -> None:
        """Append one record as a compact JSON line (with timestamp)."""
        line = json.dumps(
            {"ts": round(time.time(), 6), **record},
            separators=(",", ":"),
            default=str,
            sort_keys=False,
        )
        with self._lock:
            if self._closed:
                return
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        """Flush and (when this log opened the file) close it."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._stream.flush()
            finally:
                if self._owns_stream:
                    self._stream.close()
