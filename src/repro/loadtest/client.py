"""Concurrent open-loop client workers for the ``repro.serve/1`` wire.

Each worker owns one TCP connection and an interleaved slice of the
precomputed schedule (request i belongs to worker ``i % workers``, so
every worker sees the same arrival-rate share). A worker sleeps until
each request's scheduled instant, fires, and measures latency **from
the scheduled instant** — if the previous response was late and this
send is delayed, the delay is charged to the server as queueing time
rather than silently dropped (open-loop, coordinated-omission-safe).
Each sample also records how late the send itself was, so the run
table can report the client's p95 without that lateness next to the
server's own.

Failure taxonomy (one outcome per request, see
:data:`repro.loadtest.run_table.OUTCOMES`):

* ``ok`` — the response matched the request's expectation (including
  expected error codes from ``unknown`` probes);
* ``deadline`` — the daemon answered with an unexpected ``deadline``
  code, or the client's own read timed out;
* ``protocol-error`` — an unexpected error code, an un-decodable
  response, or a success where an error was expected;
* ``connection-refused`` — the connection could not be made or died
  mid-request (refused, reset, broken pipe);
* ``shed`` — the daemon refused the request with ``overloaded`` and it
  stayed refused through the retry budget (shedding is the daemon
  *working as designed*, so it is not a failure).

When the scenario grants a ``retry_budget``, a worker retries
``overloaded`` answers (waiting at least the response's
``retry_after_ms`` hint), undecodable response lines, and dropped
connections — with exponential backoff and *seeded* full jitter, so
retry timing is as reproducible as the schedule itself. Latency is
still measured from the original scheduled instant: a request that
succeeded on retry charges its backoff to the server, open-loop style.
"""

from __future__ import annotations

import dataclasses
import json
import random
import socket
import threading
import time

from repro.loadtest.run_table import Sample
from repro.loadtest.scenario import Scenario
from repro.loadtest.workload import Request
from repro.resilience import Deadline

__all__ = ["drive", "request_once", "request_with_retries"]

#: Client-side read budget: generous, so only a genuinely wedged
#: daemon trips it (the per-request serving deadline is the real gate).
CLIENT_TIMEOUT_S = 30.0


def _classify(request: Request, line: str) -> tuple[Sample, float | None]:
    """Judge one response line against the request's expectation.

    Returns ``(sample, retry_after_ms)`` — the hint is non-None only
    for ``overloaded`` responses that advertised one.
    """

    def sample(outcome: str, code: str, latency_ms: float = 0.0) -> Sample:
        return Sample(
            kind=request.kind,
            scheduled_s=request.offset_s,
            latency_ms=latency_ms,
            outcome=outcome,
            code=code,
        )

    try:
        response = json.loads(line)
    except ValueError:
        return sample("protocol-error", "undecodable"), None
    code = response.get("code", "")
    if code == "overloaded":
        # Shedding applies regardless of the expectation: even an
        # `unknown` probe is admitted (or not) before it is judged.
        hint = response.get("retry_after_ms")
        return (
            sample("shed", code),
            float(hint) if isinstance(hint, (int, float)) else None,
        )
    if request.expect == "ok":
        if response.get("ok"):
            return sample("ok", ""), None
        if code == "deadline":
            return sample("deadline", code), None
        return sample("protocol-error", code or "error"), None
    # An error was expected: the exact code is the success condition.
    if code == request.expect:
        return sample("ok", code), None
    return sample("protocol-error", code or "unexpected-success"), None


class _Connection:
    """One lazily-(re)connected line-protocol client socket."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self._sock: socket.socket | None = None
        self._stream = None

    def ensure(self):
        if self._stream is None:
            self._sock = socket.create_connection(
                self.address, timeout=CLIENT_TIMEOUT_S
            )
            self._stream = self._sock.makefile(
                "rw", encoding="utf-8", newline="\n"
            )
        return self._stream

    def drop(self) -> None:
        for closer in (self._stream, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._sock = None
        self._stream = None

    def close(self) -> None:
        self.drop()


def _attempt(
    connection: _Connection, request: Request, scheduled_at: float
) -> tuple[Sample, float | None]:
    """One send + classify; returns ``(sample, retry_after_ms hint)``.

    Latency is measured from the scheduled instant, not the actual
    send.
    """
    try:
        stream = connection.ensure()
        stream.write(
            json.dumps(request.payload, separators=(",", ":")) + "\n"
        )
        stream.flush()
        line = stream.readline()
    except socket.timeout:
        connection.drop()
        return Sample(
            kind=request.kind,
            scheduled_s=request.offset_s,
            latency_ms=(time.monotonic() - scheduled_at) * 1000.0,
            outcome="deadline",
            code="client-timeout",
        ), None
    except OSError as exc:
        connection.drop()
        return Sample(
            kind=request.kind,
            scheduled_s=request.offset_s,
            latency_ms=(time.monotonic() - scheduled_at) * 1000.0,
            outcome="connection-refused",
            code=type(exc).__name__,
        ), None
    latency_ms = (time.monotonic() - scheduled_at) * 1000.0
    if not line:
        # EOF mid-session: the daemon hung up on us.
        connection.drop()
        return Sample(
            kind=request.kind,
            scheduled_s=request.offset_s,
            latency_ms=latency_ms,
            outcome="connection-refused",
            code="eof",
        ), None
    judged, hint = _classify(request, line)
    return dataclasses.replace(judged, latency_ms=latency_ms), hint


def request_once(
    connection: _Connection, request: Request, scheduled_at: float
) -> Sample:
    """Send one request and classify the outcome (no retries)."""
    sample, _ = _attempt(connection, request, scheduled_at)
    return sample


def _retriable(sample: Sample) -> bool:
    """Whether a retry could plausibly change this outcome: shed
    requests (the daemon said so), garbage response lines, and dropped
    connections. Client-side timeouts are NOT retried — the daemon
    still owes a response on that connection."""
    return (
        sample.outcome == "shed"
        or sample.outcome == "connection-refused"
        or (
            sample.outcome == "protocol-error"
            and sample.code == "undecodable"
        )
    )


def request_with_retries(
    connection: _Connection,
    request: Request,
    scheduled_at: float,
    scenario: Scenario,
    rng: random.Random,
    deadline: Deadline | None = None,
) -> Sample:
    """Send one request, retrying per the scenario's budget/backoff.

    The n-th retry waits ``backoff_base_ms * 2**(n-1)`` (capped at
    ``backoff_cap_ms``), raised to the daemon's ``retry_after_ms`` hint
    when one was given, then multiplied by full jitter in [0.5, 1.0)
    from the seeded per-worker RNG. The returned sample reflects the
    *final* attempt, with latency from the original scheduled instant
    and the consumed retry count attached.
    """
    sample, hint_ms = _attempt(connection, request, scheduled_at)
    retries = 0
    while (
        retries < scenario.retry_budget
        and _retriable(sample)
        and not (deadline is not None and deadline.expired())
    ):
        retries += 1
        delay_ms = min(
            scenario.backoff_cap_ms,
            scenario.backoff_base_ms * (2 ** (retries - 1)),
        )
        if hint_ms is not None:
            delay_ms = max(delay_ms, hint_ms)
        time.sleep((0.5 + 0.5 * rng.random()) * delay_ms / 1000.0)
        sample, hint_ms = _attempt(connection, request, scheduled_at)
    if retries:
        sample = dataclasses.replace(sample, retries=retries)
    return sample


def _worker(
    address: tuple[str, int],
    slice_: list[Request],
    start: float,
    scenario: Scenario,
    worker_index: int,
    graph_path: str | None,
    mutate_lock: threading.Lock,
    deadline: Deadline | None,
    out: list[Sample],
) -> None:
    connection = _Connection(address)
    # Seeded per-worker jitter: retry timing replays exactly, like the
    # schedule it perturbs.
    rng = random.Random(scenario.seed * 1_000_003 + worker_index)
    try:
        for request in slice_:
            if deadline is not None and deadline.expired():
                return
            scheduled_at = start + request.offset_s
            delay = scheduled_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            if request.mutate_append and graph_path:
                # Storm event: grow the graph on disk, then tell the
                # daemon to reload. The lock serialises appends from
                # concurrent workers; each append is one whole line.
                with mutate_lock:
                    with open(graph_path, "a", encoding="utf-8") as handle:
                        handle.write(request.mutate_append + "\n")
            send_late_ms = max(0.0, time.monotonic() - scheduled_at) * 1000.0
            if scenario.retry_budget:
                sample = request_with_retries(
                    connection, request, scheduled_at, scenario, rng,
                    deadline,
                )
            else:
                sample = request_once(connection, request, scheduled_at)
            out.append(
                dataclasses.replace(
                    sample,
                    send_late_ms=send_late_ms,
                    warmup=request.offset_s < scenario.warmup_s,
                )
            )
    finally:
        connection.close()


def drive(
    address: tuple[str, int],
    schedule: list[Request],
    scenario: Scenario,
    *,
    graph_path: str | None = None,
    deadline: Deadline | None = None,
) -> tuple[list[Sample], float]:
    """Run one repetition's schedule; returns ``(samples, start)``.

    ``start`` is the monotonic instant offset 0 maps to (resource
    windows are computed against it). Samples come back in schedule
    order. A harness :class:`~repro.resilience.Deadline` makes workers
    stop scheduling cooperatively; already-sent requests still land.
    """
    workers = max(1, scenario.workers)
    slices: list[list[Request]] = [[] for _ in range(workers)]
    for i, request in enumerate(schedule):
        slices[i % workers].append(request)
    outputs: list[list[Sample]] = [[] for _ in range(workers)]
    mutate_lock = threading.Lock()
    # A small lead so every worker is parked on its first sleep before
    # offset 0 arrives.
    start = time.monotonic() + 0.05
    threads = [
        threading.Thread(
            target=_worker,
            args=(
                address,
                slices[w],
                start,
                scenario,
                w,
                graph_path,
                mutate_lock,
                deadline,
                outputs[w],
            ),
            name=f"loadtest-worker-{w}",
            daemon=True,
        )
        for w in range(workers)
    ]
    for thread in threads:
        thread.start()
    join_budget = scenario.duration_s + CLIENT_TIMEOUT_S + 10.0
    join_by = time.monotonic() + join_budget
    for thread in threads:
        thread.join(timeout=max(0.0, join_by - time.monotonic()))
    samples = [s for out in outputs for s in out]
    samples.sort(key=lambda s: s.scheduled_s)
    return samples, start
