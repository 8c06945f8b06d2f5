"""The wire protocol: line-delimited JSON requests and responses.

One request per line, one response line per request, in order — the
simplest protocol that works identically over stdio and TCP and is
scriptable with ``echo`` + ``nc``. Documented with examples in
``docs/serving.md``.

Operations (the ``"op"`` field):

* ``ping`` — liveness + protocol version;
* ``query`` — one QkVCS lookup: ``{"op": "query", "v": 7, "k": 3}``;
* ``batch`` — many lookups in one round trip:
  ``{"op": "batch", "queries": [{"v": 7, "k": 3}, …]}``;
* ``stats`` — engine/cache/index introspection plus the ``serving.*``
  counters of the daemon's collector (the load-test harness reads
  these before and after a measurement window and folds the deltas
  into its run table);
* ``reload`` — re-read the served graph from its source and hand the
  fresh copy to the engine (stale indexes rebuild on the next query);
  only available when the daemon was started with a graph path, else
  an ``unsupported-op`` error;
* ``shutdown`` — close this session (the daemon's loop ends).

Every response carries ``"ok"``; errors add ``"error"`` (a message)
and ``"code"`` (machine-readable: ``parse``, ``bad-request``,
``unknown-vertex``, ``unsupported-op``, ``deadline``, ``overloaded``,
``internal``). An ``"id"`` field, when present in a request, is echoed
verbatim so pipelined clients can match responses. Separately, every
response carries ``"request_id"`` — the client's own ``"request_id"``
echoed unmodified when supplied, a server-assigned ``s-<pid>-<seq>``
otherwise — which also tags the request's engine span, chaos fault
draws, and access-log record (see :mod:`repro.serving.accesslog`).

``overloaded`` is the load-shedding error: when the daemon's
:class:`~repro.serving.admission.AdmissionController` is saturated the
request is refused *immediately* instead of queueing without bound.
The response additionally carries ``"retriable": true`` and
``"retry_after_ms"`` (a backoff hint derived from the op's observed
service time and the current backlog); well-behaved clients retry
after roughly that long with jitter. Control ops (``ping``, ``stats``,
``shutdown``) bypass admission so an overloaded daemon can still be
inspected and stopped.

This module is pure request → response logic
(:func:`handle_request` / :func:`handle_line`); the socket and stdio
plumbing lives in :mod:`repro.serving.daemon`.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field

from repro import obs
from repro.errors import GraphFormatError, ParameterError, ReproError
from repro.obs.histogram import Histogram
from repro.resilience import Deadline
from repro.serving import chaos
from repro.serving.accesslog import AccessLog
from repro.serving.admission import AdmissionController, cost_class
from repro.serving.engine import BatchDeadlineExpired, QueryEngine, QueryResult

__all__ = [
    "PROTOCOL",
    "ServerContext",
    "error_line",
    "handle_line",
    "handle_request",
    "latency_summaries",
]

#: Protocol identifier reported by ``ping`` and rejected-by clients on
#: incompatible changes.
PROTOCOL = "repro.serve/1"

_OPS = ("ping", "query", "batch", "stats", "reload", "shutdown")

#: Histogram families summarised by the ``stats`` op (each family's
#: per-class members — ``serving.handle_seconds.point`` etc. — are
#: merged into one family-wide distribution before deriving p50/95/99).
_LATENCY_FAMILIES = (
    "serving.handle_seconds",
    "serving.queue_wait_seconds",
    "serving.service_seconds",
    "serving.resolve_seconds",
)

#: Server-assigned request-id sequence: unique within a daemon process,
#: prefixed with the pid so ids from a restarted daemon never collide
#: in a shared access log.
_REQUEST_SEQUENCE = itertools.count(1)


def _new_request_id() -> str:
    return f"s-{os.getpid():x}-{next(_REQUEST_SEQUENCE):06d}"


@dataclass
class ServerContext:
    """Per-daemon serving state threaded into request handling.

    ``started_at`` (monotonic) backs the ``stats`` op's ``uptime_s``;
    ``access_log`` (optional) receives one record per request line.
    The daemon frontends (:func:`repro.serving.daemon.serve_stdio` /
    ``serve_tcp``) create one and own the access log's lifetime.
    """

    started_at: float = field(default_factory=time.monotonic)
    access_log: AccessLog | None = None

    def uptime_s(self) -> float:
        return time.monotonic() - self.started_at


def _encode_result(result: QueryResult) -> dict:
    return {
        "v": result.vertex,
        "k": result.k,
        "components": [list(members) for members in result.members],
        "count": len(result.components),
        "source": result.source,
    }


def _error(message: str, code: str) -> dict:
    obs.count("serving.errors")
    obs.count(f"serving.errors.{code}")
    return {"ok": False, "error": message, "code": code}


def _overloaded(klass: str, admission: AdmissionController) -> dict:
    response = _error(
        f"overloaded: no capacity for a {klass} request, retry later",
        "overloaded",
    )
    response["retriable"] = True
    response["retry_after_ms"] = admission.retry_after_ms(klass)
    return response


def _parse_query(doc: dict) -> tuple:
    if "v" not in doc:
        raise ParameterError("query needs a 'v' (vertex) field")
    k = doc.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ParameterError(f"query needs an integer 'k' >= 1, got {k!r}")
    vertex = doc["v"]
    if isinstance(vertex, bool) or not isinstance(vertex, (int, str)):
        raise ParameterError(
            f"vertex must be an int or str label, got {vertex!r}"
        )
    return vertex, k


def _serving_counters() -> dict:
    """The active collector's ``serving.*`` counters (empty under the
    no-op default collector)."""
    return {
        name: value
        for name, value in obs.get_collector().counters.items()
        if name.startswith("serving.")
    }


def latency_summaries(collector) -> dict:
    """Family-wide p50/p95/p99 summaries from a collector's histograms.

    Merges each ``serving.*_seconds`` family's per-class histograms
    into one distribution and derives quantiles server-side, so a
    ``stats`` caller (or ``ripple top``) gets tails without shipping
    raw buckets.
    """
    snapshots = collector.histogram_snapshots()
    summaries = {}
    for family in _LATENCY_FAMILIES:
        merged = Histogram()
        prefix = family + "."
        for name, snapshot in snapshots.items():
            if name == family or name.startswith(prefix):
                merged.merge(snapshot)
        if not merged.is_empty():
            summaries[family] = merged.summary()
    return summaries


def _respond(response: dict, request: dict, request_id, log: dict) -> dict:
    """Stamp the id fields and derive the access-log outcome/tier."""
    if "id" in request:
        response["id"] = request["id"]
    if request_id is not None:
        response["request_id"] = request_id
    log["outcome"] = (
        "ok" if response.get("ok") else response.get("code", "error")
    )
    if response.get("op") == "query" and "source" in response:
        log["tier"] = response["source"]
    elif response.get("op") == "batch" or "results" in response:
        tiers: dict[str, int] = {}
        for result in response.get("results") or ():
            source = result.get("source")
            if source:
                tiers[source] = tiers.get(source, 0) + 1
        if tiers:
            log["tier"] = tiers
    return response


def handle_request(
    engine: QueryEngine,
    request: dict,
    *,
    deadline: Deadline | None = None,
    reloader=None,
    admission: AdmissionController | None = None,
    request_id=None,
    log: dict | None = None,
    context: ServerContext | None = None,
) -> tuple[dict, bool]:
    """Answer one decoded request; returns ``(response, keep_serving)``.

    ``keep_serving`` is False only for ``shutdown``. The deadline
    bounds this request's work (checked cooperatively at query
    boundaries); expiry yields a ``deadline`` error response carrying
    the completed prefix of a batch. ``reloader`` is a zero-argument
    callable returning a fresh :class:`~repro.graph.adjacency.Graph`
    for the ``reload`` op (None = the op is unsupported).

    ``admission`` is the daemon's shared
    :class:`~repro.serving.admission.AdmissionController` (None = no
    admission control, e.g. direct library use). Work-carrying ops
    (``query``/``batch``/``reload``) are classed by cost and admitted
    through it; a shed request gets the ``overloaded`` error with its
    ``retry_after_ms`` hint and the engine is never touched.

    ``request_id`` is echoed in every response (including errors and
    sheds) under ``"request_id"``; when None, a client-supplied
    ``"request_id"`` field round-trips unmodified. ``log`` (optional)
    is filled in place with the access-log fields of this request —
    op, class, queue_ms, service_ms, outcome, tier, shed — for
    :func:`handle_line` to emit. ``context`` carries daemon-scoped
    state (uptime for ``stats``, the access log).
    """
    if log is None:
        log = {}
    if request_id is None:
        request_id = request.get("request_id")
    op = request.get("op")
    klass = cost_class(request)
    log["op"] = op if isinstance(op, str) else None
    log["class"] = klass or "control"
    if op not in _OPS:
        response = _error(
            f"unsupported op {op!r} (expected one of {', '.join(_OPS)})",
            "unsupported-op",
        )
        return _respond(response, request, request_id, log), True
    obs.count("serving.requests")
    obs.count(f"serving.requests.{op}")
    ticket = None
    if admission is not None and klass is not None:
        ticket = admission.admit(klass)
        if ticket is None:
            response = _overloaded(klass, admission)
            log["shed"] = f"queue-full:{klass}"
            return _respond(response, request, request_id, log), True
        log["queue_ms"] = round(ticket.queued_s * 1000.0, 3)
    keep_serving = True
    service_started = time.perf_counter()
    try:
        if op == "ping":
            response = {"ok": True, "op": "ping", "protocol": PROTOCOL}
        elif op == "stats":
            response = _stats_response(engine, request, admission, context)
        elif op == "reload":
            if reloader is None:
                response = _error(
                    "reload needs the daemon to know its graph source "
                    "(start `ripple serve` with --graph)",
                    "unsupported-op",
                )
            else:
                try:
                    graph = reloader()
                except (OSError, GraphFormatError) as exc:
                    response = _error(f"reload failed: {exc}", "internal")
                else:
                    engine.reload(graph)
                    response = {
                        "ok": True,
                        "op": "reload",
                        "num_vertices": graph.num_vertices,
                        "num_edges": graph.num_edges,
                    }
        elif op == "shutdown":
            response = {"ok": True, "op": "shutdown"}
            keep_serving = False
        elif op == "query":
            vertex, k = _parse_query(request)
            result = engine.query(
                vertex, k, deadline=deadline, request_id=request_id
            )
            response = {"ok": True, "op": "query", **_encode_result(result)}
        else:  # batch
            queries = request.get("queries")
            if not isinstance(queries, list):
                raise ParameterError("batch needs a 'queries' list")
            pairs = [_parse_query(q) for q in _as_dicts(queries)]
            results = engine.query_batch(
                pairs, deadline=deadline, request_id=request_id
            )
            response = {
                "ok": True,
                "op": "batch",
                "results": [_encode_result(r) for r in results],
                "count": len(results),
            }
    except BatchDeadlineExpired as exc:
        response = _error(str(exc), "deadline")
        response["results"] = [_encode_result(r) for r in exc.completed]
        response["completed"] = len(exc.completed)
        response["total"] = exc.total
    except ParameterError as exc:
        code = (
            "unknown-vertex"
            if "not in the served graph" in str(exc)
            else "bad-request"
        )
        response = _error(str(exc), code)
    except ReproError as exc:
        response = _error(str(exc), "internal")
    finally:
        log["service_ms"] = round(
            (time.perf_counter() - service_started) * 1000.0, 3
        )
        if ticket is not None:
            ticket.release()
    return _respond(response, request, request_id, log), keep_serving


def _stats_response(
    engine: QueryEngine,
    request: dict,
    admission: AdmissionController | None,
    context: ServerContext | None,
) -> dict:
    """The enriched ``stats`` payload (histograms, tails, gauges).

    ``{"op": "stats", "reset": true}`` additionally zeroes the
    window-scoped histograms *after* snapshotting them, so the
    response reports the closing window while lifetime counters keep
    accumulating — the read-and-reset shape a polling dashboard wants.
    """
    stats = engine.stats()
    if admission is not None:
        stats["admission"] = admission.stats()
    collector = obs.get_collector()
    histograms = {
        name: snapshot
        for name, snapshot in collector.histogram_snapshots().items()
        if name.startswith("serving.")
    }
    gauges: dict = {}
    if admission is not None:
        admission_stats = stats["admission"]
        gauges = {
            "queue_depth": admission_stats["queue_depth"],
            "in_service": admission_stats["in_service"],
            "slots_free": admission_stats["slots_free"],
        }
    response = {
        "ok": True,
        "op": "stats",
        "protocol": PROTOCOL,
        "generation": engine.version,
        "stats": stats,
        "counters": _serving_counters(),
        "histograms": histograms,
        "latency": latency_summaries(collector),
        "gauges": gauges,
    }
    if context is not None:
        response["uptime_s"] = round(context.uptime_s(), 3)
    if request.get("reset"):
        collector.reset_histograms()
        response["reset"] = True
    return response


def error_line(message: str, code: str, *, request_id=None) -> str:
    """A serialised error response line, for transport-level rejections
    (e.g. the daemon refusing an oversized request line) that never
    reach :func:`handle_line`. A fresh server id is assigned when none
    is given, so even transport rejections are joinable to the access
    log."""
    response = _error(message, code)
    response["request_id"] = (
        request_id if request_id is not None else _new_request_id()
    )
    return json.dumps(response, separators=(",", ":"))


def _as_dicts(queries: list) -> list[dict]:
    for query in queries:
        if not isinstance(query, dict):
            raise ParameterError(
                f"batch queries must be objects, got {query!r}"
            )
    return queries


def _log_access(
    context: ServerContext | None,
    log: dict,
    *,
    started: float,
    **extra,
) -> None:
    """Emit one access-log record (no-op without a configured log)."""
    if context is None or context.access_log is None:
        return
    record = dict(log)
    record.update(extra)
    record["handle_ms"] = round(
        (time.perf_counter() - started) * 1000.0, 3
    )
    context.access_log.write(record)


def handle_line(
    engine: QueryEngine,
    line: str,
    *,
    request_timeout: float | None = None,
    reloader=None,
    admission: AdmissionController | None = None,
    context: ServerContext | None = None,
) -> tuple[str, bool]:
    """Decode one request line, answer it, encode one response line.

    A fresh per-request :class:`Deadline` is armed from
    ``request_timeout`` (``None`` = unbounded). Malformed JSON gets a
    ``parse`` error response instead of killing the session.

    Every line is assigned a ``request_id`` here — the client's own
    ``"request_id"`` field when it sent one (echoed verbatim,
    whatever its type), a fresh ``s-<pid>-<seq>`` otherwise — and the
    id rides the response, the engine's resolution span, any chaos
    fault draw, and the access-log record. End-to-end handle time
    lands in the ``serving.handle_seconds.<class>`` histogram
    (``control`` for admission-bypassing ops and unparseable lines).

    This is also the ``serve.handle`` chaos stage: ``crash`` raises
    :class:`~repro.serving.chaos.SessionCrash` (the caller must close
    the connection without responding), ``raise`` answers an
    ``internal`` error, ``garbage`` answers an undecodable line, and
    ``hang`` stalls before handling. Crash and garbage faults still
    leave an access-log record — the whole point of the log is joining
    client-visible weirdness to its server-side cause.
    """
    line = line.strip()
    if not line:
        return "", True
    started = time.perf_counter()
    parse_failure = None
    try:
        request = json.loads(line)
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
    except ValueError as exc:
        request = None
        parse_failure = exc
    request_id = (
        request.get("request_id") if request is not None else None
    )
    if request_id is None:
        request_id = _new_request_id()
    log: dict = {"request_id": request_id}
    mode = chaos.draw("serve.handle", request_id=request_id)
    if mode == "crash":
        _log_access(
            context, log, started=started, outcome="crash", fault="crash"
        )
        raise chaos.SessionCrash("injected crash fault at serve.handle")
    if mode == "hang":
        time.sleep(chaos.hang_seconds())
    elif mode == "raise":
        response = _error("injected raise fault at serve.handle", "internal")
        response["request_id"] = request_id
        _log_access(
            context, log, started=started, outcome="internal", fault="raise"
        )
        return json.dumps(response, separators=(",", ":")), True
    elif mode == "garbage":
        _log_access(
            context, log, started=started, outcome="garbage", fault="garbage"
        )
        return '{"ok":tru', True
    if request is None:
        response = _error(f"bad request line: {parse_failure}", "parse")
        response["request_id"] = request_id
        obs.observe(
            "serving.handle_seconds.control",
            time.perf_counter() - started,
        )
        _log_access(
            context, log, started=started, op=None,
            **{"class": "control", "outcome": "parse"},
        )
        return json.dumps(response, separators=(",", ":")), True
    deadline = (
        Deadline(request_timeout) if request_timeout is not None else None
    )
    response, keep_serving = handle_request(
        engine,
        request,
        deadline=deadline,
        reloader=reloader,
        admission=admission,
        request_id=request_id,
        log=log,
        context=context,
    )
    obs.observe(
        f"serving.handle_seconds.{log.get('class') or 'control'}",
        time.perf_counter() - started,
    )
    _log_access(context, log, started=started)
    return json.dumps(response, separators=(",", ":")), keep_serving
