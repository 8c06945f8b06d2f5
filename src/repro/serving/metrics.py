"""The ``/metrics`` surface: Prometheus text exposition over HTTP.

:func:`render_prometheus` turns the daemon's collector (counters,
phases, latency histograms) plus live gauges (admission queue depths,
engine generation, uptime) into Prometheus text exposition format
v0.0.4 — the format every scraper, including plain ``curl``, already
speaks. :class:`MetricsServer` is the tiny stdlib ``http.server``
listener behind ``ripple serve --metrics-port``; it binds its own
port so a saturated protocol daemon can still be scraped.

Naming scheme (documented in the catalogue in
``docs/observability.md``):

* counters: dots become underscores and ``_total`` is appended —
  ``serving.requests`` → ``serving_requests_total``;
* phases: same, with ``_seconds_total`` — they are monotone
  wall-clock accumulations;
* latency histogram families (``serving.handle_seconds.<class>`` …)
  are grouped into one Prometheus histogram per family with a
  ``class`` label (``tier`` for ``serving.resolve_seconds``),
  down-sampled to power-of-two bucket edges (exact, because bucket
  counts are cumulative in the exposition);
* gauges keep their natural names: ``serving_queue_depth{class=…}``,
  ``serving_in_service{class=…}``, ``serving_uptime_seconds``,
  ``serving_index_generation``, ``serving_cache_entries`` …

:func:`validate_exposition` is the strict grammar/duplicate checker
used by tests and the CI metrics smoke — every sample line must parse,
belong to a ``# TYPE``-declared family, and no metric name may be
declared twice.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import obs
from repro.errors import ParseError
from repro.obs.histogram import BOUNDS, Histogram

__all__ = [
    "CONTENT_TYPE",
    "HISTOGRAM_FAMILIES",
    "MetricsServer",
    "render_prometheus",
    "validate_exposition",
]

#: The exposition content type scrapers negotiate on.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Histogram families exported with a label per recorded class — the
#: suffix after the family prefix becomes the label value.
HISTOGRAM_FAMILIES = {
    "serving.handle_seconds": "class",
    "serving.queue_wait_seconds": "class",
    "serving.service_seconds": "class",
    "serving.resolve_seconds": "tier",
}

#: Exposition bucket edges: every 4th internal bound (the exact powers
#: of two), so each exposed cumulative count is exact, just coarser.
_EXPOSED_BOUND_STEP = 4

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITISE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(raw: str, suffix: str = "") -> str:
    name = _SANITISE_RE.sub("_", raw) + suffix
    if not _NAME_RE.match(name):
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _histogram_lines(
    name: str,
    label: str,
    series: dict[str, Histogram],
) -> list[str]:
    lines = [
        f"# HELP {name} Latency histogram (seconds), "
        f"log2 buckets, exact counts.",
        f"# TYPE {name} histogram",
    ]
    # Exposure points: bounds at indices 0, 4, 8, … are the exact
    # powers of two; cumulative counts stay exact at any subset of
    # edges, the exposition is just coarser than the internal layout.
    exposed_at = set(range(0, len(BOUNDS), _EXPOSED_BOUND_STEP))
    for label_value in sorted(series):
        histogram = series[label_value]
        counts = histogram.counts
        prefix = f'{label}="{_escape_label(label_value)}"'
        cumulative = 0
        for index in range(len(BOUNDS)):
            cumulative += counts[index]
            if index in exposed_at:
                lines.append(
                    f'{name}_bucket{{{prefix},le="{BOUNDS[index]!r}"}}'
                    f" {cumulative}"
                )
        lines.append(
            f'{name}_bucket{{{prefix},le="+Inf"}} {histogram.count}'
        )
        lines.append(f"{name}_sum{{{prefix}}} {_format_value(histogram.sum)}")
        lines.append(f"{name}_count{{{prefix}}} {histogram.count}")
    return lines


def render_prometheus(
    collector,
    *,
    admission=None,
    engine=None,
    started_at: float | None = None,
) -> str:
    """The collector's state as Prometheus text exposition v0.0.4.

    ``admission`` (an
    :class:`~repro.serving.admission.AdmissionController`) contributes
    the live ``serving_queue_depth`` / ``serving_in_service`` gauges;
    ``engine`` (a :class:`~repro.serving.engine.QueryEngine`)
    contributes generation and cache gauges; ``started_at`` (a
    ``time.monotonic`` instant) contributes ``serving_uptime_seconds``.
    """
    lines: list[str] = []
    emitted: set[str] = set()

    def emit_single(name, metric_type, value, help_text, labels=""):
        if name in emitted:
            return
        emitted.add(name)
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {metric_type}")
        lines.append(f"{name}{labels} {_format_value(value)}")

    # Counters: one exposition metric per collector counter.
    for raw, value in sorted(collector.counters.items()):
        name = _metric_name(raw, "_total")
        if name in emitted:
            continue
        emitted.add(name)
        lines.append(f"# HELP {name} Counter {raw} (cumulative).")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_format_value(int(value))}")

    # Phases: monotone wall-clock accumulations, exported as counters.
    for raw, seconds in sorted(collector.phases.items()):
        name = _metric_name(raw, "_phase_seconds_total")
        if name in emitted:
            continue
        emitted.add(name)
        lines.append(
            f"# HELP {name} Accumulated wall-clock seconds in phase "
            f"{raw}."
        )
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_format_value(float(seconds))}")

    # Latency histograms, grouped per family with a class/tier label.
    snapshots = collector.histogram_snapshots()
    for family in sorted(HISTOGRAM_FAMILIES):
        label = HISTOGRAM_FAMILIES[family]
        prefix = family + "."
        series: dict[str, Histogram] = {}
        for raw, snapshot in snapshots.items():
            if raw.startswith(prefix):
                series[raw[len(prefix):]] = Histogram.from_snapshot(
                    snapshot
                )
            elif raw == family:
                series["all"] = Histogram.from_snapshot(snapshot)
        if not series:
            continue
        name = _metric_name(family)
        if name in emitted:
            continue
        emitted.add(name)
        lines.extend(_histogram_lines(name, label, series))

    # Gauges: live state, not history.
    if admission is not None:
        stats = admission.stats()
        for gauge, help_text in (
            ("queue_depth", "Requests waiting in the admission queue."),
            ("in_service", "Requests currently executing."),
        ):
            name = f"serving_{gauge}"
            if name in emitted:
                continue
            emitted.add(name)
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            for klass in sorted(stats[gauge]):
                lines.append(
                    f'{name}{{class="{_escape_label(klass)}"}} '
                    f"{_format_value(int(stats[gauge][klass]))}"
                )
        emit_single(
            "serving_queue_slots_free",
            "gauge",
            int(stats["slots_free"]),
            "Free worker slots in the admission controller.",
        )
        emit_single(
            "serving_workers",
            "gauge",
            int(stats["workers"]),
            "Configured concurrent worker slots.",
        )
    if engine is not None:
        engine_stats = engine.stats()
        emit_single(
            "serving_index_generation",
            "gauge",
            int(engine_stats["version"]),
            "Monotone index generation (bumped on every swap).",
        )
        emit_single(
            "serving_cache_entries",
            "gauge",
            int(engine_stats["cache"]["entries"]),
            "Entries currently in the query LRU cache.",
        )
        emit_single(
            "serving_cache_capacity",
            "gauge",
            int(engine_stats["cache"]["capacity"]),
            "Configured query LRU cache capacity.",
        )
    if started_at is not None:
        emit_single(
            "serving_uptime_seconds",
            "gauge",
            time.monotonic() - started_at,
            "Seconds since the daemon started.",
        )
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)"
    r"( (?P<timestamp>-?\d+))?$"
)
_LABELS_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(,|$)'
)
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def validate_exposition(text: str) -> dict[str, str]:
    """Strictly check Prometheus text exposition v0.0.4 conformance.

    Returns ``{metric_name: type}`` for every declared family. Raises
    :class:`repro.errors.ParseError` on: an unparseable sample line, a
    malformed label set, a non-float value, a duplicate ``# TYPE``
    declaration (duplicate metric name), a sample whose family was
    never declared, or two samples with identical name + labels.
    """
    declared: dict[str, str] = {}
    seen_samples: set[str] = set()
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4 or parts[3] not in _TYPES:
                raise ParseError(
                    f"line {line_number}: malformed TYPE line {line!r}"
                )
            name = parts[2]
            if name in declared:
                raise ParseError(
                    f"line {line_number}: duplicate metric name {name!r}"
                )
            declared[name] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ParseError(
                f"line {line_number}: unparseable sample {line!r}"
            )
        labels = match.group("labels")
        if labels is not None:
            body = labels[1:-1]
            consumed = 0
            for label_match in _LABELS_RE.finditer(body):
                consumed = label_match.end()
            if body and consumed != len(body):
                raise ParseError(
                    f"line {line_number}: malformed labels {labels!r}"
                )
        try:
            float(match.group("value"))
        except ValueError as exc:
            raise ParseError(
                f"line {line_number}: non-numeric value "
                f"{match.group('value')!r}"
            ) from exc
        name = match.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                stripped = name[: -len(suffix)]
                if declared.get(stripped) in ("histogram", "summary"):
                    family = stripped
                    break
        if family not in declared:
            raise ParseError(
                f"line {line_number}: sample {name!r} has no "
                f"# TYPE declaration"
            )
        sample_key = f"{name}{labels or ''}"
        if sample_key in seen_samples:
            raise ParseError(
                f"line {line_number}: duplicate sample {sample_key!r}"
            )
        seen_samples.add(sample_key)
    return declared


class MetricsServer:
    """The stdlib HTTP listener behind ``ripple serve --metrics-port``.

    Serves ``GET /metrics`` (exposition of the given collector +
    optional admission/engine gauges) and ``GET /healthz`` (a JSON
    liveness probe). Runs its acceptor in a daemon thread;
    :meth:`start` returns once the port is bound, so ``port=0`` is
    usable in tests (read the concrete port off :attr:`port`).
    """

    def __init__(
        self,
        *,
        collector=None,
        admission=None,
        engine=None,
        started_at: float | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._collector = (
            collector if collector is not None else obs.get_collector()
        )
        self._admission = admission
        self._engine = engine
        self._started_at = (
            started_at if started_at is not None else time.monotonic()
        )
        self._host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def render(self) -> str:
        """The current exposition document (what ``/metrics`` serves)."""
        return render_prometheus(
            self._collector,
            admission=self._admission,
            engine=self._engine,
            started_at=self._started_at,
        )

    def start(self) -> "MetricsServer":
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                if self.path.split("?", 1)[0] == "/metrics":
                    body = outer.render().encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", CONTENT_TYPE)
                elif self.path.split("?", 1)[0] == "/healthz":
                    body = json.dumps({"ok": True}).encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                else:
                    body = b"not found (try /metrics)\n"
                    self.send_response(404)
                    self.send_header("Content-Type", "text/plain")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:
                pass  # scrapes are periodic; stderr noise helps nobody

        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), _Handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="ripple-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def port(self) -> int:
        """The bound port (concrete even when 0 was requested)."""
        if self._httpd is None:
            raise RuntimeError("metrics server not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}/metrics"

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self if self._httpd is not None else self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
