"""Hierarchical spans: where inside a run the time and memory go.

Counters (:mod:`repro.obs.collector`) answer *how much*; the span tree
answers *where*. A :class:`SpanRecorder` maintains a stack of open
:class:`Span` nodes per collector — each records wall time, CPU time
(``time.process_time``), peak traced memory (when ``tracemalloc`` is
active) and peak-RSS growth, plus free-form attributes (``k``, seed id,
candidate-ring size, merge-pair ids). Closed spans attach to their
parent, so one RIPPLE run yields the paper's Figure 9 breakdown as an
actual tree: QkVCS seeding → ME/RME expansion rounds → FBM merge tests,
with the flow-solver calls aggregated underneath.

Worker propagation: a parallel task records into its own recorder and
ships the serialised subtree back inside its counter snapshot
(:meth:`repro.obs.Collector.snapshot`); the orchestrator *adopts* it —
re-parents it under whichever span is open at merge time, tagged with
``origin="worker"`` — so the tree of a parallel run still reads
top-down (retries and degradations appear as zero-duration sibling
event spans, emitted by :mod:`repro.resilience.supervisor`).

Exporters: :func:`to_chrome_trace` emits the Chrome trace-event JSON
that chrome://tracing and Perfetto load (worker subtrees are placed on
their own tracks via greedy lane assignment); :func:`render_span_tree`
renders a flame-style text profile in which repeated siblings are
aggregated by name; :func:`span_totals` reduces a tree to per-name
totals for ``ripple stats diff``.
"""

from __future__ import annotations

# The C half of tracemalloc has the three calls a span makes; the
# ``tracemalloc`` module itself costs every process an import.
import _tracemalloc as tracemalloc
import time

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

__all__ = [
    "NULL_SPAN",
    "Span",
    "SpanRecorder",
    "aggregate_tree",
    "render_span_tree",
    "span_totals",
    "to_chrome_trace",
]

#: Default cap on recorded spans per recorder: a pathological run
#: (thousands of merge pairs) degrades to dropped-span accounting
#: instead of unbounded memory.
DEFAULT_MAX_SPANS = 50_000


def _rss_peak_bytes() -> int:
    """Current peak RSS of this process in bytes (0 if unavailable)."""
    if resource is None:  # pragma: no cover - non-POSIX
        return 0
    # ru_maxrss is KiB on Linux (bytes on macOS; close enough for deltas).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Span:
    """One node of the span tree (a closed or in-flight measurement)."""

    __slots__ = (
        "name",
        "attrs",
        "t0",
        "wall",
        "cpu",
        "mem_peak",
        "rss_peak",
        "children",
        "agg",
        "_w0",
        "_c0",
        "_mem_base",
        "_abs_peak",
        "_r0",
    )

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.attrs = attrs or {}
        self.t0 = 0.0  # Unix epoch seconds (comparable across processes)
        self.wall = 0.0
        self.cpu = 0.0
        self.mem_peak: int | None = None  # tracemalloc peak above start
        self.rss_peak: int | None = None  # peak-RSS growth across the span
        self.children: list[Span] = []
        #: Aggregated leaf calls (flow solvers, cut searches):
        #: name → [count, wall_seconds, cpu_seconds].
        self.agg: dict[str, list] = {}
        self._w0 = 0.0
        self._c0 = 0.0
        self._mem_base = 0
        self._abs_peak = 0
        self._r0 = 0

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe; ships in worker snapshots)."""
        payload: dict = {
            "name": self.name,
            "t0": round(self.t0, 6),
            "wall": round(self.wall, 9),
            "cpu": round(self.cpu, 9),
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.mem_peak is not None:
            payload["mem_peak"] = self.mem_peak
        if self.rss_peak is not None:
            payload["rss_peak"] = self.rss_peak
        if self.agg:
            payload["agg"] = {
                name: {
                    "count": entry[0],
                    "wall": round(entry[1], 9),
                    "cpu": round(entry[2], 9),
                }
                for name, entry in self.agg.items()
            }
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Rebuild a span subtree from :meth:`to_dict` output."""
        span = cls(str(payload["name"]), dict(payload.get("attrs") or {}))
        span.t0 = float(payload.get("t0", 0.0))
        span.wall = float(payload.get("wall", 0.0))
        span.cpu = float(payload.get("cpu", 0.0))
        if "mem_peak" in payload:
            span.mem_peak = int(payload["mem_peak"])
        if "rss_peak" in payload:
            span.rss_peak = int(payload["rss_peak"])
        for name, entry in (payload.get("agg") or {}).items():
            span.agg[str(name)] = [
                int(entry.get("count", 0)),
                float(entry.get("wall", 0.0)),
                float(entry.get("cpu", 0.0)),
            ]
        span.children = [
            cls.from_dict(child) for child in payload.get("children") or []
        ]
        return span

    def walk(self):
        """Yield this span and every descendant (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()


class _NullSpanContext:
    """Shared do-nothing context for disabled/over-cap spans."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpanContext()


class _SpanContext:
    """Context manager opening/closing one span on its recorder."""

    __slots__ = ("_recorder", "_name", "_attrs", "_span", "_tracing")

    def __init__(self, recorder: "SpanRecorder", name: str, attrs: dict):
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None
        self._tracing = False

    def __enter__(self) -> Span:
        span = Span(self._name, self._attrs)
        self._span = span
        recorder = self._recorder
        span._r0 = _rss_peak_bytes()
        self._tracing = tracemalloc.is_tracing()
        if self._tracing:
            current, peak = tracemalloc.get_traced_memory()
            # Fold the window's peak into every open ancestor before
            # resetting it, so nested resets never lose a high-water mark.
            for open_span in recorder._stack:
                if peak > open_span._abs_peak:
                    open_span._abs_peak = peak
            span._mem_base = current
            span._abs_peak = current
            tracemalloc.reset_peak()
        recorder._stack.append(span)
        span.t0 = time.time()
        span._w0 = time.perf_counter()
        span._c0 = time.process_time()
        return span

    def __exit__(self, *exc_info) -> None:
        span = self._span
        recorder = self._recorder
        span.wall = time.perf_counter() - span._w0
        span.cpu = time.process_time() - span._c0
        if self._tracing and tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            if peak > span._abs_peak:
                span._abs_peak = peak
            span.mem_peak = max(0, span._abs_peak - span._mem_base)
            tracemalloc.reset_peak()
        rss_now = _rss_peak_bytes()
        if rss_now > span._r0:
            span.rss_peak = rss_now - span._r0
        recorder._stack.pop()
        parent = recorder._stack[-1] if recorder._stack else None
        if self._tracing and parent is not None:
            # The child's absolute peak is also a peak of the parent's
            # window; fold it up so the parent's own reading is exact.
            if span._abs_peak > parent._abs_peak:
                parent._abs_peak = span._abs_peak
        (parent.children if parent is not None else recorder.roots).append(
            span
        )


class _AggContext:
    """Context manager timing one aggregated leaf call (no tree node)."""

    __slots__ = ("_recorder", "_name", "_w0", "_c0")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._w0 = 0.0
        self._c0 = 0.0

    def __enter__(self) -> "_AggContext":
        self._w0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, *exc_info) -> None:
        stack = self._recorder._stack
        if not stack:
            return  # a bare call outside any span: counters still see it
        entry = stack[-1].agg.setdefault(self._name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += time.perf_counter() - self._w0
        entry[2] += time.process_time() - self._c0


class SpanRecorder:
    """Owns one span tree: an open-span stack plus the closed roots.

    A recorder belongs to exactly one :class:`repro.obs.Collector`;
    collectors are thread-scoped, so the stack needs no locking.
    """

    __slots__ = ("roots", "dropped", "max_spans", "_stack", "_count")

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.roots: list[Span] = []
        self.dropped = 0
        self.max_spans = max_spans
        self._stack: list[Span] = []
        self._count = 0

    # -- recording -----------------------------------------------------

    def start(self, name: str, attrs: dict) -> _SpanContext | _NullSpanContext:
        """Context manager opening a child span of the current span."""
        if self._count >= self.max_spans:
            self.dropped += 1
            return NULL_SPAN
        self._count += 1
        return _SpanContext(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record a zero-duration marker span under the current span."""
        if self._count >= self.max_spans:
            self.dropped += 1
            return
        self._count += 1
        span = Span(name, attrs)
        span.t0 = time.time()
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(span)

    def agg(self, name: str) -> _AggContext:
        """Context manager folding a hot leaf call into the current span."""
        return _AggContext(self, name)

    def set_attrs(self, **attrs) -> None:
        """Update the current (innermost open) span's attributes."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def is_empty(self) -> bool:
        """True when nothing has been recorded or adopted."""
        return not self.roots and not self._stack and not self.dropped

    # -- worker propagation --------------------------------------------

    def adopt(self, payload: dict, origin: str = "worker") -> int:
        """Re-parent a serialised subtree under the current span.

        ``payload`` is a :meth:`snapshot` dict shipped back from a
        worker task; its roots are tagged ``origin=<origin>`` so
        exporters can place them on their own tracks. Returns how many
        root subtrees were adopted.
        """
        roots = payload.get("roots") or []
        self.dropped += int(payload.get("dropped", 0))
        parent = self._stack[-1] if self._stack else None
        target = parent.children if parent is not None else self.roots
        for root_dict in roots:
            span = Span.from_dict(root_dict)
            span.attrs.setdefault("origin", origin)
            target.append(span)
            self._count += sum(1 for _ in span.walk())
        return len(roots)

    # -- serialisation -------------------------------------------------

    def snapshot(self) -> dict:
        """The closed tree as a plain dict (open spans are excluded)."""
        return {
            "roots": [root.to_dict() for root in self.roots],
            "dropped": self.dropped,
        }

    def load(self, payload: dict) -> None:
        """Replace this recorder's state with a :meth:`snapshot` dict."""
        self.roots = [
            Span.from_dict(root) for root in payload.get("roots") or []
        ]
        self.dropped = int(payload.get("dropped", 0))
        self._stack = []
        self._count = sum(
            1 for root in self.roots for _ in root.walk()
        )

    def reset(self) -> None:
        """Drop every recorded span (open spans included)."""
        self.roots = []
        self.dropped = 0
        self._stack = []
        self._count = 0


# ---------------------------------------------------------------------
# Reductions and exporters
# ---------------------------------------------------------------------


def span_totals(roots: list[Span]) -> dict[str, dict]:
    """Per-name totals over a tree: count, wall, cpu, peak memory.

    Every span contributes its own (inclusive) wall/cpu to its name's
    bucket; aggregated leaf calls contribute under their own names.
    Used by ``ripple stats diff``.
    """
    totals: dict[str, dict] = {}

    def bucket(name: str) -> dict:
        return totals.setdefault(
            name,
            {"count": 0, "wall": 0.0, "cpu": 0.0, "mem_peak": 0},
        )

    for root in roots:
        for span in root.walk():
            entry = bucket(span.name)
            entry["count"] += 1
            entry["wall"] += span.wall
            entry["cpu"] += span.cpu
            if span.mem_peak is not None and span.mem_peak > entry["mem_peak"]:
                entry["mem_peak"] = span.mem_peak
            for agg_name, (count, wall, cpu) in span.agg.items():
                agg_entry = bucket(agg_name)
                agg_entry["count"] += count
                agg_entry["wall"] += wall
                agg_entry["cpu"] += cpu
    return totals


class _AggNode:
    """One row of the aggregated (by-name) view of a span tree."""

    __slots__ = ("name", "count", "wall", "cpu", "mem_peak", "children", "agg")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.mem_peak = 0
        self.children: dict[str, _AggNode] = {}
        self.agg: dict[str, list] = {}


def aggregate_tree(roots: list[Span]) -> list[_AggNode]:
    """Collapse sibling spans sharing a name into one aggregate node.

    Fifty ``expand.seed`` spans under ``phase.expansion`` become one
    row with ``count=50`` and summed times — the flame-style profile
    view; the Chrome trace keeps full per-span detail.
    """

    def fold(spans: list[Span], into: dict[str, _AggNode]) -> None:
        for span in spans:
            node = into.setdefault(span.name, _AggNode(span.name))
            node.count += 1
            node.wall += span.wall
            node.cpu += span.cpu
            if span.mem_peak is not None and span.mem_peak > node.mem_peak:
                node.mem_peak = span.mem_peak
            for name, (count, wall, cpu) in span.agg.items():
                entry = node.agg.setdefault(name, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += wall
                entry[2] += cpu
            fold(span.children, node.children)

    top: dict[str, _AggNode] = {}
    fold(roots, top)
    return list(top.values())


def _format_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{value:.1f}GiB"  # pragma: no cover - unreachable


def render_span_tree(
    roots: list[Span],
    dropped: int = 0,
    max_children: int = 12,
) -> str:
    """Flame-style text rendering of the aggregated span tree."""
    lines: list[str] = []

    def emit(node: _AggNode, depth: int) -> None:
        indent = "  " * depth
        label = f"{indent}{node.name}"
        count = f"x{node.count}" if node.count > 1 else ""
        mem = (
            f"  peak +{_format_bytes(node.mem_peak)}"
            if node.mem_peak
            else ""
        )
        lines.append(
            f"{label:<46} {count:>6} {node.wall:>10.4f}s"
            f"  cpu {node.cpu:>8.4f}s{mem}"
        )
        for agg_name, (agg_count, agg_wall, _) in sorted(
            node.agg.items(), key=lambda item: -item[1][1]
        ):
            agg_label = f"{indent}  - {agg_name}"
            lines.append(
                f"{agg_label:<46} {f'x{agg_count}':>6} {agg_wall:>10.4f}s"
                "  (aggregated)"
            )
        ranked = sorted(node.children.values(), key=lambda n: -n.wall)
        for child in ranked[:max_children]:
            emit(child, depth + 1)
        hidden = ranked[max_children:]
        if hidden:
            hidden_wall = sum(n.wall for n in hidden)
            lines.append(
                f"{indent}  … {len(hidden)} more name(s),"
                f" {hidden_wall:.4f}s"
            )

    for node in sorted(aggregate_tree(roots), key=lambda n: -n.wall):
        emit(node, 0)
    if dropped:
        lines.append(f"({dropped} span(s) dropped past the recorder cap)")
    return "\n".join(lines)


def to_chrome_trace(
    roots: list[Span], dropped: int = 0, process_name: str = "ripple"
) -> dict:
    """The span tree as Chrome trace-event JSON (Perfetto-loadable).

    Orchestrator spans land on track 0 in tree order; every adopted
    worker subtree (``origin`` attribute set) gets a worker track,
    reusing lanes greedily so concurrent tasks never overlap on one
    track (Chrome slices on a track must nest).
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    #: per-lane wall-clock end time, index 0 reserved for the main track
    lane_ends: list[float] = [float("inf")]

    def lane_for(span: Span) -> int:
        start, end = span.t0, span.t0 + span.wall
        for lane in range(1, len(lane_ends)):
            if lane_ends[lane] <= start:
                lane_ends[lane] = end
                return lane
        lane_ends.append(end)
        return len(lane_ends) - 1

    def emit(span: Span, tid: int) -> None:
        if "origin" in span.attrs:
            tid = lane_for(span)
        args: dict = dict(span.attrs)
        args["cpu_s"] = round(span.cpu, 6)
        if span.mem_peak is not None:
            args["mem_peak_bytes"] = span.mem_peak
        if span.rss_peak is not None:
            args["rss_peak_bytes"] = span.rss_peak
        for agg_name, (count, wall, _) in span.agg.items():
            args[f"agg.{agg_name}"] = f"{count} call(s) / {wall:.6f}s"
        record = {
            "name": span.name,
            "pid": 0,
            "tid": tid,
            "ts": int(span.t0 * 1e6),
            "args": args,
        }
        if span.wall > 0 or span.children:
            record["ph"] = "X"
            record["dur"] = max(int(span.wall * 1e6), 1)
        else:
            record["ph"] = "i"
            record["s"] = "t"
        events.append(record)
        for child in span.children:
            emit(child, tid)

    for root in roots:
        emit(root, 0)
    for lane in range(1, len(lane_ends)):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": lane,
                "args": {"name": f"worker-lane-{lane}"},
            }
        )
    trace: dict = {"traceEvents": events, "displayTimeUnit": "ms"}
    if dropped:
        trace["metadata"] = {"dropped_spans": dropped}
    return trace
