"""The :class:`Collector`: process-wide counters and phase timers.

A collector is a plain accumulator — named integer counters, named
wall-clock buckets, and named latency histograms (see
:mod:`repro.obs.histogram`) — with a merge operation so that worker
processes
can aggregate locally and ship their snapshots back to the parent
(see :mod:`repro.parallel.executor`). The :class:`NullCollector`
subclass turns every recording method into a no-op so that
instrumented hot paths (Dinic augmentation loops, ME candidate
filters, FBM pair tests) cost one dynamic dispatch when observability
is off.

Snapshots serialise to the ``repro.obs/1`` JSON schema documented in
``docs/observability.md``; :meth:`Collector.to_json` /
:meth:`Collector.from_json` round-trip it.

Beyond the flat counters, a collector can carry a hierarchical
:class:`~repro.obs.spans.SpanRecorder` (see :mod:`repro.obs.spans`),
enabled per-collector via :meth:`Collector.enable_spans` — off by
default so the counter-only path keeps its cost. Span trees ride in
snapshots under the optional ``"spans"`` key and are re-parented under
the merging side's current span by :meth:`Collector.merge`.
"""

from __future__ import annotations

import json
import threading

from repro.errors import ParseError
from repro.obs.histogram import Histogram
from repro.obs.spans import NULL_SPAN, SpanRecorder

__all__ = ["SCHEMA", "Collector", "NullCollector"]

#: Identifier embedded in every JSON dump so downstream tooling can
#: detect layout changes.
SCHEMA = "repro.obs/1"


class Collector:
    """Accumulates named counters and per-phase seconds.

    >>> collector = Collector()
    >>> collector.count("flow.dinic.calls")
    >>> collector.add_seconds("phase.seeding", 0.5)
    >>> collector.counter("flow.dinic.calls")
    1
    """

    __slots__ = (
        "_counters",
        "_seconds",
        "_histograms",
        "_hist_lock",
        "_workers_merged",
        "_spans",
    )

    is_noop = False

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._seconds: dict[str, float] = {}
        # Histograms are multi-field updates (bucket + count + sum), so
        # unlike single-slot counter bumps a torn read would fail the
        # snapshot's count invariant. The serving daemon records into
        # one shared collector from every session thread, hence the
        # lock; counter-only paths never touch it.
        self._histograms: dict[str, Histogram] = {}
        self._hist_lock = threading.Lock()
        self._workers_merged = 0
        self._spans: SpanRecorder | None = None

    # -- recording -----------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Bump counter ``name`` by ``amount``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def add_seconds(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock seconds into phase ``name``."""
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency observation into histogram ``name``.

        Thread-safe: the serving daemon's session threads all record
        into the server's shared collector.
        """
        with self._hist_lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.record(seconds)

    # -- hierarchical spans --------------------------------------------

    def enable_spans(
        self, max_spans: int | None = None
    ) -> SpanRecorder:
        """Attach a span recorder (idempotent); returns it.

        Span recording is opt-in per collector: until this is called,
        :meth:`start_span` and friends are no-ops costing one ``None``
        check, so counter-only collection keeps its price.
        """
        if self._spans is None:
            self._spans = (
                SpanRecorder()
                if max_spans is None
                else SpanRecorder(max_spans)
            )
        return self._spans

    @property
    def spans(self) -> SpanRecorder | None:
        """The attached span recorder, or ``None`` when spans are off."""
        return self._spans

    def start_span(self, name: str, **attrs):
        """Context manager opening a child span of the current span."""
        if self._spans is None:
            return NULL_SPAN
        return self._spans.start(name, attrs)

    def span_event(self, name: str, **attrs) -> None:
        """Record a zero-duration marker under the current span."""
        if self._spans is not None:
            self._spans.event(name, **attrs)

    def agg_span(self, name: str):
        """Time one hot leaf call into the current span's aggregates."""
        if self._spans is None:
            return NULL_SPAN
        return self._spans.agg(name)

    def set_span_attrs(self, **attrs) -> None:
        """Update the current (innermost open) span's attributes."""
        if self._spans is not None:
            self._spans.set_attrs(**attrs)

    # -- reading -------------------------------------------------------

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never bumped)."""
        return self._counters.get(name, 0)

    def seconds(self, name: str) -> float:
        """Seconds accumulated for a phase (0.0 if never entered)."""
        return self._seconds.get(name, 0.0)

    @property
    def counters(self) -> dict[str, int]:
        """A copy of the counter → value mapping."""
        return dict(self._counters)

    @property
    def phases(self) -> dict[str, float]:
        """A copy of the phase → seconds mapping."""
        return dict(self._seconds)

    def histogram(self, name: str) -> Histogram | None:
        """The named latency histogram, or ``None`` if never observed."""
        return self._histograms.get(name)

    @property
    def histograms(self) -> dict[str, Histogram]:
        """A copy of the histogram-name → histogram mapping."""
        return dict(self._histograms)

    def histogram_snapshots(self) -> dict[str, dict]:
        """Consistent snapshots of every histogram (name, sorted).

        Taken under the recording lock so a concurrent ``record`` can
        never produce a snapshot whose declared count disagrees with
        its bucket total.
        """
        with self._hist_lock:
            return {
                name: self._histograms[name].to_snapshot()
                for name in sorted(self._histograms)
            }

    @property
    def workers_merged(self) -> int:
        """How many worker snapshots have been merged in."""
        return self._workers_merged

    def is_empty(self) -> bool:
        """True when nothing has been recorded or merged."""
        return (
            not self._counters
            and not self._seconds
            and not self._histograms
            and self._workers_merged == 0
            and (self._spans is None or self._spans.is_empty())
        )

    # -- aggregation ---------------------------------------------------

    def snapshot(self) -> dict:
        """The current state as a plain mergeable dict."""
        state = {
            "counters": dict(self._counters),
            "phases": dict(self._seconds),
        }
        if self._histograms:
            state["histograms"] = self.histogram_snapshots()
        if self._spans is not None and not self._spans.is_empty():
            state["spans"] = self._spans.snapshot()
        return state

    def take(self) -> dict:
        """Snapshot the current state, then reset. For worker deltas."""
        state = self.snapshot()
        self.reset()
        return state

    def merge(self, snapshot: "Collector | dict") -> None:
        """Fold another collector (or a :meth:`snapshot` dict) into this.

        Used by the parallel executor: each pool task records into its
        own scoped collector and returns the snapshot with its result;
        the orchestrator merges them so per-run totals include worker
        activity.
        """
        if isinstance(snapshot, Collector):
            snapshot = snapshot.snapshot()
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, int(value))
        for name, seconds in snapshot.get("phases", {}).items():
            self.add_seconds(name, float(seconds))
        with self._hist_lock:
            for name, payload in snapshot.get("histograms", {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram()
                histogram.merge(payload)
        spans_payload = snapshot.get("spans")
        if spans_payload:
            # Re-parent the worker's subtree under whatever span is
            # open here (the dispatching stage span), tagged with
            # origin="worker" so exporters can give it its own track.
            self.enable_spans().adopt(spans_payload)
        self._workers_merged += 1

    def reset(self) -> None:
        """Drop every recorded counter, phase, histogram, merge mark."""
        self._counters.clear()
        self._seconds.clear()
        with self._hist_lock:
            self._histograms.clear()
        self._workers_merged = 0
        if self._spans is not None:
            self._spans.reset()

    def reset_histograms(self) -> None:
        """Zero the window-scoped latency histograms only.

        Lifetime counters, phases, and spans are untouched — this backs
        the ``stats`` op's ``reset: true`` option, which lets an
        operator start a fresh measurement window without losing the
        daemon's cumulative request accounting.
        """
        with self._hist_lock:
            self._histograms.clear()

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Check the documented counter invariants; raise on violation.

        Enforced (see ``docs/observability.md``):

        * every counter, phase total, and the merge mark is
          non-negative;
        * ``merge.tests_attempted`` equals ``merge.tests_accepted`` +
          ``merge.tests_rejected`` (every attempted pair test resolves
          one way or the other).

        Raises :class:`repro.errors.ParseError` — the caller is either
        :meth:`from_json` (a corrupted document) or a tool refusing to
        aggregate inconsistent telemetry.
        """
        for name, value in self._counters.items():
            if value < 0:
                raise ParseError(
                    f"counter {name!r} is negative ({value})"
                )
        for name, seconds in self._seconds.items():
            if seconds < 0:
                raise ParseError(
                    f"phase {name!r} has negative seconds ({seconds})"
                )
        if self._workers_merged < 0:
            raise ParseError(
                f"workers_merged is negative ({self._workers_merged})"
            )
        attempted = self._counters.get("merge.tests_attempted", 0)
        accepted = self._counters.get("merge.tests_accepted", 0)
        rejected = self._counters.get("merge.tests_rejected", 0)
        if attempted != accepted + rejected:
            raise ParseError(
                "merge.tests_attempted invariant violated: "
                f"{attempted} attempted != {accepted} accepted "
                f"+ {rejected} rejected"
            )

    # -- serialisation -------------------------------------------------

    def to_json(self) -> str:
        """Serialise to the ``repro.obs/1`` schema (see docs).

        The optional ``"spans"`` key is only present when a span tree
        was recorded, so counter-only dumps keep the original layout.
        """
        payload = {
            "schema": SCHEMA,
            "counters": dict(sorted(self._counters.items())),
            "phases": dict(sorted(self._seconds.items())),
            "workers_merged": self._workers_merged,
        }
        if self._histograms:
            payload["histograms"] = self.histogram_snapshots()
        if self._spans is not None and not self._spans.is_empty():
            payload["spans"] = self._spans.snapshot()
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, document: str) -> "Collector":
        """Rebuild a collector from :meth:`to_json` output.

        Raises :class:`repro.errors.ParseError` on malformed documents
        and on documents violating :meth:`validate`'s invariants.
        """
        try:
            payload = json.loads(document)
            if payload.get("schema") != SCHEMA:
                raise ValueError(
                    f"unknown schema {payload.get('schema')!r}, "
                    f"expected {SCHEMA!r}"
                )
            collector = cls()
            for name, value in payload["counters"].items():
                collector._counters[str(name)] = int(value)
            for name, seconds in payload["phases"].items():
                collector._seconds[str(name)] = float(seconds)
            collector._workers_merged = int(
                payload.get("workers_merged", 0)
            )
            for name, histogram_payload in payload.get(
                "histograms", {}
            ).items():
                collector._histograms[str(name)] = (
                    Histogram.from_snapshot(histogram_payload)
                )
            spans_payload = payload.get("spans")
            if spans_payload:
                collector.enable_spans().load(dict(spans_payload))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ParseError(
                f"not a valid repro.obs document: {exc}"
            ) from exc
        collector.validate()
        return collector


class NullCollector(Collector):
    """A collector that records nothing.

    Installed as the process default so instrumentation calls in hot
    loops reduce to a single no-op method dispatch. Reading methods
    report emptiness; merging into it is discarded.
    """

    __slots__ = ()

    is_noop = True

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def add_seconds(self, name: str, seconds: float) -> None:
        pass

    def observe(self, name: str, seconds: float) -> None:
        pass

    def enable_spans(
        self, max_spans: int | None = None
    ) -> SpanRecorder:
        # Hand back a throwaway recorder instead of attaching one: the
        # shared NULL default must never start accumulating state.
        return SpanRecorder()

    def start_span(self, name: str, **attrs):
        return NULL_SPAN

    def span_event(self, name: str, **attrs) -> None:
        pass

    def agg_span(self, name: str):
        return NULL_SPAN

    def set_span_attrs(self, **attrs) -> None:
        pass

    def merge(self, snapshot: "Collector | dict") -> None:
        pass
