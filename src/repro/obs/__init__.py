"""Observability substrate: counters and spans.

Every performance claim in the paper's evaluation reduces to *where the
flow work goes* — augmentations inside Dinic, candidate filters inside
Multiple Expansion, pair tests inside Flow-Based Merging. This package
is the measurement layer those claims are checked against:

* :class:`Collector` — named integer counters + per-phase seconds,
  mergeable across workers, serialisable to the ``repro.obs/1`` JSON
  schema;
* :class:`NullCollector` — the zero-overhead default: recording methods
  are no-ops, so instrumented hot paths stay hot when nobody is
  measuring;
* :mod:`repro.obs.spans` — an opt-in hierarchical span tree (wall,
  CPU, peak memory, attributes) for profiling where a run's time goes;
  enabled with ``collecting(spans=True)`` and recorded through
  :func:`start_span` / :func:`span_event` / :func:`agg_span`.

The *active* collector is tracked per thread. Module-level
:func:`count` / :func:`add_seconds` / :func:`start_span` delegate to
it, so instrumentation sites never hold a collector reference:

    from repro import obs

    with obs.collecting() as collector:
        ripple(graph, k=3)
    print(collector.counter("flow.dinic.augmentations"))

The thread-local scoping is what makes worker aggregation safe: each
parallel task pushes its own collector, records, pops, and returns the
snapshot with its result (see :mod:`repro.parallel.executor`).
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager

from repro.obs import spans
from repro.obs.collector import SCHEMA, Collector, NullCollector
from repro.obs.histogram import Histogram

__all__ = [
    "Collector",
    "Histogram",
    "NULL",
    "NullCollector",
    "SCHEMA",
    "add_seconds",
    "agg_span",
    "collecting",
    "count",
    "get_collector",
    "observe",
    "set_collector",
    "set_span_attrs",
    "span_event",
    "spans",
    "start_span",
]

#: The process-wide no-op default every thread starts with.
NULL = NullCollector()


class _Local(threading.local):
    # Class-attribute fallback: a thread that never installed a
    # collector reads the shared no-op through plain attribute lookup,
    # sparing the hot module-level helpers a ``getattr`` default.
    collector: Collector = NULL


_tls = _Local()


def get_collector() -> Collector:
    """The thread's active collector (the shared no-op by default)."""
    return _tls.collector


def set_collector(collector: Collector) -> Collector:
    """Install ``collector`` as this thread's active one; returns the
    previous active collector so callers can restore it."""
    previous = get_collector()
    _tls.collector = collector
    return previous


@contextmanager
def collecting(
    collector: Collector | None = None,
    *,
    spans: bool = False,
) -> Iterator[Collector]:
    """Scope a collector over a block of work (thread-local).

    With no argument a fresh :class:`Collector` is created. The
    previously active collector is restored on exit, so scopes nest —
    the mechanism behind per-task worker deltas. ``spans=True``
    additionally enables hierarchical span recording on the scoped
    collector (see :mod:`repro.obs.spans`).
    """
    active = Collector() if collector is None else collector
    if spans:
        active.enable_spans()
    previous = set_collector(active)
    try:
        yield active
    finally:
        _tls.collector = previous


def count(name: str, amount: int = 1) -> None:
    """Bump a counter on the active collector."""
    collector = _tls.collector
    if collector.is_noop:
        # Early-out without a method dispatch: instrumentation sites in
        # flow/merge inner loops run millions of times uninstrumented,
        # and the gated perf cases time exactly that configuration.
        return
    collector.count(name, amount)


def add_seconds(name: str, seconds: float) -> None:
    """Accumulate seconds into a phase on the active collector."""
    _tls.collector.add_seconds(name, seconds)


def observe(name: str, seconds: float) -> None:
    """Record one latency observation into a histogram on the active
    collector (a no-op under the null default)."""
    _tls.collector.observe(name, seconds)


def start_span(name: str, **attrs):
    """Open a hierarchical span on the active collector (context
    manager; a no-op unless spans are enabled on it)."""
    collector = _tls.collector
    if collector.is_noop:
        return spans.NULL_SPAN
    return collector.start_span(name, **attrs)


def span_event(name: str, **attrs) -> None:
    """Record a zero-duration marker span on the active collector."""
    collector = _tls.collector
    if collector.is_noop:
        return
    collector.span_event(name, **attrs)


def agg_span(name: str):
    """Time one hot leaf call into the current span's aggregates
    (context manager; cheaper than a tree node per call)."""
    collector = _tls.collector
    if collector.is_noop:
        return spans.NULL_SPAN
    return collector.agg_span(name)


def set_span_attrs(**attrs) -> None:
    """Attach attributes to the current span on the active collector."""
    collector = _tls.collector
    if collector.is_noop:
        return
    collector.set_span_attrs(**attrs)
