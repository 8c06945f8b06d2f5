"""Query serving: the enumerator turned into a service.

Everything before this package computes; this package *answers*. The
three layers (see ``docs/serving.md`` and ``docs/architecture.md``):

* :mod:`repro.serving.index` — :class:`KvccIndex`: the all-k hierarchy
  materialised into a versioned, fingerprinted, O(1)-lookup file;
* :mod:`repro.serving.engine` — :class:`QueryEngine`: single/batched
  QkVCS answers from the index, LRU-cached, with live
  :func:`~repro.core.query.kvcc_containing` fallback above the indexed
  ceiling;
* :mod:`repro.serving.daemon` + :mod:`repro.serving.protocol` — the
  ``ripple serve`` daemon speaking line-delimited JSON over stdio or
  TCP, with per-request :class:`~repro.resilience.Deadline` budgets;
* :mod:`repro.serving.admission` — :class:`AdmissionController`:
  bounded admission with per-cost-class queues and explicit load
  shedding (the ``overloaded`` protocol error);
* :mod:`repro.serving.chaos` — deterministic fault injection into the
  serving stages, extending :mod:`repro.resilience.faults`;
* :mod:`repro.serving.metrics` + :mod:`repro.serving.accesslog` +
  :mod:`repro.serving.top` — the telemetry surfaces: a Prometheus
  ``/metrics`` HTTP listener, request-scoped JSONL access logs, and
  the ``ripple top`` polling console (see ``docs/observability.md``).

Quickstart::

    from repro.serving import KvccIndex, QueryEngine

    index = KvccIndex.build(graph)
    index.save("graph.kvcc-index.json")

    engine = QueryEngine(graph, KvccIndex.load("graph.kvcc-index.json"))
    print(engine.query(vertex=7, k=3).components)
"""

from repro._lazy import lazy_exports

#: Re-exported name → its module, imported on first access (repro._lazy).
_EXPORTS = {
    "AccessLog": "repro.serving.accesslog",
    "AdmissionController": "repro.serving.admission",
    "ServeSettings": "repro.serving.daemon",
    "TcpServerHandle": "repro.serving.daemon",
    "serve_stdio": "repro.serving.daemon",
    "serve_tcp": "repro.serving.daemon",
    "BatchDeadlineExpired": "repro.serving.engine",
    "LRUCache": "repro.serving.engine",
    "QueryEngine": "repro.serving.engine",
    "QueryResult": "repro.serving.engine",
    "INDEX_SCHEMA": "repro.serving.index",
    "KvccIndex": "repro.serving.index",
    "graph_fingerprint": "repro.serving.index",
    "MetricsServer": "repro.serving.metrics",
    "render_prometheus": "repro.serving.metrics",
    "validate_exposition": "repro.serving.metrics",
    "PROTOCOL": "repro.serving.protocol",
    "ServerContext": "repro.serving.protocol",
    "error_line": "repro.serving.protocol",
    "handle_line": "repro.serving.protocol",
    "handle_request": "repro.serving.protocol",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "AccessLog",
    "AdmissionController",
    "BatchDeadlineExpired",
    "INDEX_SCHEMA",
    "KvccIndex",
    "LRUCache",
    "MetricsServer",
    "PROTOCOL",
    "QueryEngine",
    "QueryResult",
    "ServeSettings",
    "ServerContext",
    "TcpServerHandle",
    "error_line",
    "graph_fingerprint",
    "handle_line",
    "handle_request",
    "render_prometheus",
    "serve_stdio",
    "serve_tcp",
    "validate_exposition",
]
