"""The query engine: batched QkVCS answers from the index, cached.

A :class:`QueryEngine` turns the "which k-VCC contains this vertex?"
question (the paper's QkVCS building block, exposed live as
:func:`repro.core.query.kvcc_containing`) into an amortised service:

* answers come from a :class:`~repro.serving.index.KvccIndex` in
  O(lookup) — built once, reused by every query;
* a bounded LRU cache short-circuits repeated (vertex, k) pairs, the
  dominant shape of real query traffic;
* a missing index degrades gracefully: the first query builds it from
  the graph (build-on-first-use), later queries ride the result.

Everything is thread-safe (the TCP daemon serves connections from
concurrent threads) and instrumented with ``serving.*`` counters and
spans (see the catalogue in ``docs/observability.md``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Hashable, Iterable
from dataclasses import dataclass

from repro import obs
from repro.errors import ParameterError, ReproError
from repro.graph.adjacency import Graph
from repro.resilience import Deadline
from repro.serving import chaos
from repro.serving.index import KvccIndex

__all__ = [
    "BatchDeadlineExpired",
    "LRUCache",
    "QueryEngine",
    "QueryResult",
]


class BatchDeadlineExpired(ReproError):
    """A batch's deadline expired between queries.

    Deadlines are cooperative (checked at query boundaries, like the
    pipeline's stage boundaries): the queries answered before expiry
    ride along in :attr:`completed` so callers can return a partial
    response instead of discarding paid-for work.
    """

    def __init__(self, completed: list["QueryResult"], total: int) -> None:
        super().__init__(
            f"deadline expired after {len(completed)} of {total} queries"
        )
        self.completed = completed
        self.total = total


@dataclass(frozen=True)
class QueryResult:
    """One answered QkVCS query.

    ``components`` holds *every* k-VCC of level ``k`` containing the
    vertex — distinct k-VCCs may overlap in up to k-1 vertices, so
    overlap vertices get several. ``source`` says where the answer came
    from: ``"cache"`` or ``"index"``. ``members`` lists the same
    components, in the same order, each as a tuple of its vertices in
    canonical label order (:func:`repro.serving.index.ordered_members`):
    the index sorts them once per generation, so the wire protocol
    sends them as they are.
    """

    vertex: Hashable
    k: int
    components: tuple[frozenset, ...]
    source: str
    members: tuple[tuple, ...]

    @property
    def best(self) -> frozenset | None:
        """The first (largest, per hierarchy order) component, or None —
        the shape :func:`repro.core.query.kvcc_containing` returns."""
        return self.components[0] if self.components else None


class LRUCache:
    """A small thread-safe LRU map; ``capacity=0`` disables caching."""

    __slots__ = ("_capacity", "_data", "_lock")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ParameterError(
                f"cache capacity must be >= 0, got {capacity}"
            )
        self._capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        """The cached value (refreshed to most-recent), or None."""
        with self._lock:
            try:
                self._data.move_to_end(key)
            except KeyError:
                return None
            return self._data[key]

    def put(self, key, value) -> None:
        """Insert/refresh; evicts the least-recent entry beyond capacity."""
        if self._capacity == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self._capacity:
                self._data.popitem(last=False)
                obs.count("serving.cache.evictions")

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


class QueryEngine:
    """Answers single and batched QkVCS queries from an index + cache.

    Construct with a graph, an index, or both:

    * graph only — the index is built on first use;
    * index only — pure lookups;
    * both — the index is checked against the graph's fingerprint and
      rebuilt when stale.
    """

    def __init__(
        self,
        graph: Graph | None = None,
        index: KvccIndex | None = None,
        *,
        cache_size: int = 1024,
    ) -> None:
        if graph is None and index is None:
            raise ParameterError("QueryEngine needs a graph, an index, or both")
        self._graph = graph
        self._index = index
        self._cache = LRUCache(cache_size)
        self._lock = threading.Lock()
        # (num_vertices, num_edges) of the graph the current index was
        # last fingerprint-verified against; None = not yet verified.
        self._validated: tuple[int, int] | None = None
        # Monotone generation counter, bumped under the lock on every
        # index swap (first build, stale rebuild, reload). A reader
        # that sees version N is guaranteed the whole index is the one
        # swapped in at N — swaps replace the reference atomically,
        # never mutate in place.
        self._version = 1 if index is not None else 0

    # -- index management ----------------------------------------------

    @property
    def cache(self) -> LRUCache:
        return self._cache

    @property
    def index(self) -> KvccIndex | None:
        """The current index (None until built on first use)."""
        return self._index

    @property
    def graph(self) -> Graph | None:
        return self._graph

    @property
    def version(self) -> int:
        """The index generation (monotone; bumped on every swap)."""
        return self._version

    def ensure_index(self) -> KvccIndex:
        """The index, building (missing) or rebuilding (stale) as needed.

        Staleness is fingerprint-checked when the engine first adopts a
        (graph, index) pairing and again whenever the graph's size
        changes; between those events each call costs two int
        comparisons, so the full O(E) fingerprint never lands on the
        per-query path. An in-place edit that preserves both vertex and
        edge counts slips past the probe — after one, hand the engine a
        fresh index (or a freshly copied graph) instead of mutating
        underneath it.
        """
        return self._generation()[0]

    def _generation(self) -> tuple[KvccIndex, int]:
        """The index (as :meth:`ensure_index`) with its version, read in
        the same lock hold so the pair always names one generation."""
        with self._lock:
            if self._index is not None and self._graph is not None:
                probe = (self._graph.num_vertices, self._graph.num_edges)
                if self._validated != probe:
                    if self._index.is_stale(self._graph):
                        obs.count("serving.index.stale_rebuilds")
                        self._index = KvccIndex.build(self._graph)
                        self._version += 1
                        self._cache.clear()
                    self._validated = probe
            if self._index is None:
                self._index = KvccIndex.build(self._graph)
                self._version += 1
                self._validated = (
                    self._graph.num_vertices,
                    self._graph.num_edges,
                )
            return self._index, self._version

    def reload(self, graph: Graph) -> None:
        """Adopt a fresh copy of the served graph (e.g. re-read from disk).

        The reload is a **versioned atomic swap**: when the new graph's
        fingerprint differs from the current index, the replacement
        index is built *outside* the engine lock — on the reloading
        thread, while in-flight queries keep riding the old
        (graph, index, cache) triple — and only the reference swap
        happens under the lock, together with a cache clear and a
        version bump. A query therefore observes either the complete
        old generation or the complete new one, never a half-built
        mixture; a failed build raises out of here with the old
        generation still serving and the version untouched.

        The cache is conservatively cleared even for a same-fingerprint
        reload — cached answers are consulted *before* the index, so a
        stale entry would otherwise outlive the swap. Reloads are rare
        (mutation events, not queries); the cache re-warms from the
        index at index-lookup cost.
        """
        with self._lock:
            current = self._index
        replacement = current
        if current is None or current.is_stale(graph):
            if current is not None:
                obs.count("serving.index.stale_rebuilds")
            # The expensive part, deliberately outside the lock.
            replacement = KvccIndex.build(graph)
        chaos.fire("reload.swap")
        with self._lock:
            obs.count("serving.engine.reloads")
            self._graph = graph
            self._index = replacement
            self._validated = (graph.num_vertices, graph.num_edges)
            self._cache.clear()
            self._version += 1

    # -- queries -------------------------------------------------------

    def query(
        self,
        vertex: Hashable,
        k: int,
        *,
        deadline: Deadline | None = None,
        request_id=None,
    ) -> QueryResult:
        """Answer one QkVCS query.

        Resolution order: cache → index. The deadline is checked once on
        a cache miss, before the index lookup (which may first build the
        index); expiry raises :class:`BatchDeadlineExpired` with no
        completed answers.

        Each successful resolution records its wall time into the
        ``serving.resolve_seconds.{cache,index}`` histogram of the
        tier that answered, so an operator can see not just hit *rates*
        but the latency shape of each tier. ``request_id`` (assigned by
        the protocol layer) is attached to the resolution span and to
        chaos fault draws for per-request causality.
        """
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        obs.count("serving.queries")
        resolve_started = time.perf_counter()
        # Chaos stage: hang stalls the query (deterministic service
        # time for calibrated-overload runs), other modes raise
        # FaultInjected and surface as an `internal` protocol error.
        chaos.fire("engine.resolve", request_id=request_id)
        # Entries are tagged with the generation that resolved them: a
        # reload landing between a resolve and its cache put clears the
        # cache first, so the put would otherwise outlive the swap.
        cached = self._cache.get((vertex, k))
        if cached is not None and cached[0] == self._version:
            obs.count("serving.cache.hits")
            obs.observe(
                "serving.resolve_seconds.cache",
                time.perf_counter() - resolve_started,
            )
            return QueryResult(vertex, k, cached[1], "cache", cached[2])
        obs.count("serving.cache.misses")
        if deadline is not None and deadline.expired():
            raise BatchDeadlineExpired([], 1)
        span_attrs = {"k": k}
        if request_id is not None:
            span_attrs["request_id"] = request_id
        with obs.start_span("serving.query", **span_attrs):
            index, version = self._generation()
            if vertex not in index:
                raise ParameterError(
                    f"vertex {vertex!r} not in the served graph"
                )
            obs.count("serving.index.hits")
            components, members = index.lookup(vertex, k)
        self._cache.put((vertex, k), (version, components, members))
        obs.observe(
            "serving.resolve_seconds.index",
            time.perf_counter() - resolve_started,
        )
        return QueryResult(vertex, k, components, "index", members)

    def query_batch(
        self,
        queries: Iterable[tuple[Hashable, int]],
        *,
        deadline: Deadline | None = None,
        request_id=None,
    ) -> list[QueryResult]:
        """Answer ``(vertex, k)`` pairs in order.

        The deadline is checked between queries (cooperatively, like
        the pipeline's stage boundaries); on expiry the completed
        prefix rides along in :class:`BatchDeadlineExpired`.
        """
        pairs = list(queries)
        span_attrs = {"size": len(pairs)}
        if request_id is not None:
            span_attrs["request_id"] = request_id
        results: list[QueryResult] = []
        with obs.start_span("serving.batch", **span_attrs):
            obs.count("serving.batches")
            for vertex, k in pairs:
                if deadline is not None and deadline.expired():
                    obs.count("serving.deadline_expirations")
                    raise BatchDeadlineExpired(results, len(pairs))
                results.append(self.query(vertex, k, request_id=request_id))
        return results

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        """A JSON-able summary for the wire protocol's ``stats`` op."""
        index = self._index
        return {
            "version": self._version,
            "cache": {
                "capacity": self._cache.capacity,
                "entries": len(self._cache),
            },
            "index": None
            if index is None
            else {
                "ceiling": index.ceiling,
                "num_vertices": index.num_vertices,
                "num_edges": index.num_edges,
                "fingerprint": index.fingerprint,
            },
            "has_graph": self._graph is not None,
        }
