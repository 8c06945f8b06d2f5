"""Dinic max-flow on array-based residual networks.

This is the flow engine behind every connectivity question in the
library: local connectivity κ(u, v), Multiple Expansion's
``max_flow(u → σ)`` tests, and Flow-Based Merging's ``max_flow(σ → τ)``.

The networks are small-integer-capacity (almost always unit) directed
graphs produced by vertex splitting, so Dinic with adjacency arrays is
the right tool: O(E · sqrt(V)) on unit networks. All k-VCC questions
are threshold questions ("is the flow ≥ k?"), so :meth:`Dinic.max_flow`
accepts a ``cutoff`` and stops as soon as the threshold is reached —
a large practical win that DESIGN.md §5 ablates.

Capacities are integers throughout (vertex splitting only ever
produces unit and "safely infinite" integer arcs), which keeps the
inner-loop comparisons exact; ``cutoff=float("inf")`` stays accepted
at the API boundary. Every arc a query saturates or un-saturates is
recorded in :attr:`Dinic.dirty`, so callers that reset capacities
between queries (:class:`repro.flow.network.VertexSplitNetwork`) can
restore only the touched region instead of copying the whole array.
"""

from __future__ import annotations

from collections import deque

from repro import obs
from repro.errors import ParameterError

__all__ = ["Dinic"]

_INF = float("inf")


class Dinic:
    """Array-based Dinic max-flow.

    Vertices are integers ``0 … n-1``. Edges are stored in parallel
    arrays; the reverse edge of edge ``i`` is ``i ^ 1``.
    """

    __slots__ = (
        "n",
        "head",
        "to",
        "cap",
        "next_edge",
        "dirty",
        "_level",
        "_iter",
        "_blank",
    )

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ParameterError(f"n must be non-negative, got {n}")
        self.n = n
        # Plain Python int lists, deliberately not array('q'): the hot
        # loops read and write individual elements, where list access
        # to cached small ints beats the box/unbox cost an array pays
        # per element on CPython.
        self.head = [-1] * n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.next_edge: list[int] = []
        #: Forward-arc indices whose capacity changed since the last
        #: :meth:`restore_capacities` (their ``^ 1`` twins changed too).
        self.dirty: set[int] = set()
        self._level = [0] * n
        self._iter = [0] * n
        # Reset template: level[:] = _blank is one C-level copy versus
        # an n-step Python loop per BFS phase.
        self._blank = [-1] * n

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add directed edge ``u → v`` with the given integer capacity.

        Returns the internal edge index (its residual twin is index+1).
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ParameterError(f"edge ({u}, {v}) out of range 0..{self.n - 1}")
        if type(capacity) is not int:  # fast path: callers pass ints
            if capacity != int(capacity):
                raise ParameterError(
                    f"capacity must be integral, got {capacity!r} "
                    "(vertex-split networks only produce integer arcs)"
                )
            capacity = int(capacity)
        if capacity < 0:
            raise ParameterError(f"capacity must be non-negative, got {capacity}")
        index = len(self.to)
        self.to.append(v)
        self.cap.append(capacity)
        self.next_edge.append(self.head[u])
        self.head[u] = index
        self.to.append(u)
        self.cap.append(0)
        self.next_edge.append(self.head[v])
        self.head[v] = index + 1
        return index

    def add_split_pairs(self) -> int:
        """Lay out the ``n / 2`` unit split arcs ``2i → 2i+1`` directly.

        Equivalent to ``add_edges(list(range(n)), 1)`` on a freshly
        constructed even-``n`` network — the first thing every
        vertex-split network does — but because no arcs exist yet the
        intrusive head/next chains are fully predictable and all five
        parallel arrays come out of whole-array operations instead of a
        per-pair Python loop. Returns the first edge index (0).
        """
        if self.to:
            raise ParameterError(
                "add_split_pairs requires a network with no arcs yet"
            )
        n = self.n
        if n % 2:
            raise ParameterError(f"n must be even for split pairs, got {n}")
        to = [0] * n
        to[0::2] = range(1, n, 2)
        to[1::2] = range(0, n, 2)
        self.to = to
        self.cap = [1, 0] * (n // 2)
        self.next_edge = [-1] * n
        self.head = list(range(n))
        return 0

    def add_edges(self, endpoints: list[int], capacity: int) -> int:
        """Bulk :meth:`add_edge` at one shared capacity.

        ``endpoints`` is the flattened pair list ``[u0, v0, u1, v1, …]``.
        Lays the arcs out exactly as ``add_edge(u0, v0)``,
        ``add_edge(u1, v1)``, … would (twin at ``index ^ 1``) while
        validating once and building the parallel arrays with slice and
        ``extend`` operations — network construction adds thousands of
        same-capacity arcs and is a measured hot path. Returns the edge
        index of the first pair.
        """
        if type(capacity) is not int:  # fast path: callers pass ints
            if capacity != int(capacity):
                raise ParameterError(
                    f"capacity must be integral, got {capacity!r} "
                    "(vertex-split networks only produce integer arcs)"
                )
            capacity = int(capacity)
        if capacity < 0:
            raise ParameterError(f"capacity must be non-negative, got {capacity}")
        if len(endpoints) % 2:
            raise ParameterError(
                f"endpoints must hold (u, v) pairs, got {len(endpoints)} values"
            )
        first = len(self.to)
        if not endpoints:
            return first
        if min(endpoints) < 0 or max(endpoints) >= self.n:
            raise ParameterError(
                f"endpoints out of range 0..{self.n - 1}"
            )
        # Arc targets interleave as v0, u0, v1, u1, … — the endpoint
        # list with each (u, v) swapped in place.
        targets = endpoints[:]
        targets[0::2] = endpoints[1::2]
        targets[1::2] = endpoints[0::2]
        self.to.extend(targets)
        self.cap.extend([capacity, 0] * (len(endpoints) // 2))
        # Only the head/next intrusive chains are order-dependent and
        # need a Python-level loop.
        head = self.head
        next_append = self.next_edge.append
        it = iter(endpoints)
        arc_starts = range(first, first + len(endpoints), 2)
        for index, u, v in zip(arc_starts, it, it):
            next_append(head[u])
            head[u] = index
            next_append(head[v])
            head[v] = index + 1
        return first

    def restore_capacities(self, caps0: list[int]) -> int:
        """Reset ``cap`` to ``caps0``, touching only dirty arc pairs.

        When the dirty set covers a third or more of the network, where
        a bulk slice copy is cheaper than indexed stores, the whole
        array is copied instead. Returns the number of arcs restored
        individually, or ``-1`` for a full copy — the caller turns that
        into the ``flow.reset.*`` counters.
        """
        dirty = self.dirty
        if 3 * len(dirty) >= len(caps0):
            self.cap[:] = caps0
            dirty.clear()
            return -1
        cap = self.cap
        restored = len(dirty)
        for e in dirty:
            cap[e] = caps0[e]
            cap[e ^ 1] = caps0[e ^ 1]
        dirty.clear()
        return restored

    def _bfs(self, source: int, sink: int) -> bool:
        """Build the level graph; True iff the sink is reachable."""
        level = self._level
        level[:] = self._blank
        level[source] = 0
        queue = deque((source,))
        to, cap, nxt = self.to, self.cap, self.next_edge
        head = self.head
        while queue:
            u = queue.popleft()
            e = head[u]
            while e != -1:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    if v == sink:
                        return True
                    queue.append(v)
                e = nxt[e]
        return level[sink] >= 0

    def _dfs(self, u: int, sink: int, pushed: int | float) -> int:
        """Send blocking flow along level-graph paths (iterative DFS).

        ``path_edges`` holds the edge indices from ``u`` to the current
        vertex. Within one phase an admissible edge that saturates never
        regains capacity (reverse edges are never admissible), so the
        per-vertex edge cursor ``self._iter`` may skip failed edges
        permanently.
        """
        to, cap, nxt = self.to, self.cap, self.next_edge
        level, iters = self._level, self._iter
        dirty = self.dirty
        path_edges: list[int] = []
        total = 0
        augmentations = 0
        vertex = u
        while True:
            if vertex == sink:
                augmentations += 1
                bottleneck = pushed - total
                for e in path_edges:
                    if cap[e] < bottleneck:
                        bottleneck = cap[e]
                for e in path_edges:
                    cap[e] -= bottleneck
                    cap[e ^ 1] += bottleneck
                dirty.update(path_edges)
                total += bottleneck
                if total >= pushed:
                    # Counter flushes are batched per phase: the value
                    # is identical, the per-augmentation call is not.
                    obs.count("flow.dinic.augmentations", augmentations)
                    return total
                # Retreat to just before the first saturated edge.
                cut = len(path_edges)
                for i, e in enumerate(path_edges):
                    if cap[e] == 0:
                        cut = i
                        break
                del path_edges[cut:]
                vertex = u if not path_edges else to[path_edges[-1]]
                continue
            e = iters[vertex]
            while e != -1 and not (
                cap[e] > 0 and level[to[e]] == level[vertex] + 1
            ):
                e = nxt[e]
            iters[vertex] = e
            if e != -1:
                path_edges.append(e)
                vertex = to[e]
            else:
                level[vertex] = -1  # dead end: prune for this phase
                if not path_edges:
                    if augmentations:
                        obs.count(
                            "flow.dinic.augmentations", augmentations
                        )
                    return total
                path_edges.pop()
                vertex = u if not path_edges else to[path_edges[-1]]

    def max_flow(
        self, source: int, sink: int, cutoff: int | float = _INF
    ) -> int | float:
        """Maximum flow from ``source`` to ``sink``.

        With ``cutoff`` set, stops as soon as the accumulated flow
        reaches it and returns ``cutoff`` — exact answers above the
        threshold are never needed by the connectivity code.
        """
        if source == sink:
            raise ParameterError("source and sink must differ")
        obs.count("flow.dinic.calls")
        # Aggregated into the enclosing span (one counter triple, not a
        # tree node per call — there are thousands of calls per run).
        with obs.agg_span("flow.dinic.max_flow"):
            flow = 0
            while flow < cutoff and self._bfs(source, sink):
                obs.count("flow.dinic.bfs_phases")
                self._iter = list(self.head)
                pushed = self._dfs(source, sink, cutoff - flow)
                if pushed == 0:
                    break
                flow += pushed
            if flow >= cutoff:
                obs.count("flow.dinic.cutoff_exits")
            return min(flow, cutoff)

    def min_cut_side(self, source: int) -> set[int]:
        """Vertices reachable from ``source`` in the residual network.

        Valid after :meth:`max_flow` has run to completion (no cutoff
        short-circuit); the returned set is the source side of a minimum
        cut.
        """
        seen = {source}
        queue = deque((source,))
        to, cap, nxt = self.to, self.cap, self.next_edge
        while queue:
            u = queue.popleft()
            e = self.head[u]
            while e != -1:
                v = to[e]
                if cap[e] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
                e = nxt[e]
        return seen
