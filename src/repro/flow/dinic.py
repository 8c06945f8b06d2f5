"""Dinic max-flow on array-based residual networks.

This is the edge-flow engine behind the k-edge connected components
(:mod:`repro.cohesion.kecc`): with one unit arc per edge direction,
λ(u, v) is a maximum flow. Vertex connectivity does not come here;
:class:`repro.flow.network.VertexSplitNetwork` answers it with
augmenting paths over its own adjacency sets.

Dinic with adjacency arrays is O(E · sqrt(V)) on unit networks. The
k-ECC questions are threshold questions ("is the flow ≥ k?"), so
:meth:`Dinic.max_flow` accepts a ``cutoff`` and stops as soon as the
threshold is reached.

Capacities are integers throughout, which keeps the inner-loop
comparisons exact; ``cutoff=float("inf")`` stays accepted at the API
boundary.
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
                raise ParameterError(f"capacity must be integral, got {capacity!r}")
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
