"""Adjacency-set graph: the core substrate every algorithm builds on.

The paper's reference implementation is C++; ``networkx`` is far too slow
for the benchmark-scale graphs here, so this module provides a minimal,
fast, undirected simple graph backed by ``dict[int, set]``. Membership
tests, neighbour iteration, and induced-subgraph construction — the hot
operations in seeding, expansion, and merging — are all O(1) or linear in
the touched part of the graph.

Only simple graphs are supported: self-loops raise :class:`GraphError`
and parallel edges collapse silently (adjacency is a set).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from itertools import filterfalse
from typing import TypeVar

from repro.errors import GraphError

Vertex = TypeVar("Vertex", bound=Hashable)

__all__ = ["Graph", "label_key"]


def label_key(label: Hashable) -> tuple[int, int | str]:
    """The canonical order over vertex labels: ints numerically
    (negatives included), then other labels by their ``str``. An int is
    never compared with a str, so any mix of the two sorts."""
    if isinstance(label, int):
        return (0, label)
    return (1, str(label))


class Graph:
    """An undirected simple graph stored as adjacency sets.

    Vertices may be any hashable value (benchmarks use ``int``).

    >>> g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    >>> g.num_vertices, g.num_edges
    (3, 3)
    >>> sorted(g.neighbors(2))
    [1, 3]
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(self) -> None:
        self._adj: dict[Hashable, set] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Hashable, Hashable]],
        vertices: Iterable[Hashable] = (),
    ) -> "Graph":
        """Build a graph from an edge iterable plus optional isolated vertices."""
        graph = cls()
        for vertex in vertices:
            graph.add_vertex(vertex)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    def copy(self) -> "Graph":
        """Return an independent deep copy of the adjacency structure."""
        clone = Graph()
        clone._adj = {u: set(nbrs) for u, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_vertex(self, u: Hashable) -> None:
        """Add an isolated vertex (no-op if already present)."""
        if u not in self._adj:
            self._adj[u] = set()

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Re-adding an existing edge is a no-op. Self-loops are rejected
        because k-VCC theory is defined on simple graphs.
        """
        if u == v:
            raise GraphError(f"self-loop on vertex {u!r} is not allowed")
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._num_edges += 1

    def remove_edge(self, u: Hashable, v: Hashable) -> None:
        """Remove the edge ``{u, v}``; raise if it does not exist."""
        try:
            self._adj[u].remove(v)
            self._adj[v].remove(u)
        except KeyError as exc:
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist") from exc
        self._num_edges -= 1

    def remove_vertex(self, u: Hashable) -> None:
        """Remove ``u`` and all incident edges; raise if absent."""
        if u not in self._adj:
            raise GraphError(f"vertex {u!r} does not exist")
        for v in self._adj[u]:
            self._adj[v].remove(u)
        self._num_edges -= len(self._adj[u])
        del self._adj[u]

    def remove_vertices(self, vertices: Iterable[Hashable]) -> None:
        """Remove every vertex in ``vertices`` (each must exist).

        Bulk form of :meth:`remove_vertex`: edges between two doomed
        vertices are dropped without ever updating the partner's
        adjacency set, so removing a whole region costs one pass over
        its incident edges instead of one set discard per half-edge.
        """
        doomed = (
            vertices
            if isinstance(vertices, (set, frozenset))
            else set(vertices)
        )
        adj = self._adj
        missing = [u for u in doomed if u not in adj]
        if missing:
            raise GraphError(f"vertex {missing[0]!r} does not exist")
        if not doomed:
            return
        internal = 0
        external = 0
        for u in doomed:
            for v in adj[u]:
                if v in doomed:
                    internal += 1
                else:
                    adj[v].remove(u)
                    external += 1
            del adj[u]
        self._num_edges -= external + internal // 2

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices, ``n = |V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges, ``m = |E|``."""
        return self._num_edges

    def vertices(self) -> Iterator[Hashable]:
        """Iterate over all vertices (insertion order)."""
        return iter(self._adj)

    def vertex_set(self) -> set:
        """Return a fresh set of all vertices."""
        return set(self._adj)

    def vertex_view(self):
        """A read-only, set-like live view of the vertices.

        Supports C-speed membership and set algebra without the copy
        :meth:`vertex_set` pays — the flow-network constructor checks
        its member set against this on every build.
        """
        return self._adj.keys()

    def edges(self) -> Iterator[tuple[Hashable, Hashable]]:
        """Iterate over each undirected edge exactly once."""
        seen: set = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def has_vertex(self, u: Hashable) -> bool:
        """Whether ``u`` is a vertex of the graph."""
        return u in self._adj

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        """Whether the edge ``{u, v}`` exists."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, u: Hashable) -> set:
        """The adjacency set of ``u`` (the live set — do not mutate)."""
        try:
            return self._adj[u]
        except KeyError as exc:
            raise GraphError(f"vertex {u!r} does not exist") from exc

    def degree(self, u: Hashable) -> int:
        """``d(u) = |N(u)|``."""
        return len(self.neighbors(u))

    def average_degree(self) -> float:
        """Mean degree ``2m / n`` (0.0 for the empty graph)."""
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def min_degree(self) -> int:
        """Minimum degree over all vertices; raises on the empty graph."""
        if not self._adj:
            raise GraphError("empty graph has no minimum degree")
        return min(len(nbrs) for nbrs in self._adj.values())

    # ------------------------------------------------------------------
    # Subgraphs and boundaries
    # ------------------------------------------------------------------

    def subgraph(self, vertices: Iterable[Hashable]) -> "Graph":
        """Return the subgraph induced by ``vertices`` (``G[S]``).

        Vertices not present in the graph raise :class:`GraphError` —
        silently dropping them would mask caller bugs.
        """
        keep = set(vertices)
        missing = [u for u in keep if u not in self._adj]
        if missing:
            raise GraphError(f"vertices not in graph: {missing[:5]!r}")
        sub = Graph()
        edge_count = 0
        for u in keep:
            inside = self._adj[u] & keep
            sub._adj[u] = inside
            edge_count += len(inside)
        sub._num_edges = edge_count // 2
        return sub

    def neighbors_in(self, u: Hashable, members: set) -> set:
        """``N(u) ∩ members`` — neighbours of ``u`` inside a vertex set."""
        return self.neighbors(u) & members

    def boundary(self, members: set) -> set:
        """``B(S)``: vertices of ``members`` with a neighbour outside it."""
        return {
            u for u in members if any(v not in members for v in self._adj[u])
        }

    def external_boundary(self, members: set) -> set:
        """``B(S̄)``: vertices *outside* ``members`` adjacent to it.

        This is the one-hop candidate ring that RME expands from.

        Iteration order is part of the contract: outside neighbours are
        added one at a time, members and adjacency sets in their own
        iteration order. LkVCS growth breaks ties by the first maximum
        over the ring, and VCCE-BU's goldens depend on it.
        """
        adj = self._adj
        ring: set = set()
        update = ring.update
        inside = members.__contains__
        for u in members:
            update(filterfalse(inside, adj[u]))
        return ring

    def neighborhood(self, seeds: Iterable[Hashable], hops: int) -> set:
        """``N^h(S)``: all vertices within ``hops`` of ``seeds`` (inclusive)."""
        if hops < 0:
            raise GraphError("hops must be non-negative")
        frontier = set(seeds)
        missing = [u for u in frontier if u not in self._adj]
        if missing:
            raise GraphError(f"vertices not in graph: {missing[:5]!r}")
        reached = set(frontier)
        for _ in range(hops):
            nxt: set = set()
            for u in frontier:
                nxt.update(v for v in self._adj[u] if v not in reached)
            if not nxt:
                break
            reached |= nxt
            frontier = nxt
        return reached

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __contains__(self, u: Hashable) -> bool:
        return u in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"
