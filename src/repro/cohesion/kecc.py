"""k-edge connected components (the paper's references [6][40]).

A k-ECC is a maximal subgraph that survives the removal of any k-1
*edges*. Unlike k-VCCs, k-ECCs are vertex-disjoint, so the classic
partition framework is exact: find a global edge cut below k, remove
it, recurse on the pieces. Edge connectivity questions reduce to plain
(non-vertex-split) max-flow: λ(u, v) equals the max flow with one unit
arc per edge direction, and a global edge cut below k separates any
fixed s from somebody, so flows from s to every other vertex find one.

Built on the same Dinic engine as the vertex machinery; used by the
cohesion-model comparison example and bench to place k-VCC against the
weaker edge-based notion the paper's introduction discusses.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.errors import ParameterError
from repro.flow.dinic import Dinic
from repro.graph.adjacency import Graph
from repro.graph.traversal import connected_components

__all__ = ["find_edge_cut", "k_edge_components"]


class _EdgeFlowNetwork:
    """Reusable unit-capacity flow network over a graph's edges."""

    def __init__(self, graph: Graph) -> None:
        self._index = {u: i for i, u in enumerate(graph.vertices())}
        self._dinic = Dinic(len(self._index))
        for u, v in graph.edges():
            i, j = self._index[u], self._index[v]
            # one arc pair per direction so each undirected edge
            # carries at most one unit each way
            self._dinic.add_edge(i, j, 1)
            self._dinic.add_edge(j, i, 1)
        self._caps0 = list(self._dinic.cap)

    def max_flow(
        self, source: Hashable, sink: Hashable, cutoff: float = float("inf")
    ) -> float:
        self._dinic.cap[:] = self._caps0
        return self._dinic.max_flow(
            self._index[source], self._index[sink], cutoff=cutoff
        )

    def cut_side(self, source: Hashable) -> set:
        side = self._dinic.min_cut_side(self._index[source])
        labels = {i: u for u, i in self._index.items()}
        return {labels[i] for i in side}


def find_edge_cut(graph: Graph, k: int) -> set[frozenset] | None:
    """An edge cut of size < k, or None if the graph is k-edge connected.

    Requires a connected input (the k-ECC partitioner handles
    components); single-vertex graphs have no cut and return None.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if graph.num_vertices <= 1:
        return None
    network = _EdgeFlowNetwork(graph)
    anchor = next(iter(graph.vertices()))
    if graph.degree(anchor) < k:
        return {
            frozenset((anchor, w)) for w in graph.neighbors(anchor)
        }
    for v in graph.vertices():
        if v == anchor:
            continue
        flow = network.max_flow(anchor, v, cutoff=k)
        if flow < k:
            side = network.cut_side(anchor)
            return {
                frozenset((a, b))
                for a, b in graph.edges()
                if (a in side) != (b in side)
            }
    return None


def k_edge_components(graph: Graph, k: int) -> list[set]:
    """All k-edge connected components with more than one vertex.

    Exact partition framework: split each connected piece along any
    edge cut of size < k until every piece is k-edge connected.
    Components are vertex-disjoint and returned largest-first.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    result: list[set] = []
    pending = [c for c in connected_components(graph) if len(c) > 1]
    while pending:
        members = pending.pop()
        piece = graph.subgraph(members)
        cut = find_edge_cut(piece, k)
        if cut is None:
            result.append(set(members))
            continue
        for edge in cut:
            u, v = tuple(edge)
            piece.remove_edge(u, v)
        pending.extend(
            c for c in connected_components(piece) if len(c) > 1
        )
    return sorted(result, key=lambda c: (-len(c), sorted(map(repr, c))))
