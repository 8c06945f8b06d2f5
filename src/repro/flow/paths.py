"""Constructive Menger: extract actual vertex-disjoint paths.

The paper motivates k-VCCs with applications that need the *paths*
themselves — k vertex-disjoint routes for transportation robustness and
fault-tolerant networking. This module decomposes a maximum flow on the
vertex-split network back into the internally-vertex-disjoint paths it
certifies.

    >>> from repro.graph import circulant_graph
    >>> paths = vertex_disjoint_paths(circulant_graph(8, 2), 0, 4)
    >>> len(paths)
    4
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.errors import ParameterError
from repro.flow.network import VertexSplitNetwork
from repro.graph.adjacency import Graph, label_key

__all__ = ["vertex_disjoint_paths"]


def vertex_disjoint_paths(
    graph: Graph,
    source: Hashable,
    sink: Hashable,
    limit: int | None = None,
) -> list[list]:
    """A maximum set of internally-vertex-disjoint source→sink paths.

    Each returned path is a vertex list ``[source, …, sink]``; no two
    paths share a vertex other than the endpoints. If the pair is
    adjacent, the direct edge is returned as one of the paths. With
    ``limit`` set, at most that many paths are produced (the flow is
    cut off accordingly — much cheaper when only "are there k?" plus
    witnesses are needed).
    """
    if source == sink:
        raise ParameterError("source and sink must differ")
    for label in (source, sink):
        if not graph.has_vertex(label):
            raise ParameterError(f"{label!r} is not in the graph")
    if limit is not None and limit < 1:
        raise ParameterError(f"limit must be >= 1 or None, got {limit}")

    direct: list[list] = []
    if graph.has_edge(source, sink):
        # Peel the direct edge off as its own path; the remaining flow
        # question is then well-posed on the split network.
        direct.append([source, sink])
        if limit is not None and limit == 1:
            return direct

    # Augmenting paths follow set iteration order, which moves with
    # PYTHONHASHSEED on str labels. The flow runs on an int relabelling
    # built in label_key order, vertices and neighbour lists inserted
    # sorted, so the paths returned do not move.
    order = sorted(graph.vertices(), key=label_key)
    index = {u: i for i, u in enumerate(order)}
    work = Graph()
    for i in range(len(order)):
        work.add_vertex(i)
    for i, u in enumerate(order):
        for j in sorted(index[v] for v in graph.neighbors(u)):
            if i < j:
                work.add_edge(i, j)
    s, t = index[source], index[sink]
    if direct:
        work.remove_edge(s, t)

    remaining = None if limit is None else limit - len(direct)
    network = VertexSplitNetwork(work)
    cutoff = float("inf") if remaining is None else remaining
    flow = int(network.max_flow(s, t, cutoff=cutoff))
    if flow == 0:
        return direct
    paths = _decompose(network, s, t, flow)
    return direct + [[order[i] for i in path] for path in paths]


def _decompose(
    network: VertexSplitNetwork,
    source: Hashable,
    sink: Hashable,
    flow: int,
) -> list[list]:
    """Walk saturated arcs of the residual network into vertex paths.

    After a max-flow of value f, exactly f unit paths leave the
    source's out-node. Flow conservation on the unit-capacity internal
    arcs means every intermediate vertex carries at most one path, so
    greedily following saturated edge arcs (and consuming them) splits
    the flow into f vertex-disjoint paths. Cycles cannot trap the walk:
    any flow cycle is vertex-disjoint from the s→t paths and is simply
    never entered.
    """
    outgoing: dict[Hashable, list] = {}
    for u, v in network.saturated_arcs():
        outgoing.setdefault(u, []).append(v)
    paths: list[list] = []
    for _ in range(flow):
        path = [source]
        current = source
        while current != sink:
            nxt = outgoing[current].pop()
            path.append(nxt)
            current = nxt
        paths.append(path)
    return paths
