"""Graph traversal primitives: BFS, DFS, connected components.

These run on :class:`repro.graph.Graph` and are shared by k-core pruning,
seeding, and the top-down partitioning baseline.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable

from repro.errors import GraphError
from repro.graph.adjacency import Graph

__all__ = [
    "bfs_order",
    "connected_components",
    "is_connected",
    "component_of",
]


def bfs_order(graph: Graph, source: Hashable) -> list:
    """Vertices reachable from ``source`` in BFS visitation order."""
    if not graph.has_vertex(source):
        raise GraphError(f"source {source!r} not in graph")
    order = [source]
    seen = {source}
    queue = deque((source,))
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in seen:
                seen.add(v)
                order.append(v)
                queue.append(v)
    return order


def _bfs_tree_edges_avoiding(
    graph: Graph, source: Hashable, used_adj: dict
) -> list[tuple[Hashable, Hashable]]:
    """Edges of a BFS tree rooted at ``source``, avoiding used edges.

    ``used_adj`` maps a vertex to the set of neighbours it must not
    reach directly: the edges of earlier forests, which the k-round
    forest construction (:mod:`repro.graph.forests`) keeps
    incrementally, so each scanned edge costs one set-membership probe.
    """
    tree: list[tuple[Hashable, Hashable]] = []
    seen = {source}
    queue = deque((source,))
    # Private-dict subscript instead of the ``neighbors()`` accessor:
    # every dequeued vertex pays this lookup, and each round of the
    # k-round construction dequeues the whole graph.
    neighbors = graph._adj.__getitem__
    get_used = used_adj.get
    seen_add = seen.add
    tree_append = tree.append
    queue_append = queue.append
    while queue:
        u = queue.popleft()
        blocked = get_used(u)
        # Round 1 of the k-round construction (and any vertex with no
        # forbidden incident edges) skips the blocked probe entirely —
        # the scan touches every graph edge, so one membership test per
        # edge is measurable. Traversal order is unchanged.
        if blocked:
            for v in neighbors(u):
                if v in seen or v in blocked:
                    continue
                seen_add(v)
                tree_append((u, v))
                queue_append(v)
        else:
            for v in neighbors(u):
                if v in seen:
                    continue
                seen_add(v)
                tree_append((u, v))
                queue_append(v)
    return tree


def connected_components(graph: Graph) -> list[set]:
    """All connected components as vertex sets, largest-first order not guaranteed."""
    components: list[set] = []
    seen: set = set()
    for start in graph.vertices():
        if start in seen:
            continue
        comp = {start}
        queue = deque((start,))
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in comp:
                    comp.add(v)
                    queue.append(v)
        seen |= comp
        components.append(comp)
    return components


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected. The empty graph counts as connected."""
    if graph.num_vertices == 0:
        return True
    first = next(iter(graph.vertices()))
    return len(bfs_order(graph, first)) == graph.num_vertices


def component_of(graph: Graph, vertex: Hashable) -> set:
    """The vertex set of the connected component containing ``vertex``."""
    return set(bfs_order(graph, vertex))
