"""k-truss decomposition (Huang et al., the paper's reference [17]).

The k-truss is the maximal subgraph in which every edge is supported by
at least k-2 triangles. It sits between the k-core and the clique in
the cohesion ladder the paper's introduction walks: stronger than
degree constraints, still purely local — a k-truss can be split by
removing few vertices, which is exactly the weakness k-VCCs fix.
Implemented here so the comparison examples/benches can put all four
models (k-core, k-truss, k-ECC, k-VCC) side by side.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ParameterError
from repro.graph.adjacency import Graph

__all__ = ["k_truss"]


def _support(graph: Graph) -> dict[frozenset, int]:
    """Triangle support of every edge."""
    return {
        frozenset((u, v)): len(graph.neighbors(u) & graph.neighbors(v))
        for u, v in graph.edges()
    }


def k_truss(graph: Graph, k: int) -> Graph:
    """The k-truss: maximal subgraph with edge support ≥ k-2 everywhere.

    Standard peeling: repeatedly delete edges with fewer than k-2
    triangles, updating the supports of the surviving edges that shared
    those triangles. Isolated vertices left behind are dropped (the
    truss is an edge-induced notion). Runs in O(m^1.5) time.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    work = graph.copy()
    threshold = k - 2
    support = _support(work)
    queue = deque(e for e, s in support.items() if s < threshold)
    queued = set(queue)
    while queue:
        edge = queue.popleft()
        u, v = tuple(edge)
        if not work.has_edge(u, v):
            continue
        for w in work.neighbors(u) & work.neighbors(v):
            for other in (frozenset((u, w)), frozenset((v, w))):
                support[other] -= 1
                if support[other] < threshold and other not in queued:
                    queue.append(other)
                    queued.add(other)
        work.remove_edge(u, v)
    work.remove_vertices(
        [w for w in work.vertices() if work.degree(w) == 0]
    )
    return work
