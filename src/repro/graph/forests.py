"""k-round BFS forests (Nagamochi–Ibaraki style) for quick k-VCS seeding.

Lemma 4 of the paper (after Nagamochi & Ibaraki '92, Wen et al. '19): run
BFS k times, where round ``i`` builds a spanning BFS forest ``F_i`` of the
graph with the edges of forests ``F_1 … F_{i-1}`` removed. Any connected
component of the *last* forest ``F_k`` is a k-vertex connected subgraph of
the original graph — which makes the components of ``F_k`` free seeds for
the bottom-up pipeline.
"""

from __future__ import annotations

from itertools import chain

from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.traversal import (
    _bfs_tree_edges_avoiding,
    connected_components,
)

__all__ = [
    "k_bfs_forests",
    "k_bfs_seed_components",
    "sparse_certificate",
]


def _forest_avoiding(
    graph: Graph, used_adj: dict
) -> list[tuple[object, object]]:
    """A spanning BFS forest of ``graph`` avoiding the edges in ``used_adj``.

    Every vertex is covered: a fresh BFS tree is grown from each
    yet-unvisited vertex. ``used_adj`` maps a vertex to the neighbours
    it must not reach directly (see ``_bfs_tree_edges_avoiding``).
    """
    covered: set = set()
    forest: list[tuple[object, object]] = []
    for root in graph.vertices():
        if root in covered:
            continue
        tree = _bfs_tree_edges_avoiding(graph, root, used_adj)
        covered.add(root)
        covered.update(chain.from_iterable(tree))
        forest.extend(tree)
    return forest


def k_bfs_forests(graph: Graph, k: int) -> list[list[tuple[object, object]]]:
    """The k successive edge-disjoint BFS forests ``F_1 … F_k``."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    used_adj: dict = {}
    forests: list[list[tuple[object, object]]] = []
    for _ in range(k):
        forest = _forest_avoiding(graph, used_adj)
        forests.append(forest)
        for u, v in forest:
            used_adj.setdefault(u, set()).add(v)
            used_adj.setdefault(v, set()).add(u)
    return forests


def sparse_certificate(graph: Graph, k: int) -> Graph:
    """A sparse certificate for k-vertex connectivity (CKT '93).

    BFS is a scan-first search, so the union of the k edge-disjoint
    BFS forests ``F_1 … F_k`` has the Cheriyan–Kao–Thurimella
    property: for every vertex set ``W`` with ``|W| < k``, the
    certificate minus ``W`` is connected iff the original graph minus
    ``W`` is. Consequences the library exploits:

    * the certificate is k-vertex connected iff the graph is;
    * any vertex cut of size < k found *in the certificate* is a valid
      vertex cut of the original graph.

    The certificate has at most ``k · (n - 1)`` edges, so flow-based
    cut searches on dense graphs get much cheaper (Wen et al.'s
    optimisation for the top-down enumerator).
    """
    forests = k_bfs_forests(graph, k)
    certificate = Graph.from_edges(
        (edge for forest in forests for edge in forest),
        vertices=graph.vertices(),
    )
    return certificate


def k_bfs_seed_components(graph: Graph, k: int) -> list[set]:
    """k-vertex connected seed subgraphs found by the kBFS construction.

    Returns the vertex sets of the connected components of the k-th BFS
    forest that contain more than one vertex (singletons carry no
    connectivity information). By Lemma 4 each returned set induces a
    k-vertex connected subgraph in the *original* graph.
    """
    forests = k_bfs_forests(graph, k)
    last = Graph.from_edges(forests[-1], vertices=graph.vertices())
    return [
        comp for comp in connected_components(last) if len(comp) > k
    ]
