"""Vertex-connectivity queries built on the split-network flow engine.

Implements the Even–Tarjan strategy the top-down baseline needs:

* :func:`connectivity_search` — one bounded search that finds a vertex
  cut of size < k if one exists (the partitioning step of VCCE-TD) and
  otherwise measures κ(G) up to a cap (the k-VCC hierarchy);
  :func:`find_vertex_cut` is its ``upper = k`` case.
* :func:`is_k_vertex_connected` — the verification predicate used to
  certify seeds and final components.
* :func:`global_vertex_connectivity` — κ(G), the uncapped search.

The pivot trick: fix any vertex ``u``. Every vertex cut either misses
``u`` — then it separates ``u`` from some non-neighbour ``v`` and
κ(u, v) finds it — or contains ``u`` — then it separates two neighbours
of ``u``, and κ(v, w) over neighbour pairs finds it.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable

from repro.errors import ParameterError
from repro.flow.network import VertexSplitNetwork
from repro.graph.adjacency import Graph
from repro.graph.traversal import is_connected

__all__ = [
    "connectivity_search",
    "find_vertex_cut",
    "is_k_vertex_connected",
    "global_vertex_connectivity",
]


def find_vertex_cut(
    graph: Graph, k: int, certificate: bool = True
) -> set | None:
    """A vertex cut of size < k, or None if the graph has none.

    The input must be connected (VCCE-TD splits into connected
    components before calling this). Complete graphs have no vertex
    cut at all and always return None. This is
    :func:`connectivity_search` with ``upper = k``.
    """
    return connectivity_search(graph, k, k, certificate)[0]


def connectivity_search(
    graph: Graph, k: int, upper: int, certificate: bool = True
) -> tuple[set | None, int]:
    """One cut search that also measures κ(G) up to ``upper``.

    Returns ``(cut, bound)``. A cut of size < k ends the search at once,
    with ``bound = len(cut)``. Otherwise ``bound = min(κ(G), upper)``
    and ``cut`` is a minimum vertex cut of exactly that size, or None
    when no cut below ``upper`` exists (a complete graph has none). The
    input must be connected.

    The search keeps a threshold, starting at min(upper, δ) with the
    minimum-degree vertex's neighbourhood as its cut, and each flow
    only asks whether a cut below the threshold exists; a smaller cut
    lowers the threshold to its size. With ``upper = k`` it runs
    exactly the flows of VCCE-TD's partitioning step.

    With ``certificate`` (the default), dense inputs are first reduced
    to their Cheriyan–Kao–Thurimella sparse certificate of at most
    ``upper(n-1)`` edges: the certificate has a cut of size < upper iff
    the graph does, and any such cut of the certificate is a valid cut
    of the graph — so all flow work happens on the sparse subgraph (Wen
    et al.'s optimisation).
    """
    if not 1 <= k <= upper:
        raise ParameterError(f"need 1 <= k <= upper, got {k} and {upper}")
    n = graph.num_vertices
    if n <= 1:
        return None, 0
    if not is_connected(graph):
        raise ParameterError("connectivity_search requires a connected graph")
    if graph.num_edges == n * (n - 1) // 2:
        return None, min(n - 1, upper)  # complete: no cut at any size
    if certificate and graph.num_edges > upper * (n - 1):
        from repro.graph.forests import sparse_certificate

        graph = sparse_certificate(graph, upper)

    # Pivot on a minimum-degree vertex: its neighbourhood is already a
    # cut of size δ (it has a non-neighbour since G is incomplete).
    # A simplicial pivot (clique neighbourhood) of similarly small
    # degree is even better: no minimal vertex cut can contain it (its
    # cut membership would force an edge across the separation), so the
    # quadratic neighbour-pair phase disappears entirely.
    pivot = min(graph.vertices(), key=graph.degree)
    min_degree = graph.degree(pivot)
    threshold = min(upper, min_degree)
    best = set(graph.neighbors(pivot)) if threshold < upper else None
    if threshold < k:
        return best, threshold
    pivot_is_simplicial = _is_simplicial(graph, pivot)
    if not pivot_is_simplicial:
        for candidate in graph.vertices():
            if graph.degree(candidate) <= min_degree + 2 and _is_simplicial(
                graph, candidate
            ):
                pivot = candidate
                pivot_is_simplicial = True
                break

    # Wen et al.'s deposit sweep. ``certified`` holds vertices known to
    # be threshold-connected to the pivot, seeded with its neighbours
    # (adjacent ⇒ κ = ∞). A vertex with ≥ threshold certified neighbours
    # is certified without a flow: a smaller cut leaves one of them on
    # the pivot's side, and the edge to it pins the vertex there too.
    # Lowering the threshold keeps every certification valid.
    network = VertexSplitNetwork(graph)
    certified = set(graph.neighbors(pivot)) | {pivot}
    deposits = {
        v: len(graph.neighbors(v) & certified)
        for v in graph.vertices()
        if v not in certified
    }

    def certify(start: Hashable) -> None:
        certified.add(start)
        stack = [start]
        while stack:
            u = stack.pop()
            for w in graph.neighbors(u):
                if w in certified:
                    continue
                deposits[w] += 1
                if deposits[w] >= threshold:
                    certified.add(w)
                    stack.append(w)

    def flush() -> None:
        """Certify the vertices already saturated at the threshold."""
        for v in sorted(deposits, key=repr):
            if v not in certified and deposits[v] >= threshold:
                certify(v)

    flush()
    for v in graph.vertices():
        if v in certified:
            continue
        cut = network.vertex_cut_if_below(pivot, v, threshold)
        if cut is not None:
            threshold, best = len(cut), cut
            if threshold < k:
                return best, threshold
        certify(v)
        if cut is not None:
            flush()
    if pivot_is_simplicial:
        return best, threshold  # no minimal cut can contain the pivot
    # Any remaining smaller cut contains the pivot and separates two of
    # its neighbours.
    neighbors = sorted(set(graph.neighbors(pivot)), key=graph.degree)
    for v, w in itertools.combinations(neighbors, 2):
        if graph.has_edge(v, w):
            continue
        if len(graph.neighbors(v) & graph.neighbors(w)) >= threshold:
            continue
        cut = network.vertex_cut_if_below(v, w, threshold)
        if cut is not None:
            threshold, best = len(cut), cut
            if threshold < k:
                return best, threshold
    return best, threshold


def _is_simplicial(graph: Graph, vertex: Hashable) -> bool:
    """Whether the vertex's neighbourhood induces a clique."""
    nbrs = list(graph.neighbors(vertex))
    for i, u in enumerate(nbrs):
        u_nbrs = graph.neighbors(u)
        for w in nbrs[i + 1:]:
            if w not in u_nbrs:
                return False
    return True


def is_k_vertex_connected(graph: Graph, k: int) -> bool:
    """Whether the graph itself is k-vertex connected.

    Requires more than k vertices (so that removing any k-1 leaves at
    least two), connectivity, min degree ≥ k, and no vertex cut of size
    below k.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if graph.num_vertices <= k:
        return False
    if graph.min_degree() < k:
        return False
    if not is_connected(graph):
        return False
    return find_vertex_cut(graph, k) is None


def global_vertex_connectivity(graph: Graph) -> int:
    """κ(G) for a graph with at least two vertices.

    Complete graphs get κ = n - 1 (the standard convention).
    """
    n = graph.num_vertices
    if n < 2:
        raise ParameterError("connectivity needs at least two vertices")
    if not is_connected(graph):
        return 0
    return connectivity_search(graph, 1, n - 1)[1]
