"""Maximal clique enumeration (Bron–Kerbosch) for seeding and RME.

:func:`maximal_cliques_at_least` lists the maximal cliques of at least
a given size: Bron–Kerbosch with Tomita pivoting over a
degeneracy-ordered outer loop (the Eppstein–Strash scheme the paper
cites, O(d · n · 3^(d/3))), with subtree pruning (branches where
``|R| + |P|`` cannot reach the threshold are cut). QkVCS uses it with
``min_size = k + 1`` (a (k+1)-clique is k-vertex connected); RME uses
it inside candidate rings with ``min_size = k - r + 1``; ``min_size =
1`` lists every maximal clique. :func:`cliques_from_roots` is its outer
loop over a slice of the ordering, which the parallel seeding stage
splits across workers.

The recursion depth equals the size of the clique being grown, which is
bounded by the largest clique in the graph — far below CPython's
recursion limit for any graph this library targets.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.kcore import degeneracy_ordering

__all__ = ["cliques_from_roots", "maximal_cliques_at_least"]


def _expand(
    graph: Graph,
    clique: list,
    candidates: set,
    excluded: set,
    min_size: int,
    out: list,
) -> None:
    """Bron–Kerbosch with Tomita pivoting and min-size pruning.

    Appends maximal cliques to ``out`` eagerly (in DFS discovery
    order) instead of yielding them: the recursion runs tens of
    thousands of frames per enumeration, and a generator chain pays a
    generator object per frame plus a ``yield from`` hop per clique
    per level.
    """
    if not candidates and not excluded:
        if len(clique) >= min_size:
            out.append(frozenset(clique))
        return
    if len(clique) + len(candidates) < min_size:
        return
    # Tomita pivot: vertex of P ∪ X with the most neighbours in P, which
    # minimises the number of branches explored below this frame. The
    # explicit strict-improvement loop keeps ``max``'s first-wins
    # tie-break over the same union-set iteration order while avoiding
    # a key-lambda call per element. Adjacency is read straight off the
    # graph's private dict: this loop is the single hottest call site
    # in seeding and the ``neighbors()`` accessor costs a Python frame
    # per probe.
    adj = graph._adj
    limit = len(candidates)
    best = -1
    pivot = None
    for u in candidates | excluded:
        score = len(adj[u] & candidates)
        if score > best:
            best = score
            pivot = u
            if score == limit:
                # Perfect pivot (adjacent to all of P): no later vertex
                # can strictly beat it, so first-wins is already fixed.
                break
    # The branch set is a fresh temporary, so mutating ``candidates``
    # and ``excluded`` mid-loop cannot disturb the iteration.
    for v in candidates - adj[pivot]:
        nbrs = adj[v]
        new_candidates = candidates & nbrs
        # Resolve would-be leaf frames inline (in the same DFS emission
        # order the recursive call would produce): an empty candidate
        # set can only yield the current clique itself, and a branch
        # whose ceiling is below min_size yields nothing — most frames
        # of the recursion are one of these two.
        if not new_candidates:
            if len(clique) + 1 >= min_size and excluded.isdisjoint(nbrs):
                out.append(frozenset((*clique, v)))
        elif len(clique) + 1 + len(new_candidates) >= min_size:
            clique.append(v)
            _expand(
                graph, clique, new_candidates, excluded & nbrs,
                min_size, out,
            )
            clique.pop()
        candidates.discard(v)
        excluded.add(v)


def maximal_cliques_at_least(graph: Graph, min_size: int) -> list[frozenset]:
    """Maximal cliques with at least ``min_size`` vertices, each once.

    The outer loop walks a degeneracy ordering (Eppstein–Strash), so each
    root call has a candidate set no larger than the graph degeneracy.
    """
    order = degeneracy_ordering(graph)
    position = {u: i for i, u in enumerate(order)}
    return cliques_from_roots(graph, min_size, position, order)


def cliques_from_roots(
    graph: Graph,
    min_size: int,
    position: dict,
    roots: Iterable,
) -> list[frozenset]:
    """Maximal cliques rooted at the given degeneracy-order positions.

    ``position`` maps each vertex to its index in one fixed degeneracy
    ordering; a clique is found from its earliest member only. The
    union over slices of the ordering equals the enumeration over all
    of it, with no duplicates across slices. Every root appends into
    one list: the callers drain the whole enumeration, and a lazy
    per-clique resumption cost is measurable there.
    """
    if min_size < 1:
        raise ParameterError(f"min_size must be >= 1, got {min_size}")
    adj = graph._adj
    found: list = []
    for u in roots:
        nbrs = adj[u]
        pu = position[u]
        later = {v for v in nbrs if position[v] > pu}
        if 1 + len(later) < min_size:
            continue
        _expand(graph, [u], later, set(nbrs) - later, min_size, found)
    return found
