"""VCCE-TD: the exact top-down k-VCC enumerator (Wen et al., ICDE'19).

Recursively partitions the graph: prune to the k-core, split into
connected components, and for each component either certify it k-vertex
connected (then it is a k-VCC) or find a vertex cut of size < k and
recurse on the *overlapped* parts — each side of the cut keeps a copy of
the cut vertices, because distinct k-VCCs may share up to k-1 vertices.

This is the ground-truth oracle the accuracy experiments (Table III /
IV / V) measure the heuristics against. It is exact but deliberately
unoptimised beyond k-core pruning and flow cutoffs; its cost profile is
part of what Figure 7 reproduces.
"""

from __future__ import annotations

from repro import obs
from repro.core.result import PhaseTimer, VCCResult
from repro.errors import ParameterError
from repro.flow.connectivity import find_vertex_cut
from repro.graph.adjacency import Graph
from repro.graph.kcore import k_core
from repro.graph.traversal import connected_components

__all__ = ["vcce_td"]


def vcce_td(graph: Graph, k: int) -> VCCResult:
    """Enumerate all k-VCCs of ``graph`` exactly.

    Returns a :class:`VCCResult` whose components are precisely the
    maximal k-vertex connected subgraphs with more than k vertices.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    timer = PhaseTimer()
    with obs.start_span("vcce_td.run", k=k):
        with timer.phase("partition", k=k):
            found = _partition(graph, k)
        with timer.phase("finalize"):
            components = _drop_nested(found)
    return VCCResult(components, k=k, algorithm="VCCE-TD", timer=timer)


def _partition(
    graph: Graph, k: int, certified: frozenset = frozenset()
) -> set[frozenset]:
    """The overlapped partition loop; returns every k-VCS it certifies.

    A component found in ``certified`` (sets already known to be
    k-vertex connected: VCCE-Hybrid's bottom-up result) is accepted
    without a cut search.
    """
    found: set[frozenset] = set()
    pending: list[set] = [graph.vertex_set()]
    while pending:
        members = pending.pop()
        if len(members) <= k:
            continue
        sub = k_core(graph.subgraph(members), k)
        obs.count("vcce_td.partitions")
        for component in connected_components(sub):
            if len(component) <= k:
                continue
            if certified:
                frozen = frozenset(component)
                if frozen in certified:
                    obs.count("vcce_td.certifications_skipped")
                    found.add(frozen)
                    continue
            piece = sub.subgraph(component)
            # One flat aggregate instead of a node per search: deep
            # recursions would otherwise bloat the tree.
            with obs.agg_span("vcce_td.cut_search"):
                cut = find_vertex_cut(piece, k)
            obs.count("vcce_td.cut_searches")
            if cut is None:
                found.add(frozenset(component))
                continue
            remainder = piece.subgraph(component - cut)
            for part in connected_components(remainder):
                pending.append(part | cut)
    return found


def _drop_nested(found: set[frozenset]) -> list[frozenset]:
    """Remove components contained in a larger one.

    The overlapped partition can rediscover a k-VCC inside several
    branches, and a branch may certify a subgraph of a k-VCC certified
    elsewhere; only the maximal sets are k-VCCs.
    """
    ordered = sorted(found, key=len, reverse=True)
    kept: list[frozenset] = []
    for comp in ordered:
        if not any(comp < other for other in kept):
            kept.append(comp)
    return kept
