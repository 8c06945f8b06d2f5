"""VCCE-TD: the exact top-down k-VCC enumerator (Wen et al., ICDE'19).

Recursively partitions the graph: prune to the k-core, split into
connected components, and for each component either certify it k-vertex
connected (then it is a k-VCC) or find a vertex cut of size < k and
recurse on the *overlapped* parts — each side of the cut keeps a copy of
the cut vertices, because distinct k-VCCs may share up to k-1 vertices.

This is the ground-truth oracle the accuracy experiments (Table III /
IV / V) measure the heuristics against. Its cut search prunes to the
k-core, runs on a sparse certificate, certifies by deposit sweep and
cuts every flow off at k; its cost profile is part of what Figure 7
reproduces.
"""

from __future__ import annotations

from repro import obs
from repro.core.result import PhaseTimer, VCCResult
from repro.errors import ParameterError
from repro.flow.connectivity import connectivity_search
from repro.graph.adjacency import Graph
from repro.graph.kcore import k_core
from repro.graph.traversal import connected_components

__all__ = ["vcce_td"]


def vcce_td(graph: Graph, k: int, *, upper: int | None = None) -> VCCResult:
    """Enumerate all k-VCCs of ``graph`` exactly.

    Returns a :class:`VCCResult` whose components are precisely the
    maximal k-vertex connected subgraphs with more than k vertices.
    With ``upper`` (at least ``k``), each component's cut search also
    measures its connectivity: the result's ``connectivity`` maps every
    component to ``(min(κ, upper), cut)``, the cut being a minimum
    vertex cut of that size or None when none below ``upper`` exists.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if upper is not None and upper < k:
        raise ParameterError(f"upper must be >= k, got {upper} < {k}")
    timer = PhaseTimer()
    with obs.start_span("vcce_td.run", k=k):
        with timer.phase("partition", k=k):
            found = _partition(graph, k, upper or k)
        with timer.phase("finalize"):
            components = _drop_nested(found)
    connectivity = None if upper is None else {c: found[c] for c in components}
    return VCCResult(
        components, k=k, algorithm="VCCE-TD", timer=timer, connectivity=connectivity
    )


def _partition(
    graph: Graph, k: int, upper: int, certified: frozenset = frozenset()
) -> dict[frozenset, tuple[int, set | None]]:
    """The overlapped partition loop; maps every k-VCS it certifies to
    the ``(bound, cut)`` of its :func:`connectivity_search` up to
    ``upper``.

    A component found in ``certified`` (sets already known to be
    k-vertex connected: VCCE-Hybrid's bottom-up result) is accepted
    without a cut search, as ``(k, None)``.
    """
    found: dict[frozenset, tuple[int, set | None]] = {}
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
                    found[frozen] = (k, None)
                    continue
            piece = sub.subgraph(component)
            # One flat aggregate instead of a node per search: deep
            # recursions would otherwise bloat the tree.
            with obs.agg_span("vcce_td.cut_search"):
                cut, bound = connectivity_search(piece, k, upper)
            obs.count("vcce_td.cut_searches")
            if bound >= k:
                found[frozenset(component)] = (bound, cut)
                continue
            remainder = piece.subgraph(component - cut)
            for part in connected_components(remainder):
                pending.append(part | cut)
    return found


def _drop_nested(found: dict[frozenset, tuple]) -> list[frozenset]:
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
