"""Local k-VCC search: the community containing a given vertex.

The local variant of the enumeration problem (the seed-expansion
literature the paper's related work surveys): given one vertex, find a
k-VCC containing it *without* enumerating the whole graph. The
bottom-up machinery makes this a three-liner:

1. find a k-VCS seed around the vertex (LkVCS);
2. expand it with unrestricted Multiple Expansion — by Theorem 2 the
   result is the unique maximal k-connected superset of the seed,
   i.e. a genuine k-VCC;
3. if no local seed exists, fall back to the exact enumerator
   restricted to the vertex's k-core component.

Because distinct k-VCCs may overlap in up to k-1 vertices, "the" k-VCC
of a vertex is not always unique; this returns the one grown from the
locally found seed (or the first exact component containing the vertex
under the fallback). For every k-VCC of a vertex, ask the k-VCC index
(:class:`repro.serving.KvccIndex`).
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.core.expansion import multiple_expansion
from repro.core.seeding import DEFAULT_ALPHA, lkvcs
from repro.core.vcce_td import vcce_td
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.kcore import k_core
from repro.graph.traversal import component_of

__all__ = ["kvcc_containing"]


def kvcc_containing(
    graph: Graph,
    vertex: Hashable,
    k: int,
    alpha: int = DEFAULT_ALPHA,
) -> frozenset | None:
    """A k-VCC containing ``vertex``, or None if it belongs to none.

    Cost is local when a seed exists near the vertex (one LkVCS call
    plus the expansion flows). When the 2-hop ball holds no seed, the
    exact enumerator runs on the vertex's k-core component (still much
    smaller than the graph in the common case), so None is a proof of
    absence.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if not graph.has_vertex(vertex):
        raise ParameterError(f"vertex {vertex!r} not in graph")

    core = k_core(graph, k)
    if not core.has_vertex(vertex):
        return None  # pruned by the k-core: in no k-VCC, provably
    scope = core.subgraph(component_of(core, vertex))

    seed = lkvcs(scope, k, vertex, alpha=alpha)
    if seed is not None:
        grown = multiple_expansion(scope, k, seed, hops=None)
        return frozenset(grown)
    for component in vcce_td(scope, k).components:
        if vertex in component:
            return component
    return None
