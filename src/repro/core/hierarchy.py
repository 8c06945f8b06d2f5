"""The k-VCC hierarchy: components for every k at once (paper Figure 1).

k-VCCs nest: every (k+1)-VCC lies inside some k-VCC (removing fewer
vertices can only disconnect less). Figure 1 of the paper illustrates
exactly this — the same 16-vertex graph decomposed at k = 1, 2, 3, 4.
:func:`kvcc_hierarchy` computes the full decomposition, recursing *into*
each level's components rather than re-scanning the whole graph, so the
work at level k+1 is confined to the (usually much smaller) level-k
components.

Each component's cut search also measures its connectivity
c = κ(G[C]) (``vcce_td(..., upper=)``), and two facts reuse that
number instead of certifying C again at every level:

* C is the only j-VCC inside C for every level j ≤ c, so C is carried
  up unchanged until level c;
* a minimum vertex cut W of G[C] confines every (c+1)-VCC inside C to
  ``part ∪ W`` for one connected component ``part`` of G[C] − W, so
  level c+1 searches those parts instead of C.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro import obs
from repro.core.vcce_td import vcce_td
from repro.graph.adjacency import Graph
from repro.graph.traversal import connected_components

__all__ = ["kvcc_hierarchy", "max_kvcc_level", "membership_levels"]


def kvcc_hierarchy(graph: Graph) -> dict[int, list[frozenset]]:
    """Exact k-VCC decomposition for every non-empty level k.

    Level 1 is the connected components (with > 1 vertex); each later
    level is computed inside the previous level's components. Stops at
    the first empty level.

    >>> from repro.graph import clique_graph
    >>> levels = kvcc_hierarchy(clique_graph(4))
    >>> sorted(levels)
    [1, 2, 3]
    """
    levels: dict[int, list[frozenset]] = {}
    # Each component of the current level with its (min(κ, upper), cut)
    # from vcce_td. Level 1's components are connected (κ ≥ 1) and
    # nothing more is measured about them.
    current: dict[frozenset, tuple[int, set | None]] = {
        frozenset(c): (1, None) for c in connected_components(graph) if len(c) > 1
    }
    k = 1
    while current:
        levels[k] = sorted(current, key=lambda c: (-len(c), sorted(map(repr, c))))
        k += 1
        found: dict[frozenset, tuple[int, set | None]] = {}
        for parent, (bound, witness) in current.items():
            if bound >= k:
                obs.count("hierarchy.carried")
                found[parent] = (bound, witness)
                continue
            pieces = [parent]
            if witness is not None:  # a minimum cut: |witness| = κ = k - 1
                rest = graph.subgraph(parent - witness)
                pieces = [part | witness for part in connected_components(rest)]
            for piece in pieces:
                result = vcce_td(graph.subgraph(piece), k, upper=len(piece))
                found.update(result.connectivity)
        current = found
    return levels


def max_kvcc_level(graph: Graph) -> int:
    """The largest k with a non-empty k-VCC level (0 for edgeless graphs)."""
    levels = kvcc_hierarchy(graph)
    return max(levels) if levels else 0


def membership_levels(graph: Graph) -> dict[Hashable, int]:
    """For each vertex, the deepest hierarchy level containing it.

    A vertex's level is the largest k such that it belongs to some
    k-VCC — a connectivity-based centrality ("coreness done right"):
    unlike the core number it cannot be inflated by dense-but-separable
    neighbourhoods.
    """
    depth: dict[Hashable, int] = {u: 0 for u in graph.vertices()}
    for k, components in kvcc_hierarchy(graph).items():
        for component in components:
            for u in component:
                depth[u] = max(depth[u], k)
    return depth
