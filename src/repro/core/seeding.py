"""Seeding algorithms: LkVCS (baseline) and QkVCS (the paper's).

The bottom-up pipeline needs k-vertex connected subgraphs (k-VCSs) to
grow from. Two generations of seeders are implemented:

* :func:`lkvcs` — the VCCE-BU baseline (Li et al.). For a start vertex,
  enumerate k-subsets of its neighbourhood (capped at α combinations),
  greedily grow each inside the 2-hop ball, and return the first
  verified k-VCS found. Slow: the combination count explodes on dense
  neighbourhoods, which is exactly the inefficiency the paper fixes.
* :func:`qkvcs` — Algorithm 4. Three stages:

  1. ``kBFS``: k rounds of edge-disjoint BFS forests; the multi-vertex
     components of the k-th forest are strong seed candidates (Lemma 4).
     Each candidate is *verified* (the certificate property guarantees
     connectivity through the whole graph, not in the induced subgraph);
     failing candidates are split along their vertex cuts so the useful
     cores survive. The verification cost is visible in the paper's own
     Figure 9 ("verifying QkVCS").
  2. ``BK-MCQ``: every maximal clique with ≥ k+1 vertices is a k-VCS by
     construction — no verification needed.
  3. LkVCS fallback for vertices still uncovered, visited in
     non-decreasing degree order.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable
from operator import countOf

from repro import obs
from repro.errors import ParameterError
from repro.flow.connectivity import find_vertex_cut, is_k_vertex_connected
from repro.graph.adjacency import Graph
from repro.graph.cliques import maximal_cliques_at_least
from repro.graph.forests import k_bfs_seed_components
from repro.graph.kcore import k_core
from repro.graph.traversal import connected_components

__all__ = ["lkvcs", "kbfs_seeds", "clique_seeds", "qkvcs", "lkvcs_seeds"]

#: Default cap on neighbourhood-subset enumerations per start vertex,
#: the paper's α = 10³.
DEFAULT_ALPHA = 1000


def lkvcs(
    graph: Graph,
    k: int,
    start: Hashable,
    alpha: int = DEFAULT_ALPHA,
    max_failed_growths: int = 25,
) -> set | None:
    """Find one k-VCS containing ``start`` within its 2-hop ball, or None.

    Faithful to the baseline's shape: enumerate k-subsets of N(start)
    (up to ``alpha`` of them), greedily densify each candidate inside
    ``N²(start)``, verify with the exact connectivity predicate.

    ``max_failed_growths`` implements the paper's "sufficient to
    reject" early exit: different starting subsets greedily grow into
    near-identical candidates, so once a few have exhausted the ball
    without verifying, the remaining combinations are hopeless too.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if alpha < 1:
        raise ParameterError(f"alpha must be >= 1, got {alpha}")
    if graph.degree(start) < k:
        return None
    scope = graph.neighborhood([start], 2)
    ball = graph.subgraph(scope)
    neighbors = sorted(ball.neighbors(start), key=ball.degree, reverse=True)
    failures = 0
    for combo in itertools.islice(
        itertools.combinations(neighbors, k), alpha
    ):
        obs.count("seeding.lkvcs_enumerations")
        members = {start, *combo}
        grown = _grow_candidate(ball, k, members)
        if grown is not None:
            return grown
        failures += 1
        if failures >= max_failed_growths:
            return None
    return None


def _grow_candidate(ball: Graph, k: int, members: set) -> set | None:
    """Greedily absorb ball vertices until a verified k-VCS or rejection.

    A candidate is worth verifying only once every member has internal
    degree ≥ k (a necessary condition); otherwise the best-connected
    outside vertex is absorbed. Rejects when the ball is exhausted.

    ``inside`` (member → neighbours among members), ``counts``
    (frontier vertex → the same) and ``short`` (members still below k)
    move in O(deg(best)) per absorption. The pick must be the first
    maximum in a fresh ``external_boundary(members)``'s iteration order
    (VCCE-BU's goldens depend on it), so only a tie rebuilds the ring.
    """
    members = set(members)
    adj = ball._adj
    inside = {u: len(adj[u] & members) for u in members}
    short = sum(1 for degree in inside.values() if degree < k)
    counts: dict = {}
    counts_get = counts.get
    score = counts.__getitem__
    for u in members:
        for v in adj[u]:
            if v not in members:
                counts[v] = counts_get(v, 0) + 1
    # The ball is small by construction, but unbounded growth plus a
    # verification per step would still hurt; k-VCSs worth seeding from
    # are found long before this cap.
    max_growth = 4 * k + 8
    for _ in range(max_growth):
        if not short and len(members) > k:
            obs.count("seeding.lkvcs_verifications")
            if is_k_vertex_connected(ball.subgraph(members), k):
                return members
        if not counts:
            return None
        best = max(counts, key=score)
        if countOf(counts.values(), counts[best]) > 1:
            best = max(ball.external_boundary(members), key=score)
        members.add(best)
        degree = inside[best] = counts.pop(best)
        if degree < k:
            short += 1
        for v in adj[best]:
            if v in members:
                degree = inside[v] = inside[v] + 1
                if degree == k:
                    short -= 1
            else:
                counts[v] = counts_get(v, 0) + 1
    return None


def kbfs_seeds(
    graph: Graph, k: int, skip_inside: set | None = None
) -> list[set]:
    """Verified seeds from the k-round BFS forest construction.

    Components of the k-th forest are verified; a failing component is
    split along the vertex cut that disproved it and the parts are
    retried, so dense cores inside a loose component still seed.

    ``skip_inside`` short-circuits candidates that lie entirely inside
    an already-covered region (e.g. the union of clique seeds): their
    vertices are seeded anyway and merging reassembles any larger
    structure, so the flow-based verification would be pure overhead.
    When it covers the whole graph every candidate would be skipped, so
    the forests are not built at all.
    """
    covered = skip_inside or set()
    if graph.vertex_view() <= covered:
        return []
    pending = k_bfs_seed_components(graph, k)
    seeds: list[set] = []
    while pending:
        candidate = pending.pop()
        if len(candidate) <= k:
            continue
        if candidate <= covered:
            obs.count("seeding.kbfs_skipped_covered")
            continue
        sub = graph.subgraph(candidate)
        sub = k_core(sub, k)
        if sub.num_vertices <= k:
            continue
        for component in connected_components(sub):
            if len(component) <= k:
                continue
            piece = sub.subgraph(component)
            obs.count("seeding.kbfs_verifications")
            cut = find_vertex_cut(piece, k)
            if cut is None:
                seeds.append(set(component))
                continue
            # Split along the cut and retry both (overlapped) halves.
            remainder = piece.subgraph(component - cut)
            for part in connected_components(remainder):
                pending.append(part | cut)
    return seeds


def clique_seeds(graph: Graph, k: int) -> list[set]:
    """Seeds from maximal cliques of size ≥ k+1 (BK-MCQ stage)."""
    return [set(c) for c in maximal_cliques_at_least(graph, k + 1)]


def lkvcs_seeds(
    graph: Graph,
    k: int,
    alpha: int = DEFAULT_ALPHA,
    covered: set | None = None,
) -> list[set]:
    """LkVCS sweep over all still-uncovered vertices (baseline seeding).

    Vertices are visited in non-decreasing degree order; every returned
    seed marks its members covered so later vertices skip.
    """
    covered = set() if covered is None else set(covered)
    seeds: list[set] = []
    order = sorted(
        (u for u in graph.vertices() if u not in covered), key=graph.degree
    )
    for vertex in order:
        if vertex in covered:
            continue
        seed = lkvcs(graph, k, vertex, alpha=alpha)
        if seed is not None:
            seeds.append(seed)
            covered |= seed
    obs.count("seeding.lkvcs_sweep_seeds", len(seeds))
    return seeds


def qkvcs(graph: Graph, k: int, alpha: int = DEFAULT_ALPHA) -> list[set]:
    """The paper's quick seeding (Algorithm 4): kBFS + BK-MCQ + fallback.

    Returns a deduplicated list of verified k-VCS seed sets. The
    ``seeding.kbfs_covered`` / ``seeding.clique_covered`` counters feed
    Table VI.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")

    # Cliques first: they are k-VCSs by construction (no verification),
    # and kBFS candidates wholly inside clique coverage can then skip
    # their expensive flow-based verification.
    with obs.start_span("seeding.cliques"):
        from_cliques = clique_seeds(graph, k)
        obs.set_span_attrs(seeds=len(from_cliques))
    clique_covered: set = (
        set().union(*from_cliques) if from_cliques else set()
    )
    with obs.start_span("seeding.kbfs"):
        from_kbfs = kbfs_seeds(graph, k, skip_inside=clique_covered)
        obs.set_span_attrs(seeds=len(from_kbfs))
    kbfs_covered: set = set().union(*from_kbfs) if from_kbfs else set()
    obs.count("seeding.kbfs_covered", len(kbfs_covered))
    obs.count("seeding.clique_covered", len(clique_covered))
    obs.count("seeding.clique_seeds", len(from_cliques))
    obs.count("seeding.kbfs_seeds", len(from_kbfs))

    if from_kbfs:
        seeds = _dedupe(from_kbfs + from_cliques)
    else:
        # Distinct maximal cliques never duplicate or contain each
        # other, so deduping them alone reduces to _dedupe's output
        # order (size-descending, stable) over fresh copies.
        seeds = [
            set(c) for c in sorted(from_cliques, key=len, reverse=True)
        ]
    covered = kbfs_covered | clique_covered
    with obs.start_span("seeding.fallback"):
        fallback = lkvcs_seeds(graph, k, alpha=alpha, covered=covered)
        obs.set_span_attrs(seeds=len(fallback))
    obs.count(
        "seeding.fallback_covered",
        len(set().union(*fallback)) if fallback else 0,
    )
    obs.count("seeding.fallback_seeds", len(fallback))
    # ``seeds`` is already deduplicated and emerges from _dedupe in
    # size-sorted order, so re-deduping it alone is the identity map —
    # only an actual fallback contribution needs the second pass.
    final = _dedupe(seeds + fallback) if fallback else seeds
    obs.count("seeding.seeds", len(final))
    return final


def _dedupe(seeds: list[set]) -> list[set]:
    """Drop duplicate seeds and seeds fully contained in a larger one.

    Containment is checked through an inverted vertex → kept-seed
    index: a seed can only be contained in a kept seed that owns its
    rarest member, so each candidate compares against that member's
    owner list instead of every kept seed (the naive all-pairs scan is
    quadratic in the seed count and was a measured hot spot). The kept
    list is identical to the naive scan's.
    """
    unique: list[set] = []
    owners: dict = {}  # vertex -> indices of kept seeds containing it
    owners_get = owners.get
    for seed in sorted(seeds, key=len, reverse=True):
        rarest: list | None = None
        uncovered = not seed and bool(unique)
        for v in seed:
            holding = owners_get(v)
            if not holding:
                rarest = None
                break
            if rarest is None or len(holding) < len(rarest):
                rarest = holding
        else:
            # Every member is owned somewhere (or the seed is empty —
            # contained in any kept seed, matching ``seed <= kept``).
            if uncovered or (
                rarest is not None
                and any(seed <= unique[at] for at in rarest)
            ):
                continue
        at = len(unique)
        kept = set(seed)
        unique.append(kept)
        for v in kept:
            owners.setdefault(v, []).append(at)
    return unique
