"""Local expansion strategies: UE (baseline), ME (exact), RME (ring-based).

Each strategy takes a k-vertex connected seed set ``S`` and grows it with
vertices of the host graph while preserving k-vertex connectivity:

* :func:`unitary_expansion` — the VCCE-BU baseline. Absorbs one vertex at
  a time when it has ≥ k neighbours already inside. Misses groups of
  vertices that supply disjoint paths *for each other* (paper Figure 2).
* :func:`multiple_expansion` — the paper's exact ME (Algorithm 1).
  Attaches a virtual vertex σ to every seed vertex and keeps shrinking a
  candidate set ``C`` until every remaining candidate has
  ``max_flow(u → σ) ≥ k`` inside ``G[S ∪ C] + σ`` (Theorem 1); then the
  whole survivor set joins at once. With ``hops=None`` the candidates
  start at ``V \\ S`` and the expansion is exact (Theorem 2); bounded
  ``hops`` trades accuracy for speed.
* :func:`ring_expansion` — RME (Algorithm 3). Buckets the one-hop
  boundary ring by the number of neighbours in the seed; absorbs the
  ≥ k bucket directly and absorbs maximal cliques ``K ⊆ C_r`` with
  ``|K| ≥ k+1-r`` and ``|N_S(K)| ≥ k`` (Theorem 4) — no max-flow calls
  in the hot path.

Soundness note: the paper's Theorem 4 conditions admit rare corner cases
where the clique's anchor vertices overlap too much for the k disjoint
paths to exist (the proof implicitly needs a system of distinct
representatives). :func:`ring_expansion` therefore additionally runs a
tiny bipartite-matching check per clique member, which makes every
absorption provably sound while accepting all configurations the paper's
proof actually covers. DESIGN.md documents this deviation.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro import obs
from repro.errors import ParameterError
from repro.flow.network import VertexSplitNetwork
from repro.graph.adjacency import Graph
from repro.graph.cliques import maximal_cliques_at_least

__all__ = [
    "unitary_expansion",
    "multiple_expansion",
    "ring_expansion",
    "SIGMA",
]

#: Label of the virtual vertex attached to the seed side (Theorem 1).
SIGMA = "__sigma__"


def _check_k(k: int) -> None:
    if k < 2:
        raise ParameterError(f"expansion requires k >= 2, got {k}")


def unitary_expansion(graph: Graph, k: int, seed: Iterable[Hashable]) -> set:
    """Expand ``seed`` one vertex at a time (the VCCE-BU heuristic).

    A candidate joins when it already has ≥ k neighbours inside the
    growing set; absorbed vertices can unlock their own neighbours, so a
    work queue propagates until a fixed point.
    """
    _check_k(k)
    members = set(seed)
    # Inside-degree bookkeeping (mirrors RME's ring buckets): every
    # boundary vertex carries |N(u) ∩ members|, updated on absorption,
    # so no candidate ever recomputes the intersection from scratch.
    inside_degree = {
        u: len(graph.neighbors(u) & members)
        for u in graph.external_boundary(members)
    }
    pending = [u for u, d in inside_degree.items() if d >= k]
    while pending:
        u = pending.pop()
        if u in members:
            continue
        obs.count("expansion.ue.checks")
        if inside_degree[u] < k:
            continue  # stale queue entry
        members.add(u)
        obs.count("expansion.ue.absorbed")
        for v in graph.neighbors(u):
            if v in members:
                continue
            # First touch of a 2+-hop vertex: u is its only absorbed
            # neighbour (any earlier one would have registered it).
            degree = inside_degree.get(v, 0) + 1
            inside_degree[v] = degree
            if degree >= k:
                pending.append(v)
    return members


def multiple_expansion(
    graph: Graph,
    k: int,
    seed: Iterable[Hashable],
    hops: int | None = 1,
) -> set:
    """Expand ``seed`` by the exact Multiple Expansion (Algorithm 1).

    ``hops`` bounds the candidate scope to the h-hop neighbourhood of
    the current seed; ``None`` means the whole graph (the provably
    maximal variant of Theorem 2, and by far the slowest).
    """
    _check_k(k)
    if hops is not None and hops < 1:
        raise ParameterError(f"hops must be >= 1 or None, got {hops}")
    members = set(seed)
    while True:
        if hops is None:
            candidates = graph.vertex_set() - members
        else:
            candidates = graph.neighborhood(members, hops) - members
        if not candidates:
            break
        obs.count("expansion.me.rounds")
        with obs.start_span(
            "expansion.me.round",
            members=len(members),
            candidates=len(candidates),
        ):
            survivors = _shrink_candidates(graph, k, members, candidates)
            obs.set_span_attrs(absorbed=len(survivors))
        obs.count("expansion.me.absorbed", len(survivors))
        obs.count(
            "expansion.me.discarded", len(candidates) - len(survivors)
        )
        if not survivors:
            break
        members |= survivors
    return members


def _shrink_candidates(
    graph: Graph, k: int, members: set, candidates: set
) -> set:
    """Iterate the ME filter until the candidate set is stable.

    Returns the surviving candidate set (possibly empty): the largest
    ``C* ⊆ candidates`` whose every vertex reaches σ with ≥ k disjoint
    paths inside ``G[S ∪ C*] + σ``.

    Each pass builds its network on the current scope ``S ∪ C`` and
    records an ``expansion.me.filter_pass`` span event.
    """
    current = set(candidates)
    # Degree peel: max_flow(u → σ) is capped by u's degree inside the
    # scope ``S ∪ C``, so a candidate below k inside-degree can never
    # survive any filter pass — and dropping it shrinks its neighbours'
    # scope degrees, so the peel cascades (a k-core of the candidate
    # region, anchored on the seed). The ME fixpoint is the *maximal*
    # feasible subset and every feasible subset lives inside the peeled
    # core, so the surviving set is untouched; what the peel removes is
    # network builds and flow calls for hopeless one-round scopes.
    neighbors = graph.neighbors
    scope = members | current
    inside_degree = {u: len(neighbors(u) & scope) for u in current}
    peel = [u for u, d in inside_degree.items() if d < k]
    while peel:
        u = peel.pop()
        current.discard(u)
        obs.count("expansion.me.degree_peeled")
        for v in neighbors(u):
            d = inside_degree.get(v)
            if d is not None and v in current:
                inside_degree[v] = d - 1
                if d == k:
                    peel.append(v)
    while current:
        obs.count("expansion.me.filter_passes")
        network = VertexSplitNetwork(
            graph, members | current, virtual_sources={SIGMA: members}
        )
        survivors = set()
        for u in current:
            obs.count("expansion.me.flow_tests")
            if network.max_flow(u, SIGMA, cutoff=k) >= k:
                survivors.add(u)
        obs.span_event(
            "expansion.me.filter_pass",
            candidates=len(current),
            survivors=len(survivors),
        )
        if survivors == current:
            return survivors
        current = survivors
    return current


def ring_expansion(graph: Graph, k: int, seed: Iterable[Hashable]) -> set:
    """Expand ``seed`` by Ring-based Multiple Expansion (Algorithm 3)."""
    _check_k(k)
    members = set(seed)
    while True:
        obs.count("expansion.rme.rounds")
        with obs.start_span(
            "expansion.rme.round", members=len(members)
        ):
            absorbed = _ring_pass(graph, k, members)
            obs.set_span_attrs(absorbed=len(absorbed))
        obs.count("expansion.rme.absorbed", len(absorbed))
        if not absorbed:
            break
        members |= absorbed
    return members


def _ring_pass(graph: Graph, k: int, members: set) -> set:
    """One do-iteration of Algorithm 3: returns the newly absorbed set F."""
    ring: dict[Hashable, int] = {}
    buckets: list[set] = [set() for _ in range(k + 1)]
    for u in graph.external_boundary(members):
        r = min(len(graph.neighbors(u) & members), k)
        ring[u] = r
        buckets[r].add(u)
    # Candidate-ring size on the enclosing expansion.rme.round span.
    obs.set_span_attrs(ring=len(ring))

    absorbed: set = set()

    def promote_neighbours(start: Hashable) -> None:
        """UpdateNeighbours: bump ring counts around newly absorbed vertices."""
        stack = [start]
        while stack:
            u = stack.pop()
            for v in graph.neighbors(u):
                if v in members or v in absorbed or v not in ring:
                    continue
                r = ring[v]
                if r >= k:  # already pending in the top bucket
                    continue
                buckets[r].discard(v)
                ring[v] = r + 1
                if r + 1 >= k:
                    absorbed.add(v)
                    obs.count("expansion.rme.chain_absorbed")
                    stack.append(v)
                else:
                    buckets[r + 1].add(v)

    # Vertices with ≥ k neighbours inside join unconditionally (this is
    # exactly the sound part of Unitary Expansion).
    for u in list(buckets[k]):
        if u in absorbed:
            continue
        buckets[k].discard(u)
        absorbed.add(u)
        promote_neighbours(u)

    # Rings k-1 … 1: absorb qualifying maximal cliques (Theorem 4).
    for r in range(k - 1, 0, -1):
        snapshot = set(buckets[r])
        if len(snapshot) < k + 1 - r:
            continue
        ring_subgraph = graph.subgraph(snapshot)
        # The enumeration reads only the immutable ring snapshot, so
        # the eager list sees exactly what lazy iteration would.
        for clique in maximal_cliques_at_least(ring_subgraph, k + 1 - r):
            obs.count("expansion.rme.clique_checks")
            if any(v not in buckets[r] for v in clique):
                continue  # a member was absorbed or promoted meanwhile
            base = members | absorbed
            if not _clique_absorbable(graph, clique, base, k):
                continue
            for v in clique:
                buckets[r].discard(v)
                absorbed.add(v)
            obs.count("expansion.rme.cliques_absorbed")
            for v in clique:
                promote_neighbours(v)
    return absorbed


def _clique_absorbable(
    graph: Graph, clique: frozenset, base: set, k: int
) -> bool:
    """Theorem 4 check with the distinct-representatives strengthening.

    ``base`` is the current (k-vertex connected) grown set. The clique
    joins when (i) its members' anchors into ``base`` number ≥ k in
    union, and (ii) every member ``u`` can route its missing ``k - r_u``
    paths through *distinct* fellow members to *distinct* anchors
    outside ``N(u) ∩ base`` — a bipartite matching per member.
    """
    anchors_of = {v: graph.neighbors(v) & base for v in clique}
    union: set = set()
    for anchors in anchors_of.values():
        union |= anchors
    if len(union) < k:
        return False
    for u in clique:
        needed = k - len(anchors_of[u])
        if needed <= 0:
            continue
        relays = [v for v in clique if v != u]
        options = {
            v: anchors_of[v] - anchors_of[u] for v in relays
        }
        if _matching_size(relays, options, needed) < needed:
            return False
    return True


def _matching_size(
    left: list, options: dict, target: int
) -> int:
    """Size of a maximum bipartite matching, stopping early at ``target``.

    ``left`` vertices match into the anchor sets given by ``options``
    (left vertex → set of right candidates). Classic augmenting-path
    matching; the sides here are tiny (≤ k members / anchors).
    """
    match_of: dict = {}  # right vertex -> left vertex
    size = 0
    for u in left:
        seen: set = set()
        if _augment(u, options, match_of, seen):
            size += 1
            if size >= target:
                return size
    return size


def _augment(u, options: dict, match_of: dict, seen: set) -> bool:
    for w in options[u]:
        if w in seen:
            continue
        seen.add(w)
        if w not in match_of or _augment(match_of[w], options, match_of, seen):
            match_of[w] = u
            return True
    return False
