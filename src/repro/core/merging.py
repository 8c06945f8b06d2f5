"""Merging conditions for pairs of k-vertex connected subgraphs.

* :func:`neighbor_based_merge_condition` — NBM (Proposition 1), the
  VCCE-BU baseline. Counts overlap plus the smaller side's pure
  neighbour set. **Intentionally unsound**: boundary vertices with
  several neighbours across the cut get counted multiple times, so NBM
  can merge two sides whose actual connectivity is below k (paper
  Figure 3). It is implemented verbatim because reproducing its failure
  is half of the accuracy story.
* :func:`flow_based_merge_condition` — FBM (Theorem 3). Attaches σ to
  all of S and τ to all of S' and merges iff ``max_flow(σ → τ) ≥ k``
  inside ``G[S ∪ S']``; an overlap of ≥ k vertices short-circuits the
  flow (any separator of the union would have to swallow the overlap).
* :func:`merge_components` — the fixed-point driver (Algorithm 2): keeps
  trying pairs until no two components merge, with a size-descending
  order so big components absorb small ones early. Instead of rescanning
  all O(p²) pairs per round, an inverted vertex→component index plus a
  boundary-adjacency candidate heap surfaces exactly the pairs that
  touch, and a rejected-pair memo skips re-testing pairs neither of
  whose sides changed since the last rejection (the whole final
  round's flow work) — both invisible in the output, the test sequence
  over touching pairs is byte-identical to the naive scan.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro import obs
from repro.core.expansion import SIGMA
from repro.errors import ParameterError
from repro.flow.network import VertexSplitNetwork
from repro.graph.adjacency import Graph

__all__ = [
    "neighbor_based_merge_condition",
    "flow_based_merge_condition",
    "merge_components",
    "TAU",
]

#: Label of the virtual vertex attached to the second side (Theorem 3).
TAU = "__tau__"

MergeCondition = Callable[[Graph, int, set, set], bool]


def neighbor_based_merge_condition(
    graph: Graph, k: int, side_a: set, side_b: set
) -> bool:
    """NBM, Proposition 1 of the paper (deliberately flawed baseline).

    ``|S ∩ S'| + min(|N_{G[S' \\ S]}(S \\ S')|, |N_{G[S \\ S']}(S' \\ S)|) ≥ k``
    """
    obs.count("merge.tests_attempted")
    overlap = side_a & side_b
    pure_a = side_a - side_b
    pure_b = side_b - side_a
    # Pure neighbours of A inside B: vertices of B \ A adjacent to A \ B
    # (isdisjoint early-exits without materialising the intersection).
    neighbors = graph.neighbors
    neighbors_in_b = {
        v for v in pure_b if not pure_a.isdisjoint(neighbors(v))
    }
    neighbors_in_a = {
        v for v in pure_a if not pure_b.isdisjoint(neighbors(v))
    }
    verdict = (
        len(overlap) + min(len(neighbors_in_b), len(neighbors_in_a)) >= k
    )
    obs.count("merge.tests_accepted" if verdict else "merge.tests_rejected")
    return verdict


def flow_based_merge_condition(
    graph: Graph, k: int, side_a: set, side_b: set
) -> bool:
    """FBM, Theorem 3: merge iff σ and τ are k-connected in the union."""
    obs.count("merge.tests_attempted")
    overlap = len(side_a & side_b)
    if overlap >= k:
        obs.count("merge.tests_accepted")
        obs.count("merge.overlap_short_circuits")
        return True
    # Exact rejection bound (NBM's count, Proposition 1, sound in this
    # direction): a σ→τ path either passes through an overlap vertex or
    # crosses between the pure sides, and vertex-disjoint paths cross
    # through *distinct* boundary vertices. So κ(σ, τ) can reach k only
    # if each pure side has ≥ k - overlap boundary vertices — checked
    # with an early-exit scan before paying for a network build.
    needed = k - overlap
    # Direct private-dict access: the scan probes every pure-side
    # vertex on the ~97% of tests the bound rejects, and the accessor
    # costs a Python frame per probe.
    adj = graph._adj
    pure_a = side_a - side_b
    pure_b = side_b - side_a
    for near, far in ((pure_a, pure_b), (pure_b, pure_a)):
        boundary = 0
        for v in near:
            if not far.isdisjoint(adj[v]):
                boundary += 1
                if boundary >= needed:
                    break
        if boundary < needed:
            obs.count("merge.tests_rejected")
            obs.count("merge.bound_short_circuits")
            return False
    network = VertexSplitNetwork(
        graph,
        side_a | side_b,
        virtual_sources={SIGMA: side_a, TAU: side_b},
    )
    obs.count("merge.flow_tests")
    verdict = network.max_flow(SIGMA, TAU, cutoff=k) >= k
    obs.count("merge.tests_accepted" if verdict else "merge.tests_rejected")
    return verdict


def merge_components(
    graph: Graph,
    k: int,
    components: list[set],
    condition: MergeCondition,
) -> list[set]:
    """Merge components pairwise until no pair satisfies ``condition``.

    Only pairs that touch (shared vertices or at least one crossing
    edge) are ever tested — disjoint far-apart subgraphs can never be
    k-connected together. The touch relation is computed **once**, in
    stable component-uid space, from an inverted vertex→component
    index: merging never adds graph edges, so
    ``touching(A ∪ B) = touching(A) ∪ touching(B)`` and a merge just
    unions the two sides' touch sets, with uids of absorbed components
    resolved through an absorbed-into map at query time. No vertex is
    ever rescanned after the initial pass. Pairs already rejected are
    skipped until one side changes (uid + version memo); the sequence
    of condition evaluations (and therefore the result) matches the
    naive all-pairs scan exactly.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    pool = [set(c) for c in components]

    # One vertex-level pass: touch[uid] = uids of every component that
    # shares a vertex with uid's component or is adjacent to it. The
    # pass goes through per-vertex *reach* sets (owners of the closed
    # neighbourhood): components overlap heavily, so computing each
    # vertex's reach once and multi-unioning per component does far
    # less set work than rescanning every member's adjacency per
    # component — with an identical result.
    owner_map: dict = {}
    for uid, component in enumerate(pool):
        for v in component:
            owner_map.setdefault(v, set()).add(uid)
    neighbors = graph.neighbors
    get_owner = owner_map.get
    reach_map: dict = {}
    for v, owners in owner_map.items():
        found = set(owners)
        for w in neighbors(v):
            others = get_owner(w)
            if others is not None:
                found |= others
        reach_map[v] = found
    touch = [
        set().union(*map(reach_map.__getitem__, component))
        for component in pool
    ]

    # Component identity survives merges (the absorbing side keeps its
    # uid, bumping its version), so a rejected pair needs re-testing
    # only when one side's (uid, version) changed. ``absorbed_into``
    # maps a dead uid to its absorber; chasing it resolves any stale
    # uid in a touch set to the component that now owns its vertices.
    total = len(pool)
    uids = list(range(total))
    versions = [0] * total
    # uids are dense 0..total-1 and never grow, so the absorbed-into
    # map and the per-round position map are plain lists (indexing
    # beats dict probes in ``touching``, the hottest merge-driver loop).
    absorbed_into: list[int | None] = [None] * total
    # The active collector cannot change mid-call (it is installed
    # around the whole pipeline, thread-locally), so probe once whether
    # anything is recording instead of per condition test.
    plain = obs.get_collector().is_noop
    rejected: set[tuple] = set()
    merged_any = True
    round_no = 0
    while merged_any:
        merged_any = False
        round_no += 1
        obs.count("merge.rounds")
        with obs.start_span(
            "merge.round", round=round_no, pool=len(pool)
        ):
            sizes = [len(component) for component in pool]
            order = sorted(
                range(len(pool)), key=sizes.__getitem__, reverse=True
            )
            pool = [pool[p] for p in order]
            uids = [uids[p] for p in order]
            versions = [versions[p] for p in order]
            position_of: list = [None] * total
            for p, uid in enumerate(uids):
                position_of[uid] = p
            alive = [True] * len(pool)
            alive_count = len(pool)
            alive_before = 0  # alive positions strictly below i
            skipped_by_index = 0

            def touching(touched: set) -> set[int]:
                """Current alive positions of a uid-space touch set."""
                found: set[int] = set()
                found_add = found.add
                for uid in touched:
                    root = absorbed_into[uid]
                    if root is not None:
                        # Chase to the live absorber, compressing the
                        # path so the next query resolves in one hop.
                        parent = absorbed_into[root]
                        while parent is not None:
                            root = parent
                            parent = absorbed_into[root]
                        absorbed_into[uid] = root
                        uid = root
                    p = position_of[uid]
                    if p is not None and alive[p]:
                        found_add(p)
                return found

            for i in range(len(pool)):
                if not alive[i]:
                    continue
                current = pool[i]
                beyond = alive_count - alive_before - 1
                candidates = [
                    p for p in touching(touch[uids[i]]) if p > i
                ]
                heapq.heapify(candidates)
                queued = set(candidates)
                examined = 0
                last = i
                while candidates:
                    j = heapq.heappop(candidates)
                    if j <= last or not alive[j]:
                        continue
                    last = j
                    examined += 1
                    key = (uids[i], versions[i], uids[j], versions[j])
                    if key in rejected:
                        obs.count("merge.tests_memoized")
                        continue
                    other = pool[j]
                    if plain:
                        # Uninstrumented runs skip the span machinery
                        # (and its attribute-list allocations) — this
                        # is the innermost loop of the merge phase.
                        accepted = condition(graph, k, current, other)
                    else:
                        with obs.start_span(
                            "merge.test",
                            pair=[i, j],
                            sizes=[len(current), len(other)],
                        ):
                            accepted = condition(graph, k, current, other)
                            obs.set_span_attrs(accepted=accepted)
                    if not accepted:
                        rejected.add(key)
                        continue
                    current |= other
                    other_touch = touch[uids[j]]
                    touch[uids[i]] |= other_touch
                    absorbed_into[uids[j]] = uids[i]
                    alive[j] = False
                    alive_count -= 1
                    versions[i] += 1
                    merged_any = True
                    # The grown component may touch positions the old
                    # one did not; only positions past the scan pointer
                    # matter (earlier ones get retried next round, just
                    # as the naive scan would).
                    for p in touching(other_touch):
                        if p > last and alive[p] and p not in queued:
                            queued.add(p)
                            heapq.heappush(candidates, p)
                skipped_by_index += max(0, beyond - examined)
                alive_before += 1
            # One emission per round (the counter is a sum either way);
            # per-seed emission was a measurable slice of the driver.
            obs.count("merge.pairs_skipped_by_index", skipped_by_index)
            pool = [c for c, a in zip(pool, alive) if a]
            uids = [u for u, a in zip(uids, alive) if a]
            versions = [v for v, a in zip(versions, alive) if a]
    return pool
