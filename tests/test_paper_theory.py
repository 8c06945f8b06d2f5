"""Empirical verification of the paper's lemmas and theorems.

Beyond testing the implementation, this module tests the *theory* the
implementation rests on, on randomized instances:

* Lemma 1 — local k-connectivity is transitive through a side-vertex;
* Lemma 3 — a vertex k-connected to an interior seed vertex is
  k-connected to the whole seed;
* Theorem 1 — the virtual-σ flow condition certifies joint expansion;
* Theorem 2 — unrestricted ME yields the unique maximal k-connected
  superset;
* Theorem 3 — the σ→τ flow condition certifies merging;
* Theorem 4's gap — the paper's clique-absorption conditions alone
  admit unsound instances (the distinct-representatives corner case),
  which is exactly why :func:`ring_expansion` runs the strengthened
  matching check. We construct the counterexample explicitly.

The Lemma 1 oracles — κ(u, v) with Definition 4's adjacency convention
and the side-vertex check — live here; ``tests/flow/test_connectivity.py``
checks them against networkx and known graphs.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expansion import SIGMA, multiple_expansion
from repro.core.merging import flow_based_merge_condition
from repro.errors import ParameterError
from repro.flow import VertexSplitNetwork, is_k_vertex_connected
from repro.graph import Graph, clique_graph, community_graph, random_gnm


def local_connectivity(graph: Graph, u, v) -> float:
    """κ(u, v, G): minimum vertices to remove to disconnect u from v.

    Returns ``math.inf`` for adjacent pairs (Definition 4: no vertex
    removal can separate an edge's endpoints).
    """
    if u == v:
        raise ParameterError("local connectivity needs two distinct vertices")
    if graph.has_edge(u, v):
        return math.inf
    return VertexSplitNetwork(graph).max_flow(u, v)


def is_side_vertex(graph: Graph, vertex, k: int) -> bool:
    """Whether ``vertex`` is a *side-vertex*: in no vertex cut of size < k.

    Side-vertices (Wen et al.) make local k-connectivity transitive
    (Lemma 1), which is what the virtual-vertex proofs of Theorems 1
    and 3 lean on. The check: ``vertex`` belongs to some cut of size
    < k iff there is a non-adjacent pair (a, b) avoiding it with
    κ(a, b) < k whose connectivity drops when ``vertex`` is removed
    (then ``vertex`` sits in one of their minimum cuts). O(n²) flows.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not graph.has_vertex(vertex):
        raise ParameterError(f"vertex {vertex!r} not in graph")
    others = [u for u in graph.vertices() if u != vertex]
    full = VertexSplitNetwork(graph)
    reduced = VertexSplitNetwork(graph.subgraph(set(others)))
    for i, a in enumerate(others):
        for b in others[i + 1:]:
            if graph.has_edge(a, b):
                continue
            kappa = full.max_flow(a, b, cutoff=k)
            if kappa >= k:
                continue
            if reduced.max_flow(a, b, cutoff=kappa) < kappa:
                return False
    return True


def connected_pairs_at_least(graph, k):
    """All vertex pairs (a, b) with κ(a, b) ≥ k (adjacency counts as ∞)."""
    pairs = []
    vertices = sorted(graph.vertices(), key=repr)
    for i, a in enumerate(vertices):
        for b in vertices[i + 1:]:
            if local_connectivity(graph, a, b) >= k:
                pairs.append((a, b))
    return pairs


class TestLemma1Transitivity:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=10, deadline=None)
    def test_transitivity_through_side_vertex(self, seed):
        k = 3
        graph = random_gnm(12, 30, seed=seed)
        side_vertices = [
            v for v in graph.vertices() if is_side_vertex(graph, v, k)
        ]
        for v in side_vertices[:3]:
            linked = [
                u
                for u in graph.vertices()
                if u != v and local_connectivity(graph, u, v) >= k
            ]
            for i, u in enumerate(linked):
                for w in linked[i + 1:]:
                    assert local_connectivity(graph, u, w) >= k, (
                        f"transitivity through side-vertex {v} failed "
                        f"for ({u}, {w})"
                    )


class TestLemma3InteriorVertex:
    def test_interior_seed_vertex_extends_to_whole_seed(self):
        # S = K6 plus an outside vertex u with 3 disjoint paths to an
        # interior vertex: u must be 3-connected to all of S.
        k = 3
        graph = clique_graph(6)
        graph.add_edge("u", 0)
        graph.add_edge("u", 1)
        graph.add_edge("u", 2)
        seed = set(range(6))
        interior = 5  # all its neighbours are inside S
        assert graph.neighbors(interior) <= seed
        assert local_connectivity(graph, "u", interior) >= k
        for v in seed:
            assert local_connectivity(graph, "u", v) >= k


class TestTheorem1VirtualVertexExpansion:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=10, deadline=None)
    def test_sigma_flow_certifies_joint_expansion(self, seed):
        k = 3
        graph = community_graph([14], k=k, seed=seed, periphery_pairs=1)
        members = set(range(12))  # the core
        candidates = graph.vertex_set() - members
        network = VertexSplitNetwork(
            graph, members | candidates, virtual_sources={SIGMA: members}
        )
        if all(
            network.max_flow(u, SIGMA, cutoff=k) >= k for u in candidates
        ):
            assert is_k_vertex_connected(
                graph.subgraph(members | candidates), k
            )


class TestTheorem2MaximalExpansion:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=6, deadline=None)
    def test_me_result_contains_every_valid_extension(self, seed):
        import itertools

        k = 3
        graph = random_gnm(13, 34, seed=seed)
        # find a K4 seed if one exists
        from repro.graph import maximal_cliques_at_least

        clique = next(iter(maximal_cliques_at_least(graph, k + 1)), None)
        if clique is None:
            return
        seed_set = set(clique)
        grown = multiple_expansion(graph, k, seed_set, hops=None)
        # brute-force: every k-connected superset of the seed must be
        # inside the ME result
        outside = sorted(graph.vertex_set() - seed_set, key=repr)
        for size in (1, 2):
            for extra in itertools.combinations(outside, size):
                candidate = seed_set | set(extra)
                if is_k_vertex_connected(graph.subgraph(candidate), k):
                    assert candidate <= grown, (
                        f"valid extension {extra} escapes ME"
                    )


class TestTheorem3FlowBasedMerging:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=12, deadline=None)
    def test_sigma_tau_flow_certifies_merge(self, seed):
        k = 3
        # random overlapping k-connected sides inside one dense graph
        graph = random_gnm(16, 70, seed=seed)
        vertices = sorted(graph.vertices())
        side_a = set(vertices[:10])
        side_b = set(vertices[6:])
        if not (
            is_k_vertex_connected(graph.subgraph(side_a), k)
            and is_k_vertex_connected(graph.subgraph(side_b), k)
        ):
            return
        if flow_based_merge_condition(
            graph, k, side_a, side_b
        ):
            assert is_k_vertex_connected(
                graph.subgraph(side_a | side_b), k
            )


class TestTheorem4Gap:
    def test_paper_conditions_admit_unsound_absorption(self):
        """The published Theorem 4 conditions alone are not sufficient.

        k=4, r=2: seed = K5; clique K = {u, a, b} (|K| = 3 = k+1-r ✓);
        anchors: u→{w1,w2}, a→{w1,w2}, b→{w3,w4}; |N_S(K)| = 4 ≥ k ✓.
        Both published conditions hold, yet u has only 3 disjoint paths
        into the seed: its own anchors are exhausted by a's anchors.
        """
        k = 4
        graph = clique_graph(5)  # seed {0..4}, w1..w4 = 0..3
        seed = set(range(5))
        for x, y in (
            ("u", "a"), ("u", "b"), ("a", "b"),  # the clique K
            ("u", 0), ("u", 1),
            ("a", 0), ("a", 1),
            ("b", 2), ("b", 3),
        ):
            graph.add_edge(x, y)
        clique = frozenset({"u", "a", "b"})
        anchors_union = set()
        for v in clique:
            anchors_union |= graph.neighbors(v) & seed
        # both published conditions hold…
        assert len(clique) >= k + 1 - 2
        assert len(anchors_union) >= k
        # …but the absorption would be unsound:
        assert not is_k_vertex_connected(graph.subgraph(seed | clique), k)
        # and the strengthened matching check correctly refuses it:
        from repro.core.expansion import _clique_absorbable

        assert not _clique_absorbable(graph, clique, seed, k)

    def test_matching_check_accepts_sound_instances(self):
        # same shape but with disjoint anchor sets: genuinely sound
        k = 4
        graph = clique_graph(7)  # bigger seed for distinct anchors
        seed = set(range(7))
        for x, y in (
            ("u", "a"), ("u", "b"), ("a", "b"),
            ("u", 0), ("u", 1),
            ("a", 2), ("a", 3),
            ("b", 4), ("b", 5),
        ):
            graph.add_edge(x, y)
        clique = frozenset({"u", "a", "b"})
        from repro.core.expansion import _clique_absorbable

        assert _clique_absorbable(graph, clique, seed, k)
        assert is_k_vertex_connected(
            graph.subgraph(seed | clique), k
        )


class TestAdjacencyConvention:
    def test_adjacent_pairs_infinitely_connected(self):
        g = Graph.from_edges([(0, 1)])
        assert local_connectivity(g, 0, 1) == math.inf
