"""Tests for UE, ME, and RME expansion strategies."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.expansion as expansion
from repro import obs
from repro.core import (
    multiple_expansion,
    ring_expansion,
    unitary_expansion,
)
from repro.errors import ParameterError
from repro.flow import is_k_vertex_connected
from repro.graph import (
    Graph,
    circulant_graph,
    clique_graph,
    community_graph,
    maximal_cliques_at_least,
    overlapping_cliques_graph,
    planted_kvcc_graph,
    random_gnm,
    ue_trap_graph,
)


def figure2_graph() -> tuple[Graph, set]:
    """The paper's Figure 2 instance: seed K5-ish core, two support pairs.

    Returns (graph, seed). With k=3: v6, v7 each have 2 anchors in the
    seed plus each other; v8, v9 likewise once {v6, v7} joined.
    """
    g = clique_graph(5, offset=1)  # seed {1..5}
    g.add_edge(6, 1)
    g.add_edge(6, 2)
    g.add_edge(7, 4)
    g.add_edge(7, 5)
    g.add_edge(6, 7)
    g.add_edge(8, 6)
    g.add_edge(8, 2)
    g.add_edge(9, 7)
    g.add_edge(9, 3)
    g.add_edge(8, 9)
    return g, {1, 2, 3, 4, 5}


class TestUnitaryExpansion:
    def test_absorbs_high_degree_vertex(self):
        g = clique_graph(4)
        g.add_edge(9, 0)
        g.add_edge(9, 1)
        g.add_edge(9, 2)
        assert unitary_expansion(g, 3, {0, 1, 2, 3}) == {0, 1, 2, 3, 9}

    def test_cascades(self):
        g = clique_graph(4)
        for new, anchors in ((4, (0, 1, 2)), (5, (4, 1, 2))):
            for a in anchors:
                g.add_edge(new, a)
        assert unitary_expansion(g, 3, {0, 1, 2, 3}) == set(range(6))

    def test_stalls_on_figure2(self):
        g, seed = figure2_graph()
        assert unitary_expansion(g, 3, seed) == seed

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            unitary_expansion(clique_graph(3), 1, {0, 1})

    def test_counts_checks(self):
        g = clique_graph(4)
        g.add_edge(9, 0)
        g.add_edge(9, 1)
        g.add_edge(9, 2)
        with obs.collecting() as collector:
            unitary_expansion(g, 3, {0, 1, 2, 3})
        assert collector.counter("expansion.ue.checks") >= 1


class TestMultipleExpansion:
    def test_absorbs_figure2_pairs(self):
        g, seed = figure2_graph()
        grown = multiple_expansion(g, 3, seed, hops=None)
        assert grown == set(range(1, 10))

    def test_one_hop_needs_iterations(self):
        # With hops=1 the second pair is reached after the first joins.
        g, seed = figure2_graph()
        grown = multiple_expansion(g, 3, seed, hops=1)
        assert grown == set(range(1, 10))

    def test_result_is_k_connected(self):
        for seed_val in range(4):
            g = planted_kvcc_graph(2, 20, 3, seed=seed_val, bridge_width=2)
            grown = multiple_expansion(g, 3, set(range(6)), hops=1)
            assert is_k_vertex_connected(g.subgraph(grown), 3)

    def test_does_not_cross_thin_bridge(self):
        g = community_graph([16, 16], k=3, seed=1, bridge_width=2)
        grown = multiple_expansion(g, 3, set(range(8)), hops=None)
        assert grown == set(range(16))

    def test_exactness_matches_unrestricted(self):
        # Theorem 2: with hops=None, ME yields the unique maximal set.
        g = ue_trap_graph(3, tail=3, seed=2)
        core = set(range(6))
        grown = multiple_expansion(g, 3, core, hops=None)
        assert grown == g.vertex_set()

    def test_flow_counter(self):
        g, seed = figure2_graph()
        with obs.collecting() as collector:
            multiple_expansion(g, 3, seed, hops=1)
        assert collector.counter("expansion.me.flow_tests") > 0

    def test_invalid_hops(self):
        with pytest.raises(ParameterError):
            multiple_expansion(clique_graph(5), 3, {0, 1, 2, 3}, hops=0)

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            multiple_expansion(clique_graph(5), 0, {0, 1, 2})


class TestRingExpansion:
    def test_absorbs_figure2_pairs(self):
        g, seed = figure2_graph()
        assert ring_expansion(g, 3, seed) == set(range(1, 10))

    def test_walks_around_clique_ring(self):
        g = circulant_graph(30, 3)  # clique ring for k=3
        seed = set(range(7))
        assert ring_expansion(g, 3, seed) == g.vertex_set()

    def test_absorbs_ue_trap_tail(self):
        g = ue_trap_graph(3, tail=5, seed=1)
        grown = ring_expansion(g, 3, set(range(6)))
        assert grown == g.vertex_set()

    def test_misses_mixed_bucket_chain_that_me_absorbs(self):
        # u and t sit in C_2 but are not adjacent; v links them from C_1.
        # The trio is jointly 3-connected with the seed (ME absorbs it),
        # but RME's same-bucket clique rule cannot see it — the known
        # accuracy gap between RIPPLE and RIPPLE-ME (Table IV).
        g = clique_graph(5)
        for edge in (
            ("u", 0), ("u", 1), ("u", "v"),
            ("v", 2), ("v", "t"),
            ("t", 3), ("t", 4),
        ):
            g.add_edge(*edge)
        seed = set(range(5))
        assert ring_expansion(g, 3, seed) == seed
        grown = multiple_expansion(g, 3, seed, hops=None)
        assert grown == seed | {"u", "v", "t"}

    def test_result_always_k_connected(self):
        for seed_val in range(5):
            g = planted_kvcc_graph(
                2, 24, 4, seed=seed_val, periphery_pairs=2, bridge_width=2
            )
            grown = ring_expansion(g, 4, set(range(9)))
            assert is_k_vertex_connected(g.subgraph(grown), 4)

    def test_does_not_cross_two_star_bridge(self):
        g = community_graph(
            [12, 12], k=4, seed=3, bridge_style="two_star"
        )
        grown = ring_expansion(g, 4, set(range(5)))
        assert grown == set(range(12))

    def test_counters(self):
        g, seed = figure2_graph()
        with obs.collecting() as collector:
            ring_expansion(g, 3, seed)
        assert collector.counter("expansion.rme.cliques_absorbed") >= 1


#: Inputs of the bucket-prune differential, built at (k, seed).
PRUNE_INPUTS = {
    "gnm": lambda k, s: random_gnm(24, 90, seed=s),
    "planted": lambda k, s: planted_kvcc_graph(
        2, 24, k, seed=s, periphery_pairs=2, bridge_width=2
    ),
    "two_star": lambda k, s: community_graph(
        [14, 14], k=k, seed=s, bridge_style="two_star", periphery_pairs=2
    ),
    "ue_trap": lambda k, s: ue_trap_graph(k, tail=4, seed=s),
    "overlap": lambda k, s: overlapping_cliques_graph(20, 8, 2, seed=s, noise_edges=20),
}


def _rme_outcome(graph: Graph, k: int, seed: set) -> tuple[set, dict]:
    """RME's grown set and its counters (absent counters read 0)."""
    with obs.collecting() as collector:
        grown = ring_expansion(graph, k, seed)
    return grown, collections.Counter(collector.counters)


def _clique_with_ring(size: int, anchors: dict, *edges: tuple) -> Graph:
    """K_size on 0..size-1, each ring vertex joined to its anchors, and edges."""
    g = clique_graph(size)
    for u, targets in anchors.items():
        for w in targets:
            g.add_edge(u, w)
    for u, v in edges:
        g.add_edge(u, v)
    return g


class TestBucketPrune:
    """A ring bucket whose components fail Theorem 4's anchor bound is
    skipped before Bron–Kerbosch runs, and the result never moves."""

    @given(
        name=st.sampled_from(sorted(PRUNE_INPUTS)),
        k=st.sampled_from([3, 4]),
        seed_val=st.integers(min_value=0, max_value=300),
        pick=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_result_as_searching_every_bucket(self, name, k, seed_val, pick):
        g = PRUNE_INPUTS[name](k, seed_val)
        cliques = maximal_cliques_at_least(g, k + 1)
        # An input without a (k+1)-clique grows from 0..2k-1 instead: in
        # ue_trap_graph, which never has one, that is its k-connected core.
        seed = set(cliques[pick % len(cliques)]) if cliques else set(range(2 * k))
        grown, counters = _rme_outcome(g, k, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(expansion, "_bucket_may_absorb", lambda *args: True)
            searched, searched_counters = _rme_outcome(g, k, seed)
        assert grown == searched
        checks = "expansion.rme.clique_checks"
        assert counters[checks] <= searched_counters[checks]
        del counters[checks], searched_counters[checks]
        assert counters == searched_counters

    def test_bucket_with_too_few_anchors_runs_no_search(self):
        g = overlapping_cliques_graph(30, 10, 2, seed=1, noise_edges=30)
        seed = set(range(8, 18))
        grown, counters = _rme_outcome(g, 4, seed)
        assert grown == seed
        # C_2 (16 vertices) holds two cliques of ≥ k+1-r = 3 vertices,
        # but none of its components has k anchors: no search runs.
        assert counters["expansion.rme.clique_checks"] == 0

    def test_both_bounds_admit_equality(self):
        # C_2 = {a, b}: exactly k+1-r = 2 vertices with exactly k = 3
        # anchors {0, 1, 2} between them, so the pair is absorbed.
        g = _clique_with_ring(4, {"a": (0, 1), "b": (1, 2)}, ("a", "b"))
        grown, counters = _rme_outcome(g, 3, set(range(4)))
        assert grown == {0, 1, 2, 3, "a", "b"}
        assert counters["expansion.rme.cliques_absorbed"] == 1
        # With b anchored on 0 instead, the pair has 2 anchors: no search.
        g = _clique_with_ring(4, {"a": (0, 1), "b": (1, 0)}, ("a", "b"))
        grown, counters = _rme_outcome(g, 3, set(range(4)))
        assert grown == set(range(4))
        assert counters["expansion.rme.clique_checks"] == 0

    def test_components_too_small_for_a_clique_run_no_search(self, monkeypatch):
        # C_2 = two disjoint pairs with k = 4 anchors each, but a clique
        # needs k+1-r = 3 vertices, so Bron–Kerbosch is never called.
        anchors = {"a": (0, 1), "b": (2, 3), "c": (1, 2), "d": (3, 4)}
        g = _clique_with_ring(5, anchors, ("a", "b"), ("c", "d"))
        searched = []
        search = expansion.maximal_cliques_at_least
        monkeypatch.setattr(
            expansion,
            "maximal_cliques_at_least",
            lambda *args: searched.append(args) or search(*args),
        )
        assert ring_expansion(g, 4, set(range(5))) == set(range(5))
        assert searched == []

    def test_anchors_absorbed_earlier_in_the_pass_count(self):
        # w joins from the top bucket and promotes x into C_2; the pair
        # {x, y} has k = 3 anchors only with w, and joins in that pass.
        anchors = {"w": (0, 1, 2), "x": (0, "w"), "y": (1, "w")}
        g = _clique_with_ring(4, anchors, ("x", "y"))
        grown, counters = _rme_outcome(g, 3, set(range(4)))
        assert grown == {0, 1, 2, 3, "w", "x", "y"}
        assert counters["expansion.rme.rounds"] == 2


class TestStrategyHierarchy:
    """UE ⊆ RME ⊆ ME(None) on any input, and all stay k-connected."""

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=10, deadline=None)
    def test_inclusion_chain(self, seed_val):
        g = planted_kvcc_graph(
            2, 18, 3, seed=seed_val, periphery_pairs=1, bridge_width=1
        )
        seed = set(range(6))
        ue = unitary_expansion(g, 3, seed)
        rme = ring_expansion(g, 3, seed)
        me = multiple_expansion(g, 3, seed, hops=None)
        assert seed <= ue <= me
        assert seed <= rme <= me
        for grown in (ue, rme, me):
            assert is_k_vertex_connected(g.subgraph(grown), 3)

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=10, deadline=None)
    def test_me_sound_on_random_graphs(self, seed_val):
        g = random_gnm(24, 90, seed=seed_val)
        # Grow from any (k+1)-clique seed found in the graph.
        seed = next(iter(maximal_cliques_at_least(g, 4)), None)
        if seed is None:
            return
        grown = multiple_expansion(g, 3, set(seed), hops=1)
        assert is_k_vertex_connected(g.subgraph(grown), 3)


class TestCornerCases:
    def test_expansion_of_whole_graph_is_identity(self):
        g = clique_graph(6)
        everything = g.vertex_set()
        assert unitary_expansion(g, 3, everything) == everything
        assert ring_expansion(g, 3, everything) == everything
        assert multiple_expansion(g, 3, everything, hops=None) == everything

    def test_isolated_seed_component(self):
        # seed in one component: expansion never leaks across components
        g = clique_graph(5)
        for u, v in clique_graph(5, offset=10).edges():
            g.add_edge(u, v)
        grown = multiple_expansion(g, 3, set(range(5)), hops=None)
        assert grown == set(range(5))

    def test_rme_clique_counts_consistent(self):
        g = ue_trap_graph(3, tail=3, seed=4)
        with obs.collecting() as collector:
            ring_expansion(g, 3, set(range(6)))
        absorbed = collector.counter("expansion.rme.cliques_absorbed")
        checks = collector.counter("expansion.rme.clique_checks")
        assert checks >= absorbed >= 1
