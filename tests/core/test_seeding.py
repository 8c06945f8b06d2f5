"""Tests for LkVCS, kBFS, clique seeding, and QkVCS."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    clique_seeds,
    kbfs_seeds,
    lkvcs,
    lkvcs_seeds,
    qkvcs,
    seeding,
)
from repro.errors import ParameterError
from repro.flow import is_k_vertex_connected
from repro.graph import (
    Graph,
    circulant_graph,
    clique_graph,
    community_graph,
    k_core,
    planted_kvcc_graph,
    powerlaw_cluster_graph,
    random_gnm,
)


def _reference_external_boundary(graph, members):
    """The ring as a generator expression fills it, one vertex at a time."""
    ring = set()
    for u in members:
        ring.update(v for v in graph.neighbors(u) if v not in members)
    return ring


def _reference_grow_candidate(ball, k, members):
    """LkVCS growth as it was before incremental counts (the pick oracle).

    Every step rebuilds the frontier and rescores members and frontier
    with set intersections; the pick is the first maximum in the
    ring's iteration order.
    """
    members = set(members)
    for _ in range(4 * k + 8):
        internal_ok = len(members) > k and all(
            len(ball.neighbors(u) & members) >= k for u in members
        )
        if internal_ok:
            obs.count("seeding.lkvcs_verifications")
            if is_k_vertex_connected(ball.subgraph(members), k):
                return members
        frontier = _reference_external_boundary(ball, members)
        if not frontier:
            return None
        best = max(frontier, key=lambda u: len(ball.neighbors(u) & members))
        members.add(best)
    return None


def _tie_rich_graph(family, seed):
    """Small graphs whose growth frontiers often share the top count."""
    if family == "gnm":
        return random_gnm(26, 95, seed=seed)
    if family == "powerlaw":
        return powerlaw_cluster_graph(36, 4, 0.5, seed=seed)
    return community_graph(
        [12, 12],
        k=4,
        seed=seed,
        bridge_style="two_star",
        periphery_pairs=1,
    )


def _with_str_copy(graph):
    """The graph and a str-relabelled copy, whose sets iterate differently."""
    relabelled = Graph.from_edges((f"v{u}", f"v{v}") for u, v in graph.edges())
    return graph, relabelled


def _lkvcs_counts(collector):
    names = ("seeding.lkvcs_enumerations", "seeding.lkvcs_verifications")
    return [collector.counter(name) for name in names]


_FAMILIES = st.sampled_from(["gnm", "powerlaw", "community"])


class TestLkvcs:
    def test_finds_clique_seed(self):
        g = clique_graph(5)
        g.add_edge(0, 9)  # noise
        seed = lkvcs(g, 3, 1)
        assert seed is not None
        assert is_k_vertex_connected(g.subgraph(seed), 3)
        assert 1 in seed

    def test_low_degree_start_rejected(self):
        g = clique_graph(4)
        g.add_edge(0, 9)
        assert lkvcs(g, 3, 9) is None

    def test_no_kvcs_in_ball(self):
        g = circulant_graph(30, 1)  # plain cycle: nothing is 3-connected
        assert lkvcs(g, 3, 0) is None

    def test_alpha_caps_enumeration(self):
        g = clique_graph(12)
        with obs.collecting() as collector:
            lkvcs(g, 3, 0, alpha=5)
        assert collector.counter("seeding.lkvcs_enumerations") <= 5

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            lkvcs(clique_graph(5), 1, 0)
        with pytest.raises(ParameterError):
            lkvcs(clique_graph(5), 3, 0, alpha=0)

    def test_sweep_covers_clique_ring(self):
        g = community_graph([24], k=3, seed=1)
        seeds = lkvcs_seeds(g, 3)
        covered = set().union(*seeds)
        assert covered == g.vertex_set()
        for seed in seeds:
            assert is_k_vertex_connected(g.subgraph(seed), 3)

    def test_sweep_respects_initial_coverage(self):
        g = community_graph([20], k=3, seed=2)
        seeds = lkvcs_seeds(g, 3, covered=g.vertex_set())
        assert seeds == []


class TestLkvcsGrowthMatchesReference:
    """Incremental growth makes exactly the reference loop's picks."""

    @given(
        family=_FAMILIES,
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.sampled_from([3, 4, 5]),
    )
    @settings(max_examples=8, deadline=None)
    def test_every_start_matches_reference(self, family, seed, k):
        for graph in _with_str_copy(_tie_rich_graph(family, seed)):
            for start in graph.vertices():
                with obs.collecting() as collector:
                    got = lkvcs(graph, k, start)
                with obs.collecting() as reference, mock.patch.object(
                    seeding, "_grow_candidate", _reference_grow_candidate
                ):
                    want = lkvcs(graph, k, start)
                assert got == want, (start, k)
                assert _lkvcs_counts(collector) == _lkvcs_counts(reference)

    @given(
        family=_FAMILIES,
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=1, max_value=14),
    )
    @settings(max_examples=40, deadline=None)
    def test_external_boundary_iterates_in_reference_order(
        self, family, seed, size
    ):
        for graph in _with_str_copy(_tie_rich_graph(family, seed)):
            vertices = sorted(graph.vertices(), key=str)
            members = set(random.Random(seed).sample(vertices, size))
            assert list(graph.external_boundary(members)) == list(
                _reference_external_boundary(graph, members)
            )


class TestKbfsSeeds:
    def test_seeds_verified_k_connected(self):
        for seed_val in range(4):
            g = planted_kvcc_graph(2, 18, 3, seed=seed_val, bridge_width=2)
            for seed in kbfs_seeds(g, 3):
                assert is_k_vertex_connected(g.subgraph(seed), 3)

    def test_sparse_graph_no_seeds(self):
        g = circulant_graph(20, 1)
        assert kbfs_seeds(g, 3) == []

    def test_splits_loose_components(self):
        # Two communities joined by a thin bridge: even if kBFS lumps
        # them into one forest component, verification splits them.
        g = community_graph([14, 14], k=3, seed=5, bridge_width=2)
        for seed in kbfs_seeds(g, 3):
            assert is_k_vertex_connected(g.subgraph(seed), 3)


class TestCliqueSeeds:
    def test_finds_large_cliques(self):
        g = clique_graph(6)
        seeds = clique_seeds(g, 3)
        assert seeds == [set(range(6))]

    def test_none_below_threshold(self):
        g = circulant_graph(12, 1)  # max clique 2
        assert clique_seeds(g, 3) == []

    def test_clique_ring_fully_covered(self):
        g = circulant_graph(20, 4)  # every 5 consecutive = K5
        covered = set().union(*clique_seeds(g, 4))
        assert covered == g.vertex_set()


class TestQkvcs:
    def test_all_seeds_are_k_vcs(self):
        g = planted_kvcc_graph(
            3, 20, 3, seed=1, periphery_pairs=1, bridge_width=2
        )
        for seed in qkvcs(g, 3):
            assert is_k_vertex_connected(g.subgraph(seed), 3)

    def test_coverage_counters(self):
        g = community_graph([24, 24], k=3, seed=0)
        with obs.collecting() as collector:
            qkvcs(g, 3)
        assert collector.counter("seeding.clique_covered") > 0
        # every vertex is in a (k+1)-clique in a clique ring
        assert collector.counter("seeding.clique_covered") == g.num_vertices

    def test_no_duplicate_or_nested_seeds(self):
        g = community_graph([20], k=3, seed=3)
        seeds = qkvcs(g, 3)
        for i, a in enumerate(seeds):
            for j, b in enumerate(seeds):
                if i != j:
                    assert not a <= b

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            qkvcs(clique_graph(4), 1)

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=8, deadline=None)
    def test_random_graph_seeds_verified(self, seed_val):
        g = k_core(random_gnm(30, 110, seed=seed_val), 3)
        if g.num_vertices == 0:
            return
        for seed in qkvcs(g, 3):
            assert is_k_vertex_connected(g.subgraph(seed), 3)
