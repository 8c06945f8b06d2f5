"""Tests for NBM (baseline) and FBM (flow-based) merging."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    flow_based_merge_condition,
    merge_components,
    neighbor_based_merge_condition,
)
from repro.errors import ParameterError
from repro.flow import is_k_vertex_connected
from repro.graph import (
    Graph,
    clique_graph,
    community_graph,
    nbm_trap_graph,
    planted_kvcc_graph,
)


def figure3_like(k: int = 3) -> tuple[Graph, set, set]:
    """Two K5s joined by a two-star pattern: NBM fires, FBM refuses."""
    g = clique_graph(5, offset=0)
    right = clique_graph(5, offset=5)
    for u, v in right.edges():
        g.add_edge(u, v)
    # left centre 0 → k-1 right leaves; right centre 5 → k-1 left leaves.
    for i in range(k - 1):
        g.add_edge(0, 6 + i)
        g.add_edge(5, 1 + i)
    return g, set(range(5)), set(range(5, 10))


def k_merged_pair(k: int = 3) -> tuple[Graph, set, set]:
    """Two cliques sharing k vertices: union genuinely k-connected."""
    g = clique_graph(6, offset=0)
    extra = clique_graph(6, offset=3)  # shares {3, 4, 5}
    for u, v in extra.edges():
        g.add_edge(u, v)
    return g, set(range(6)), set(range(3, 9))


class TestNBM:
    def test_fires_on_true_merge(self):
        g, a, b = k_merged_pair(3)
        assert neighbor_based_merge_condition(g, 3, a, b)

    def test_overcounts_two_star(self):
        # The deliberate defect: NBM merges although connectivity is 2.
        g, a, b = figure3_like(3)
        assert neighbor_based_merge_condition(g, 3, a, b)
        assert not is_k_vertex_connected(g.subgraph(a | b), 3)

    def test_refuses_disjoint(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert not neighbor_based_merge_condition(g, 2, {0, 1}, {2, 3})


class TestFBM:
    def test_fires_on_true_merge(self):
        g, a, b = k_merged_pair(3)
        with obs.collecting() as collector:
            assert flow_based_merge_condition(g, 3, a, b)
        # The ≥ k overlap short-circuits before any flow is computed.
        assert collector.counter("merge.flow_tests") == 0

    def test_fires_via_flow_without_overlap(self):
        # Two K4s joined by 3 disjoint cross edges: union is 3-connected.
        g = clique_graph(4, offset=0)
        other = clique_graph(4, offset=4)
        for u, v in other.edges():
            g.add_edge(u, v)
        for i in range(3):
            g.add_edge(i, 4 + i)
        a, b = set(range(4)), set(range(4, 8))
        with obs.collecting() as collector:
            assert flow_based_merge_condition(g, 3, a, b)
        assert collector.counter("merge.flow_tests") == 1
        assert is_k_vertex_connected(g.subgraph(a | b), 3)

    def test_refuses_two_star(self):
        g, a, b = figure3_like(3)
        assert not flow_based_merge_condition(g, 3, a, b)

    def test_refuses_thin_bridge(self):
        g = community_graph([10, 10], k=3, seed=4, bridge_width=2)
        a, b = set(range(10)), set(range(10, 20))
        assert not flow_based_merge_condition(g, 3, a, b)

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=10, deadline=None)
    def test_fbm_merges_are_always_sound(self, seed):
        g = planted_kvcc_graph(2, 14, 3, seed=seed, bridge_width=2)
        a = set(range(14))
        b = set(range(14, 28))
        if flow_based_merge_condition(g, 3, a, b):
            assert is_k_vertex_connected(g.subgraph(a | b), 3)


class TestMergeComponents:
    def test_fixed_point_merges_chain(self):
        # Three cliques in a chain, consecutive ones share 3 vertices.
        g = Graph()
        for offset in (0, 3, 6):
            block = clique_graph(6, offset=offset)
            for u, v in block.edges():
                g.add_edge(u, v)
        pool = [set(range(6)), set(range(3, 9)), set(range(6, 12))]
        merged = merge_components(
            g, 3, pool, flow_based_merge_condition
        )
        assert merged == [set(range(12))]

    def test_no_merge_leaves_pool(self):
        g = community_graph([8, 8], k=3, seed=0, bridge_width=1)
        pool = [set(range(8)), set(range(8, 16))]
        merged = merge_components(g, 3, pool, flow_based_merge_condition)
        assert sorted(map(sorted, merged)) == [
            list(range(8)),
            list(range(8, 16)),
        ]

    def test_counts_merges(self):
        g, a, b = k_merged_pair(3)
        with obs.collecting() as collector:
            merge_components(g, 3, [a, b], flow_based_merge_condition)
        assert collector.counter("merge.tests_accepted") == 1

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            merge_components(Graph(), 0, [], flow_based_merge_condition)

    def test_nbm_wrongly_merges_trap(self):
        g = nbm_trap_graph(4, seed=0)
        left = set(range(12))
        right = set(range(12, 24))
        nbm_pool = merge_components(
            g, 4, [left, right], neighbor_based_merge_condition
        )
        fbm_pool = merge_components(
            g, 4, [left, right], flow_based_merge_condition
        )
        assert len(nbm_pool) == 1  # the defect
        assert len(fbm_pool) == 2  # the fix
