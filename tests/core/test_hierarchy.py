"""Tests for the k-VCC hierarchy (Figure 1's all-k decomposition)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import kvcc_hierarchy, max_kvcc_level, membership_levels, vcce_td
from repro.datasets import DATASETS
from repro.graph import (
    Graph,
    clique_graph,
    community_graph,
    connected_components,
    random_gnm,
)


def reference_hierarchy(graph):
    """Level by level: a fresh VCCE-TD run inside every parent."""
    levels = {}
    current = {frozenset(c) for c in connected_components(graph) if len(c) > 1}
    k = 1
    while current:
        levels[k] = current
        k += 1
        current = {
            child
            for parent in current
            for child in vcce_td(graph.subgraph(parent), k).components
        }
    return levels


def as_sets(levels):
    return {k: set(components) for k, components in levels.items()}


class TestHierarchy:
    def test_clique_levels(self):
        levels = kvcc_hierarchy(clique_graph(5))
        assert sorted(levels) == [1, 2, 3, 4]
        for k in levels:
            assert levels[k] == [frozenset(range(5))]

    def test_figure1_graph(self, paper_figure1_graph):
        g = paper_figure1_graph
        levels = kvcc_hierarchy(g)
        assert levels[1] == [frozenset(g.vertex_set())]
        assert levels[2] == [frozenset(range(1, 16))]
        assert set(levels[3]) == {
            frozenset(range(1, 10)),
            frozenset(range(10, 15)),
        }
        assert levels[4] == [frozenset(range(10, 15))]
        assert 5 not in levels

    def test_matches_direct_td_per_level(self):
        g = community_graph([14, 16], k=3, seed=6, bridge_width=2)
        levels = kvcc_hierarchy(g)
        for k in range(2, max(levels) + 1):
            assert set(levels.get(k, [])) == set(vcce_td(g, k).components), k

    def test_nesting_invariant(self):
        g = random_gnm(24, 80, seed=4)
        levels = kvcc_hierarchy(g)
        for k in sorted(levels)[1:]:
            for child in levels[k]:
                assert any(child <= parent for parent in levels[k - 1])

    def test_empty_and_edgeless(self):
        assert kvcc_hierarchy(Graph()) == {}
        assert kvcc_hierarchy(Graph.from_edges([], vertices=[1, 2])) == {}

    def test_figure1_k5_is_carried_from_level_3_to_4(self, paper_figure1_graph):
        with obs.collecting() as collector:
            levels = kvcc_hierarchy(paper_figure1_graph)
        assert frozenset(range(10, 15)) in levels[3]
        assert levels[4] == [frozenset(range(10, 15))]
        assert collector.counters["hierarchy.carried"] == 1


class TestMatchesLevelByLevelReference:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    @pytest.mark.parametrize("level", [None, 2, 3])
    def test_registry_dataset(self, name, level):
        """``None``: every level against the level-by-level reference.
        A number: that level against VCCE-TD on the whole graph, an
        oracle that does not recurse into the level below."""
        graph = DATASETS[name].graph()
        levels = kvcc_hierarchy(graph)
        if level is None:
            assert as_sets(levels) == reference_hierarchy(graph)
        else:
            expected = set(vcce_td(graph, level).components)
            assert set(levels.get(level, [])) == expected

    @given(
        n=st.integers(min_value=1, max_value=25),
        p=st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.7, 0.9]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_gnp(self, n, p, seed):
        rng = random.Random(seed)
        graph = Graph.from_edges(
            ((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p),
            vertices=range(n),
        )
        assert as_sets(kvcc_hierarchy(graph)) == reference_hierarchy(graph)


class TestDerivedQueries:
    def test_max_level(self):
        assert max_kvcc_level(clique_graph(5)) == 4
        assert max_kvcc_level(Graph()) == 0

    def test_max_level_clique(self):
        assert max_kvcc_level(clique_graph(6)) == 5

    def test_max_level_community(self):
        g = community_graph([14], k=3, seed=0)
        # clique-ring of width 3 has connectivity 6
        assert max_kvcc_level(g) == 6

    def test_membership_levels(self, paper_figure1_graph):
        depth = membership_levels(paper_figure1_graph)
        assert depth[16] == 1   # the pendant vertex
        assert depth[15] == 2   # the connector
        assert depth[1] == 3    # in the 9-vertex 3-VCC
        assert depth[10] == 4   # in the K5
