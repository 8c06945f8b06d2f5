"""Tests for the exact top-down enumerator (ground truth oracle)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import vcce_td
from repro.errors import ParameterError
from repro.flow import is_k_vertex_connected
from repro.graph import (
    Graph,
    clique_graph,
    community_graph,
    nbm_trap_graph,
    overlapping_cliques_graph,
    planted_kvcc_graph,
    random_gnm,
    ue_trap_graph,
)


def brute_force_kvccs(graph: Graph, k: int) -> set[frozenset]:
    """All maximal k-vertex connected subsets by subset enumeration.

    Exponential: only for graphs with ~12 or fewer vertices.
    """
    vertices = sorted(graph.vertices(), key=repr)
    connected_sets = [
        frozenset(subset)
        for size in range(k + 1, len(vertices) + 1)
        for subset in itertools.combinations(vertices, size)
        if is_k_vertex_connected(graph.subgraph(subset), k)
    ]
    maximal = set()
    for cand in connected_sets:
        if not any(cand < other for other in connected_sets):
            maximal.add(cand)
    return maximal


class TestKnownStructures:
    def test_single_clique(self):
        result = vcce_td(clique_graph(6), 4)
        assert result.components == [frozenset(range(6))]

    def test_clique_too_small(self):
        assert vcce_td(clique_graph(4), 4).components == []

    def test_two_communities(self):
        g = community_graph([12, 14], k=3, seed=0, bridge_width=2)
        result = vcce_td(g, 3)
        assert set(result.components) == {
            frozenset(range(12)),
            frozenset(range(12, 26)),
        }

    def test_periphery_included(self):
        g = community_graph([20], k=3, seed=1, periphery_pairs=2)
        result = vcce_td(g, 3)
        assert result.components == [frozenset(range(20))]

    def test_nbm_trap_two_components(self):
        g = nbm_trap_graph(4, seed=0)
        result = vcce_td(g, 4)
        assert set(result.components) == {
            frozenset(range(12)),
            frozenset(range(12, 24)),
        }

    def test_ue_trap_single_component(self):
        g = ue_trap_graph(3, tail=4, seed=0)
        result = vcce_td(g, 3)
        assert result.components == [frozenset(g.vertex_set())]

    def test_overlapping_kvccs_share_vertices(self):
        # Chain of K6 cliques overlapping by 2 < k=3: each clique is its
        # own 3-VCC and consecutive ones share two vertices.
        g = overlapping_cliques_graph(3, 6, overlap=2, seed=0)
        result = vcce_td(g, 3)
        assert result.num_components == 3
        first, second = result.components[0], result.components[1]
        assert len(set(result.components[0]) & set(result.components[1])) <= 2

    def test_empty_and_sparse(self):
        assert vcce_td(Graph(), 3).components == []
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert vcce_td(g, 2).components == []

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            vcce_td(clique_graph(3), 1)
        with pytest.raises(ParameterError):
            vcce_td(clique_graph(5), 3, upper=2)

    def test_upper_measures_each_component(self, paper_figure1_graph):
        assert vcce_td(paper_figure1_graph, 3).connectivity is None
        measured = vcce_td(paper_figure1_graph, 3, upper=9).connectivity
        assert measured[frozenset(range(10, 15))] == (4, None)  # K5
        bound, cut = measured[frozenset(range(1, 10))]
        assert bound == len(cut) == 3
        assert set(measured) == {frozenset(range(1, 10)), frozenset(range(10, 15))}

    def test_figure1_structure(self, paper_figure1_graph):
        g = paper_figure1_graph
        for k, expected in (
            (2, {frozenset(range(1, 16))}),
            (3, {frozenset(range(1, 10)), frozenset(range(10, 15))}),
            (4, {frozenset(range(10, 15))}),
        ):
            assert set(vcce_td(g, k).components) == expected, f"k={k}"


class TestExactnessProperties:
    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=10, deadline=None)
    def test_matches_brute_force(self, seed):
        g = random_gnm(10, 24, seed=seed)
        for k in (2, 3):
            ours = set(vcce_td(g, k).components)
            assert ours == brute_force_kvccs(g, k), f"k={k} seed={seed}"

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=10, deadline=None)
    def test_outputs_are_kvccs(self, seed):
        g = planted_kvcc_graph(
            2, 16, 3, seed=seed, periphery_pairs=1, bridge_width=2,
            noise_vertices=4,
        )
        result = vcce_td(g, 3)
        for comp in result.components:
            assert is_k_vertex_connected(g.subgraph(comp), 3)
        # pairwise non-nested
        for a in result.components:
            for b in result.components:
                if a is not b:
                    assert not a < b
