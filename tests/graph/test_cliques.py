"""Tests for Bron–Kerbosch maximal clique enumeration."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.graph import (
    Graph,
    clique_graph,
    maximal_cliques_at_least,
    random_gnm,
)
from tests.conftest import to_networkx


def nx_maximal_cliques(graph: Graph) -> set[frozenset]:
    return {frozenset(c) for c in nx.find_cliques(to_networkx(graph))}


def clique_number(graph: Graph) -> int:
    """Size of the largest clique (0 for the empty graph)."""
    return max(map(len, maximal_cliques_at_least(graph, 1)), default=0)


class TestMaximalCliques:
    def test_single_clique(self):
        g = clique_graph(5)
        assert set(maximal_cliques_at_least(g, 1)) == {frozenset(range(5))}

    def test_triangle_plus_edge(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        cliques = set(maximal_cliques_at_least(g, 1))
        assert cliques == {frozenset({0, 1, 2}), frozenset({2, 3})}

    def test_empty_graph(self):
        assert list(maximal_cliques_at_least(Graph(), 1)) == []

    def test_isolated_vertices_are_trivial_cliques(self):
        g = Graph.from_edges([], vertices=[1, 2])
        found = set(maximal_cliques_at_least(g, 1))
        assert found == {frozenset({1}), frozenset({2})}

    def test_no_duplicates(self):
        g = random_gnm(25, 100, seed=11)
        found = list(maximal_cliques_at_least(g, 1))
        assert len(found) == len(set(found))

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_matches_networkx(self, seed):
        g = random_gnm(20, 60, seed=seed)
        found = set(maximal_cliques_at_least(g, 1))
        assert found == nx_maximal_cliques(g)


class TestSizeFiltered:
    def test_min_size_filter(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        assert set(maximal_cliques_at_least(g, 3)) == {frozenset({0, 1, 2})}

    def test_filter_matches_postfilter(self):
        for seed in range(5):
            g = random_gnm(22, 80, seed=seed)
            full = {c for c in nx_maximal_cliques(g) if len(c) >= 4}
            assert set(maximal_cliques_at_least(g, 4)) == full

    def test_invalid_min_size_raises(self):
        with pytest.raises(ParameterError):
            list(maximal_cliques_at_least(Graph(), 0))


class TestMaxCliqueSize:
    def test_known_sizes(self):
        assert clique_number(clique_graph(6)) == 6
        assert clique_number(Graph()) == 0
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert clique_number(g) == 2

    def test_matches_networkx(self):
        for seed in range(5):
            g = random_gnm(20, 70, seed=seed)
            expected = max(
                (len(c) for c in nx.find_cliques(to_networkx(g))), default=0
            )
            assert clique_number(g) == expected
