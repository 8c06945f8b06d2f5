"""Tests for k-core decomposition, core numbers, and degeneracy ordering."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.graph import (
    Graph,
    clique_graph,
    core_numbers,
    degeneracy_ordering,
    k_core,
    random_gnm,
)
from tests.conftest import to_networkx


def degeneracy(graph: Graph) -> int:
    """The largest core number (0 for the empty graph)."""
    return max(core_numbers(graph).values(), default=0)


class TestKCore:
    def test_clique_survives(self):
        g = clique_graph(5)
        assert k_core(g, 4).vertex_set() == g.vertex_set()

    def test_pendant_pruned(self):
        g = clique_graph(4)
        g.add_edge(0, 99)
        core = k_core(g, 2)
        assert 99 not in core
        assert core.num_vertices == 4

    def test_cascading_prune(self):
        # A path hanging off a triangle peels entirely at k=2.
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        core = k_core(g, 2)
        assert core.vertex_set() == {0, 1, 2}

    def test_k_zero_identity(self):
        g = random_gnm(20, 40, seed=1)
        assert k_core(g, 0).vertex_set() == g.vertex_set()

    def test_negative_k_raises(self):
        with pytest.raises(ParameterError):
            k_core(Graph(), -1)

    def test_empty_result(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert k_core(g, 5).num_vertices == 0

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_matches_networkx(self, seed):
        g = random_gnm(30, 70, seed=seed)
        for k in (1, 2, 3, 4):
            ours = k_core(g, k).vertex_set()
            theirs = set(nx.k_core(to_networkx(g), k).nodes())
            assert ours == theirs


class TestCoreNumbers:
    def test_matches_networkx_random(self):
        for seed in range(5):
            g = random_gnm(40, 120, seed=seed)
            assert core_numbers(g) == nx.core_number(to_networkx(g))

    def test_empty(self):
        assert core_numbers(Graph()) == {}

    def test_clique(self):
        assert set(core_numbers(clique_graph(6)).values()) == {5}


class TestDegeneracy:
    def test_clique_degeneracy(self):
        assert degeneracy(clique_graph(7)) == 6

    def test_tree_degeneracy(self):
        g = Graph.from_edges([(0, 1), (0, 2), (2, 3)])
        assert degeneracy(g) == 1

    def test_empty(self):
        assert degeneracy(Graph()) == 0

    def test_ordering_covers_all_vertices(self):
        g = random_gnm(25, 60, seed=3)
        order = degeneracy_ordering(g)
        assert sorted(order) == sorted(g.vertices())

    def test_ordering_later_neighbor_bound(self):
        # Defining property: each vertex has at most `degeneracy` many
        # neighbours later in the ordering.
        g = random_gnm(30, 90, seed=4)
        d = degeneracy(g)
        order = degeneracy_ordering(g)
        position = {u: i for i, u in enumerate(order)}
        for u in g.vertices():
            later = [v for v in g.neighbors(u) if position[v] > position[u]]
            assert len(later) <= d
