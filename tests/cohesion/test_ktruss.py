"""Tests for k-truss decomposition against the networkx oracle."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cohesion import k_truss
from repro.errors import ParameterError
from repro.graph import Graph, clique_graph, random_gnm
from tests.conftest import to_networkx


class TestKTruss:
    def test_clique_is_its_own_truss(self):
        g = clique_graph(6)
        assert k_truss(g, 6).vertex_set() == g.vertex_set()
        assert k_truss(g, 7).num_vertices == 0

    def test_triangle_free_graph_empty_at_3(self):
        g = Graph.from_edges((i, (i + 1) % 8) for i in range(8))
        assert k_truss(g, 3).num_vertices == 0

    def test_pendant_edges_peeled(self):
        g = clique_graph(5)
        g.add_edge(0, "pendant")
        truss = k_truss(g, 4)
        assert "pendant" not in truss
        assert truss.vertex_set() == set(range(5))

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            k_truss(Graph(), 1)

    @given(st.integers(min_value=0, max_value=800))
    @settings(max_examples=25, deadline=None)
    def test_matches_networkx(self, seed):
        g = random_gnm(18, 60, seed=seed)
        for k in (3, 4, 5):
            ours = k_truss(g, k)
            theirs = nx.k_truss(to_networkx(g), k)
            assert ours.vertex_set() == set(theirs.nodes()), (seed, k)
            assert ours.num_edges == theirs.number_of_edges(), (seed, k)
