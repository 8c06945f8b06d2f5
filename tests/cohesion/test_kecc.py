"""Tests for edge cuts and k-ECC enumeration."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cohesion import find_edge_cut, k_edge_components
from repro.errors import ParameterError
from repro.graph import (
    Graph,
    clique_graph,
    community_graph,
    component_of,
    random_gnm,
)
from tests.conftest import to_networkx


class TestFindEdgeCut:
    def test_none_on_well_connected(self):
        assert find_edge_cut(clique_graph(6), 5) is None

    def test_cut_disconnects(self):
        g = community_graph([10, 10], k=3, seed=2, bridge_width=2)
        cut = find_edge_cut(g, 3)
        assert cut is not None and len(cut) < 3
        work = g.copy()
        for edge in cut:
            u, v = tuple(edge)
            work.remove_edge(u, v)
        anchor = next(iter(work.vertices()))
        assert component_of(work, anchor) != work.vertex_set()

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            find_edge_cut(Graph(), 0)


class TestKEdgeComponents:
    def test_planted_communities(self):
        g = community_graph([12, 14], k=3, seed=4, bridge_width=2)
        comps = k_edge_components(g, 3)
        assert sorted(map(len, comps), reverse=True) == [14, 12]

    @given(st.integers(min_value=0, max_value=600))
    @settings(max_examples=15, deadline=None)
    def test_matches_networkx(self, seed):
        # Oracle: nx.k_edge_subgraphs — the maximal k-edge-connected
        # *induced subgraph* notion of the paper's references [6][40]
        # (nx.k_edge_components is the weaker pairwise-in-G notion).
        g = random_gnm(16, 36, seed=seed)
        for k in (2, 3):
            ours = {frozenset(c) for c in k_edge_components(g, k)}
            theirs = {
                frozenset(c)
                for c in nx.k_edge_subgraphs(to_networkx(g), k)
                if len(c) > 1
            }
            assert ours == theirs, (seed, k)

    def test_kvcc_inside_kecc(self):
        # vertex connectivity implies edge connectivity: every k-VCC
        # is contained in some k-ECC
        from repro.core import vcce_td

        g = community_graph([12, 12], k=3, seed=9, bridge_width=2)
        eccs = k_edge_components(g, 3)
        for vcc in vcce_td(g, 3).components:
            assert any(vcc <= ecc for ecc in eccs)
