"""Tests for vertex-connectivity queries against networkx and brute force."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.flow import (
    VertexSplitNetwork,
    connectivity_search,
    find_vertex_cut,
    global_vertex_connectivity,
    is_k_vertex_connected,
)
from repro.graph import (
    Graph,
    circulant_graph,
    clique_graph,
    community_graph,
    component_of,
    random_gnm,
)
from tests.conftest import brute_force_is_k_connected, to_networkx
from tests.test_paper_theory import is_side_vertex, local_connectivity


def path_graph(n: int) -> Graph:
    return Graph.from_edges((i, i + 1) for i in range(n - 1))


class TestLocalConnectivity:
    def test_adjacent_is_infinite(self):
        assert local_connectivity(clique_graph(3), 0, 1) == math.inf

    def test_path_endpoints(self):
        assert local_connectivity(path_graph(4), 0, 3) == 1

    def test_same_vertex_raises(self):
        with pytest.raises(ParameterError):
            local_connectivity(clique_graph(3), 1, 1)

    def test_disconnected_pair(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert local_connectivity(g, 0, 3) == 0

    def test_at_least_variants(self):
        # κ(u, v) ≥ k as ME and FBM ask it: adjacency first, then a flow
        # cut off at k.
        g = circulant_graph(10, 2)  # 4-connected
        net = VertexSplitNetwork(g)
        assert net.max_flow(0, 5, cutoff=4) >= 4
        assert net.max_flow(0, 5, cutoff=5) < 5
        assert net.adjacent(0, 1)

    @given(st.integers(min_value=0, max_value=800))
    @settings(max_examples=20, deadline=None)
    def test_matches_networkx(self, seed):
        g = random_gnm(12, 25, seed=seed)
        nxg = to_networkx(g)
        pairs = [
            (u, v)
            for u in g.vertices()
            for v in g.vertices()
            if u < v and not g.has_edge(u, v)
        ][:5]
        for u, v in pairs:
            ours = local_connectivity(g, u, v)
            theirs = nx.connectivity.local_node_connectivity(nxg, u, v)
            assert ours == theirs


class TestFindVertexCut:
    def test_no_cut_in_clique(self):
        assert find_vertex_cut(clique_graph(5), 3) is None

    def test_low_degree_shortcut(self):
        g = clique_graph(5)
        g.add_edge(0, "pendant")
        cut = find_vertex_cut(g, 3)
        assert cut == {0}

    def test_cut_found_between_communities(self):
        g = community_graph([8, 8], k=3, seed=1, bridge_width=2)
        cut = find_vertex_cut(g, 3)
        assert cut is not None
        assert len(cut) < 3
        remaining = g.vertex_set() - cut
        sub = g.subgraph(remaining)
        anchor = next(iter(remaining))
        assert component_of(sub, anchor) != remaining

    def test_circulant_has_no_small_cut(self):
        g = circulant_graph(12, 2)  # 4-connected
        assert find_vertex_cut(g, 4) is None
        assert find_vertex_cut(g, 5) is not None

    def test_disconnected_input_raises(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(ParameterError):
            find_vertex_cut(g, 2)

    def test_invalid_k_raises(self):
        with pytest.raises(ParameterError):
            find_vertex_cut(clique_graph(3), 0)

    def test_single_vertex(self):
        g = Graph.from_edges([], vertices=[1])
        assert find_vertex_cut(g, 3) is None

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=15, deadline=None)
    def test_returned_cut_separates(self, seed):
        g = random_gnm(14, 30, seed=seed)
        comp = component_of(g, next(iter(g.vertices())))
        g = g.subgraph(comp)  # ensure connected input
        if g.num_vertices < 4:
            return
        cut = find_vertex_cut(g, 3)
        if cut is None:
            assert global_vertex_connectivity(g) >= min(
                3, g.num_vertices - 1
            )
        else:
            assert len(cut) < 3
            rest = g.vertex_set() - cut
            sub = g.subgraph(rest)
            anchor = next(iter(rest))
            assert component_of(sub, anchor) != rest


def disconnects(graph: Graph, cut: set) -> bool:
    rest = graph.vertex_set() - cut
    return component_of(graph.subgraph(rest), next(iter(rest))) != rest


class TestConnectivitySearch:
    """The bounded search against networkx's κ."""

    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        m=st.integers(min_value=12, max_value=70),
        k=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, seed, m, k, extra):
        g = random_gnm(14, m, seed=seed)
        g = g.subgraph(component_of(g, next(iter(g.vertices()))))
        if g.num_vertices < 2:
            return
        n, upper = g.num_vertices, k + extra
        kappa = nx.node_connectivity(to_networkx(g))
        cut, bound = connectivity_search(g, k, upper)
        if g.num_edges == n * (n - 1) // 2:  # complete: κ = n - 1, no cut
            assert (cut, bound) == (None, min(kappa, upper))
        elif kappa < k:
            assert cut is not None and len(cut) == bound < k
            assert disconnects(g, cut)
        else:
            assert bound == min(kappa, upper)
            assert (cut is None) == (bound == upper)
            if cut is not None:
                assert len(cut) == bound
                assert disconnects(g, cut)
        assert find_vertex_cut(g, k) == connectivity_search(g, k, k)[0]

    def test_lowers_the_threshold_below_min_degree(self):
        g = community_graph([8, 8], k=3, seed=1, bridge_width=2)
        cut, bound = connectivity_search(g, 2, g.num_vertices)
        assert bound == nx.node_connectivity(to_networkx(g)) == len(cut)
        assert bound < g.min_degree()
        assert disconnects(g, cut)

    def test_clique_and_invalid_bounds(self):
        assert connectivity_search(clique_graph(5), 2, 9) == (None, 4)
        assert connectivity_search(clique_graph(5), 2, 3) == (None, 3)
        with pytest.raises(ParameterError):
            connectivity_search(clique_graph(5), 3, 2)


class TestIsKVertexConnected:
    def test_clique(self):
        assert is_k_vertex_connected(clique_graph(5), 4)
        assert not is_k_vertex_connected(clique_graph(5), 5)

    def test_circulant_exact_threshold(self):
        g = circulant_graph(12, 2)
        assert is_k_vertex_connected(g, 4)
        assert not is_k_vertex_connected(g, 5)

    def test_too_few_vertices(self):
        assert not is_k_vertex_connected(clique_graph(3), 3)

    def test_disconnected(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4)])
        assert not is_k_vertex_connected(g, 1)

    def test_invalid_k_raises(self):
        with pytest.raises(ParameterError):
            is_k_vertex_connected(clique_graph(4), 0)

    def test_subset_variant(self):
        g = community_graph([10, 10], k=3, seed=2)
        assert is_k_vertex_connected(g.subgraph(set(range(10))), 3)
        assert not is_k_vertex_connected(g, 3)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force(self, seed):
        g = random_gnm(9, 16, seed=seed)
        for k in (1, 2, 3):
            assert is_k_vertex_connected(g, k) == brute_force_is_k_connected(
                g, k
            )


class TestGlobalConnectivity:
    def test_known_values(self):
        assert global_vertex_connectivity(clique_graph(6)) == 5
        assert global_vertex_connectivity(path_graph(5)) == 1
        assert global_vertex_connectivity(circulant_graph(10, 2)) == 4

    def test_disconnected_zero(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert global_vertex_connectivity(g) == 0

    def test_tiny_raises(self):
        with pytest.raises(ParameterError):
            global_vertex_connectivity(Graph.from_edges([], vertices=[1]))

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=15, deadline=None)
    def test_matches_networkx(self, seed):
        g = random_gnm(11, 22, seed=seed)
        ours = global_vertex_connectivity(g)
        theirs = nx.node_connectivity(to_networkx(g))
        assert ours == theirs


class TestSideVertex:
    def test_simplicial_vertices_are_side_vertices(self):
        # two K4s sharing an edge: the shared pair is the unique 2-cut
        g = clique_graph(4)
        for u, v in clique_graph(4, offset=2).edges():
            g.add_edge(u, v)
        # outer vertices (simplicial) are side-vertices at k=3
        for v in (0, 1, 4, 5):
            assert is_side_vertex(g, v, 3), v
        # shared vertices sit in the 2-cut {2, 3}
        for v in (2, 3):
            assert not is_side_vertex(g, v, 3), v

    def test_clique_members_always_side_vertices(self):
        g = clique_graph(5)
        for v in g.vertices():
            assert is_side_vertex(g, v, 3)

    def test_validation(self):
        with pytest.raises(ParameterError):
            is_side_vertex(clique_graph(3), 0, 0)
        with pytest.raises(ParameterError):
            is_side_vertex(clique_graph(3), 99, 2)


class TestDepositSweepEquivalence:
    """The sweep-optimised cut search agrees with brute-force checks."""

    @given(st.integers(min_value=0, max_value=600))
    @settings(max_examples=20, deadline=None)
    def test_cut_decision_matches_networkx(self, seed):
        g = random_gnm(13, 32, seed=seed)
        comp = component_of(g, next(iter(g.vertices())))
        g = g.subgraph(comp)
        if g.num_vertices < 5:
            return
        nxg = to_networkx(g)
        kappa = nx.node_connectivity(nxg)
        for k in (2, 3, 4):
            found = find_vertex_cut(g, k)
            if g.num_edges == g.num_vertices * (g.num_vertices - 1) // 2:
                assert found is None
            elif kappa >= k:
                assert found is None, (seed, k, found)
            else:
                assert found is not None and len(found) < k, (seed, k)
