"""Tests for vertex-split networks (Menger counting + virtual vertices)."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, ParameterError
from repro.flow import Dinic, VertexSplitNetwork
from repro.graph import (
    Graph,
    circulant_graph,
    clique_graph,
    community_graph,
    random_gnm,
)
from tests.conftest import to_networkx


def path_graph(n: int) -> Graph:
    return Graph.from_edges((i, i + 1) for i in range(n - 1))


class TestConstruction:
    def test_members_default_to_all(self):
        net = VertexSplitNetwork(clique_graph(4))
        assert net.size == 4

    def test_member_subset(self):
        g = clique_graph(6)
        net = VertexSplitNetwork(g, members={0, 1, 2})
        assert net.size == 3
        with pytest.raises(ParameterError):
            net.max_flow(0, 5)  # 5 is outside the members

    def test_missing_member_raises(self):
        with pytest.raises(GraphError):
            VertexSplitNetwork(clique_graph(3), members={0, 99})

    def test_virtual_collision_raises(self):
        g = clique_graph(3)
        with pytest.raises(ParameterError):
            VertexSplitNetwork(g, virtual_sources={0: [1]})

    def test_virtual_attach_outside_members_raises(self):
        g = clique_graph(4)
        with pytest.raises(ParameterError):
            VertexSplitNetwork(
                g, members={0, 1}, virtual_sources={"sigma": [3]}
            )


class TestFlowCounting:
    def test_path_has_one_disjoint_path(self):
        net = VertexSplitNetwork(path_graph(5))
        assert net.max_flow(0, 4) == 1

    def test_cycle_count(self):
        # In C6, opposite vertices have exactly 2 disjoint paths.
        g = Graph.from_edges((i, (i + 1) % 6) for i in range(6))
        net = VertexSplitNetwork(g)
        assert net.max_flow(0, 3) == 2

    def test_adjacent_pair_rejected(self):
        net = VertexSplitNetwork(clique_graph(5))
        with pytest.raises(ParameterError):
            net.max_flow(0, 4)

    def test_repeated_queries_are_reset(self):
        g = Graph.from_edges((i, (i + 1) % 6) for i in range(6))
        net = VertexSplitNetwork(g)
        first = net.max_flow(0, 3)
        second = net.max_flow(0, 3)
        assert first == second == 2

    def test_cutoff(self):
        g = Graph.from_edges((i, (i + 1) % 8) for i in range(8))
        net = VertexSplitNetwork(g)
        assert net.max_flow(0, 4, cutoff=1) == 1

    def test_subset_restricts_paths(self):
        g = Graph.from_edges((i, (i + 1) % 6) for i in range(6))
        net = VertexSplitNetwork(g, members={0, 1, 2, 3})
        assert net.max_flow(0, 3) == 1  # only the 0-1-2-3 side remains

    def test_same_endpoints_raise(self):
        net = VertexSplitNetwork(clique_graph(3))
        with pytest.raises(ParameterError):
            net.max_flow(1, 1)

    def test_unknown_endpoint_raises(self):
        net = VertexSplitNetwork(clique_graph(3))
        with pytest.raises(ParameterError):
            net.max_flow(0, "nope")

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_nonadjacent_flow_equals_networkx_connectivity(self, seed):
        g = random_gnm(14, 30, seed=seed)
        nxg = to_networkx(g)
        net = VertexSplitNetwork(g)
        pairs = [
            (u, v)
            for u in g.vertices()
            for v in g.vertices()
            if u < v and not g.has_edge(u, v)
        ][:6]
        for u, v in pairs:
            assert net.max_flow(u, v) == nx.connectivity.local_node_connectivity(
                nxg, u, v
            )


class TestVirtualVertices:
    def test_sigma_adjacent_to_seed(self):
        g = clique_graph(5)
        net = VertexSplitNetwork(
            g, members=g.vertex_set(), virtual_sources={"sigma": [0, 1, 2]}
        )
        assert net.size == 6
        assert net.adjacent("sigma", 0)
        assert not net.adjacent("sigma", 4)

    def test_flow_to_sigma_counts_disjoint_paths_into_seed(self):
        # Star-like: candidate u attaches to 3 members of a K4 seed.
        g = clique_graph(4)
        g.add_edge("u", 0)
        g.add_edge("u", 1)
        g.add_edge("u", 2)
        net = VertexSplitNetwork(
            g, virtual_sources={"sigma": [0, 1, 2, 3]}
        )
        assert net.max_flow("u", "sigma") == 3


class TestLocalConnectivityPredicate:
    """κ(u, v) ≥ k exactly when ``vertex_cut_if_below`` finds no cut."""

    def test_adjacent_always_true(self):
        net = VertexSplitNetwork(path_graph(3))
        assert net.vertex_cut_if_below(0, 1, 999) is None

    def test_threshold(self):
        net = VertexSplitNetwork(circulant_graph(10, 2))  # 4-connected
        assert net.vertex_cut_if_below(0, 5, 4) is None
        assert len(net.vertex_cut_if_below(0, 5, 5)) == 4

    def test_nonpositive_k_true(self):
        net = VertexSplitNetwork(path_graph(4))
        assert net.vertex_cut_if_below(0, 3, 0) is None


class TestVertexCuts:
    def test_min_cut_of_path(self):
        net = VertexSplitNetwork(path_graph(5))
        cut = net.vertex_cut_if_below(0, 4, net.size)
        assert len(cut) == 1
        assert cut < {1, 2, 3}

    def test_cut_if_below_none_when_connected_enough(self):
        net = VertexSplitNetwork(clique_graph(6))
        assert net.vertex_cut_if_below(0, 5, 3) is None

    def test_cut_if_below_finds_cut(self):
        g = community_graph([8, 8], k=3, seed=0, bridge_width=2)
        net = VertexSplitNetwork(g)
        source, sink = 0, 15
        cut = net.vertex_cut_if_below(source, sink, 3)
        assert cut is not None
        assert len(cut) < 3
        # Removing the cut really separates source from sink.
        rest = g.vertex_set() - cut
        assert source in rest and sink in rest
        sub = g.subgraph(rest)
        from repro.graph import component_of

        assert sink not in component_of(sub, source)

    def test_cut_separates_on_random_graphs(self):
        from repro.graph import component_of

        for seed in range(5):
            g = random_gnm(16, 26, seed=seed)
            net = VertexSplitNetwork(g)
            pairs = [
                (u, v)
                for u in g.vertices()
                for v in g.vertices()
                if u < v and not g.has_edge(u, v)
            ]
            for u, v in pairs[:4]:
                flow = net.max_flow(u, v)
                if flow == 0:
                    continue
                cut = net.vertex_cut_if_below(u, v, flow + 1)
                assert len(cut) == flow
                sub = g.subgraph(g.vertex_set() - cut)
                assert v not in component_of(sub, u)


class _SplitOracle:
    """The split network built explicitly as Dinic arcs.

    Label i gets ``i_in = 2i`` and ``i_out = 2i + 1`` with a unit
    internal arc; every adjacency (σ/τ attachments included) becomes an
    arc ``u_out → v_in`` of capacity 2n + 1, more than any flow, so
    minimum cuts cross only internal arcs.
    """

    def __init__(self, graph, members, virtuals):
        member_set = graph.vertex_set() if members is None else set(members)
        adjacent = {u: graph.neighbors(u) & member_set for u in member_set}
        for label, attached in virtuals.items():
            adjacent[label] = set(attached)
            for v in attached:
                adjacent[v] = adjacent[v] | {label}
        self.index = {u: i for i, u in enumerate(adjacent)}
        n = len(self.index)
        self.dinic = Dinic(2 * n)
        for i in range(n):
            self.dinic.add_edge(2 * i, 2 * i + 1, 1)
        for u, nbrs in adjacent.items():
            for v in nbrs:
                self.dinic.add_edge(
                    2 * self.index[u] + 1, 2 * self.index[v], 2 * n + 1
                )
        self.caps0 = list(self.dinic.cap)

    def max_flow(self, source, sink, cutoff):
        self.dinic.cap[:] = self.caps0
        return self.dinic.max_flow(
            2 * self.index[source] + 1, 2 * self.index[sink], cutoff=cutoff
        )

    def cut(self, source, sink, k):
        if self.max_flow(source, sink, k) >= k:
            return None
        side = self.dinic.min_cut_side(2 * self.index[source] + 1)
        return {
            label
            for label, i in self.index.items()
            if 2 * i in side and 2 * i + 1 not in side
        }


def _check_path_decomposition(net, source, sink, flow):
    """``saturated_arcs`` splits into ``flow`` vertex-disjoint paths."""
    outgoing: dict = {}
    for u, v in net.saturated_arcs():
        assert net.adjacent(u, v)
        outgoing.setdefault(u, []).append(v)
    assert len(outgoing.get(source, [])) == flow
    inner: set = set()
    for first in outgoing.get(source, []):
        current = first
        while current != sink:
            assert current not in inner and current != source
            inner.add(current)
            (current,) = outgoing[current]
    # Whatever is left is a circulation off every path.
    assert all(len(heads) == 1 for u, heads in outgoing.items() if u != source)


@st.composite
def _network_case(draw):
    # Sparse graphs of 6 or more vertices: augmenting paths that must
    # reroute earlier flow through the reverse arcs are long, and rare
    # in dense or tiny graphs (the tests above cover the tiny ones).
    n = draw(st.integers(min_value=6, max_value=18))
    vertex = st.integers(min_value=0, max_value=n - 1)
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v)
    edges = st.lists(st.tuples(vertex, vertex), min_size=n, max_size=2 * n)
    for u, v in draw(edges):
        if u != v:
            graph.add_edge(u, v)
    members = None
    if draw(st.booleans()):
        members = set(draw(st.lists(vertex, min_size=1, unique=True)))
    member_list = sorted(graph.vertex_set() if members is None else members)
    virtuals = {}
    for label in ("sigma", "tau")[: draw(st.integers(0, 2))]:
        # Overlapping attachments are the FBM case (shared vertices).
        attached = st.lists(st.sampled_from(member_list), unique=True)
        virtuals[label] = set(draw(attached))
    cutoff = draw(st.sampled_from([1, 2, 3, 4, 5, 6, float("inf")]))
    return graph, members, virtuals, cutoff


class TestAgainstSplitNetworkOracle:
    """Equal answers to an explicitly built split network under Dinic."""

    @given(_network_case())
    @settings(max_examples=120, deadline=None)
    def test_flows_cuts_and_paths_match(self, case):
        graph, members, virtuals, cutoff = case
        net = VertexSplitNetwork(graph, members, virtuals)
        oracle = _SplitOracle(graph, members, virtuals)
        k = net.size if cutoff == float("inf") else cutoff
        for source, sink in itertools.permutations(oracle.index, 2):
            if net.adjacent(source, sink):
                continue
            flow = net.max_flow(source, sink, cutoff)
            assert flow == oracle.max_flow(source, sink, cutoff)
            _check_path_decomposition(net, source, sink, flow)
            assert net.vertex_cut_if_below(source, sink, k) == oracle.cut(
                source, sink, k
            )
