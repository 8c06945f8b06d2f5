"""Property tests for the CSR graph the SNAP loader streams through.

``CsrGraph.from_edge_stream`` followed by ``to_graph()`` must be the
identity on the edge-covered part of a graph, whatever the order and
orientation of the stream; it orders labels deterministically, and it
drops self-loops and duplicate edges with counters while keeping a
self-loop-only vertex as an isolated vertex.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.graph import Graph, random_gnm
from repro.graph.csr import CsrGraph


def _random_graph(seed: int) -> Graph:
    # An edge stream cannot declare isolated vertices, so keep only
    # the edge-covered part of the graph.
    return Graph.from_edges(random_gnm(25, 60, seed=seed).edges())


class TestRoundTrip:
    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_dict_csr_dict_identity(self, seed):
        graph = _random_graph(seed)
        back = CsrGraph.from_edge_stream(graph.edges()).to_graph()
        assert back == graph
        assert back.num_edges == graph.num_edges

    def test_rows_are_sorted_and_symmetric(self):
        csr = CsrGraph.from_edge_stream(_random_graph(7).edges())
        rows = [
            list(csr.indices[csr.indptr[i] : csr.indptr[i + 1]])
            for i in range(csr.n)
        ]
        for i, row in enumerate(rows):
            assert row == sorted(row)
            assert i not in row
            for j in row:
                assert i in rows[j]

    def test_string_labels_round_trip(self):
        graph = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        back = CsrGraph.from_edge_stream(graph.edges()).to_graph()
        assert back == graph
        assert list(back.vertices()) == ["a", "b", "c"]

    def test_mixed_labels_fall_back_to_repr_order(self):
        graph = Graph.from_edges([(1, "x"), ("x", 2)])
        back = CsrGraph.from_edge_stream(graph.edges()).to_graph()
        assert back == graph
        assert list(back.vertices()) == sorted(graph.vertices(), key=repr)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_stream_build_equals_graph_build(self, seed):
        # Every edge twice, once per orientation, in shuffled order.
        graph = _random_graph(seed)
        stream = [*graph.edges(), *((v, u) for u, v in graph.edges())]
        random.Random(seed).shuffle(stream)
        assert CsrGraph.from_edge_stream(stream).to_graph() == graph


class TestEdgeQueries:
    def test_empty_graph(self):
        csr = CsrGraph.from_edge_stream([])
        assert csr.n == 0
        assert csr.num_edges == 0
        assert csr.to_graph() == Graph()


class TestStreamHygiene:
    def test_self_loops_and_duplicates_dropped_with_counters(self):
        edges = [(0, 1), (1, 0), (1, 1), (1, 2), (0, 1), (2, 2)]
        with obs.collecting() as collector:
            csr = CsrGraph.from_edge_stream(edges)
        assert csr.num_edges == 2
        assert csr.to_graph() == Graph.from_edges([(0, 1), (1, 2)])
        assert collector.counter("graph.csr.stream_selfloops_dropped") == 2
        assert collector.counter("graph.csr.stream_duplicates_dropped") == 2

    def test_self_loop_vertex_survives_as_isolated(self):
        graph = CsrGraph.from_edge_stream([(0, 1), (5, 5)]).to_graph()
        assert 5 in graph
        assert graph.degree(5) == 0


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
