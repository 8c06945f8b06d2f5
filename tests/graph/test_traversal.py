"""Tests for BFS/DFS traversal and connected components."""

import pytest

from repro.errors import GraphError
from repro.graph import (
    Graph,
    bfs_order,
    component_of,
    connected_components,
    is_connected,
    k_bfs_forests,
)


def path_graph(n: int) -> Graph:
    return Graph.from_edges((i, i + 1) for i in range(n - 1))


class TestBfs:
    def test_order_starts_at_source(self):
        order = bfs_order(path_graph(5), 2)
        assert order[0] == 2
        assert set(order) == {0, 1, 2, 3, 4}

    def test_order_respects_levels(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        order = bfs_order(g, 0)
        assert order.index(3) > order.index(1)
        assert order.index(3) > order.index(2)

    def test_missing_source_raises(self):
        with pytest.raises(GraphError):
            bfs_order(path_graph(3), 99)

    def test_tree_edges_span(self):
        # The first BFS forest of a connected graph is one spanning tree.
        (tree,) = k_bfs_forests(path_graph(4), 1)
        assert len(tree) == 3

    def test_tree_edges_forbidden(self):
        # The second round's BFS may use only the edge the first left.
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        first, second = k_bfs_forests(g, 2)
        assert {v for e in first for v in e} == {0, 1, 2}
        used = {frozenset(e) for e in first}
        left = {frozenset(e) for e in g.edges()} - used
        assert {frozenset(e) for e in second} == left


class TestComponents:
    def test_single_component(self):
        comps = connected_components(path_graph(4))
        assert comps == [{0, 1, 2, 3}]

    def test_multiple_components(self):
        g = Graph.from_edges([(0, 1), (2, 3)], vertices=[9])
        comps = connected_components(g)
        assert sorted(map(sorted, comps)) == [[0, 1], [2, 3], [9]]

    def test_is_connected(self):
        assert is_connected(path_graph(5))
        assert not is_connected(Graph.from_edges([(0, 1), (2, 3)]))
        assert is_connected(Graph())  # convention: empty graph connected

    def test_component_of(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert component_of(g, 0) == {0, 1}
        assert component_of(g, 3) == {2, 3}
