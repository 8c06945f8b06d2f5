"""Tests for the Dinic max-flow engine."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.flow import Dinic


class TestBasics:
    def test_single_edge(self):
        d = Dinic(2)
        d.add_edge(0, 1, 5)
        assert d.max_flow(0, 1) == 5

    def test_no_path(self):
        d = Dinic(3)
        d.add_edge(0, 1, 1)
        assert d.max_flow(0, 2) == 0

    def test_series_bottleneck(self):
        d = Dinic(3)
        d.add_edge(0, 1, 7)
        d.add_edge(1, 2, 3)
        assert d.max_flow(0, 2) == 3

    def test_parallel_paths(self):
        d = Dinic(4)
        d.add_edge(0, 1, 2)
        d.add_edge(1, 3, 2)
        d.add_edge(0, 2, 3)
        d.add_edge(2, 3, 3)
        assert d.max_flow(0, 3) == 5

    def test_classic_cross_network(self):
        # The textbook network where a naive augmenting path must be
        # undone through the cross edge.
        d = Dinic(4)
        d.add_edge(0, 1, 1)
        d.add_edge(0, 2, 1)
        d.add_edge(1, 2, 1)
        d.add_edge(1, 3, 1)
        d.add_edge(2, 3, 1)
        assert d.max_flow(0, 3) == 2

    def test_same_source_sink_raises(self):
        with pytest.raises(ParameterError):
            Dinic(2).max_flow(1, 1)

    def test_bad_edge_raises(self):
        d = Dinic(2)
        with pytest.raises(ParameterError):
            d.add_edge(0, 5, 1)
        with pytest.raises(ParameterError):
            d.add_edge(0, 1, -2)

    def test_negative_size_raises(self):
        with pytest.raises(ParameterError):
            Dinic(-1)


class TestCutoff:
    def test_cutoff_truncates(self):
        d = Dinic(2)
        d.add_edge(0, 1, 100)
        assert d.max_flow(0, 1, cutoff=3) == 3

    def test_cutoff_above_max_returns_max(self):
        d = Dinic(3)
        d.add_edge(0, 1, 2)
        d.add_edge(1, 2, 2)
        assert d.max_flow(0, 2, cutoff=10) == 2


class TestMinCut:
    def test_cut_side_contains_source(self):
        d = Dinic(3)
        d.add_edge(0, 1, 1)
        d.add_edge(1, 2, 1)
        d.max_flow(0, 2)
        side = d.min_cut_side(0)
        assert 0 in side
        assert 2 not in side


def _random_flow_network(rng_seed: int, n: int = 10, m: int = 25):
    import random

    rng = random.Random(rng_seed)
    edges = []
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.randint(1, 9)))
    return n, edges


class TestAgainstNetworkx:
    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx_maxflow(self, seed):
        n, edges = _random_flow_network(seed)
        d = Dinic(n)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        for u, v, c in edges:
            d.add_edge(u, v, c)
            if nxg.has_edge(u, v):
                nxg[u][v]["capacity"] += c
            else:
                nxg.add_edge(u, v, capacity=c)
        expected = nx.maximum_flow_value(nxg, 0, n - 1)
        assert d.max_flow(0, n - 1) == expected
