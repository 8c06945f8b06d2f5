"""Tests for the local k-VCC query."""

import pytest

from repro.core import kvcc_containing, vcce_td
from repro.core.seeding import lkvcs
from repro.errors import ParameterError
from repro.flow import is_k_vertex_connected
from repro.graph import (
    clique_graph,
    community_graph,
    planted_kvcc_graph,
)


class TestQuery:
    def test_finds_local_community(self):
        g = community_graph([20, 24], k=3, seed=3, bridge_width=2)
        comp = kvcc_containing(g, 5, 3)
        assert comp == frozenset(range(20))

    def test_matches_exact_component(self):
        g = planted_kvcc_graph(
            3, 20, 3, seed=7, bridge_width=2, noise_vertices=6
        )
        exact = vcce_td(g, 3)
        for probe in (0, 25, 45):
            comp = kvcc_containing(g, probe, 3)
            assert comp in set(exact.components)
            assert probe in comp

    def test_pruned_vertex_returns_none(self):
        g = clique_graph(5)
        g.add_edge(0, "pendant")
        assert kvcc_containing(g, "pendant", 3) is None

    def test_result_is_valid_kvcc(self):
        from repro.core.verify import verify_component

        g = community_graph([26], k=3, seed=9, periphery_pairs=2)
        comp = kvcc_containing(g, 0, 3)
        report = verify_component(g, comp, 3)
        assert report.is_valid_kvcc

    def test_exact_fallback_on_seedless_regions(self):
        # circulant ring: no local seed exists, only the whole ring
        g = community_graph([30], k=4, seed=2, style="circulant")
        assert lkvcs(g, 4, 0) is None
        assert kvcc_containing(g, 0, 4) == frozenset(range(30))

    def test_validation(self):
        with pytest.raises(ParameterError):
            kvcc_containing(clique_graph(4), 0, 1)
        with pytest.raises(ParameterError):
            kvcc_containing(clique_graph(4), 99, 3)

    def test_result_k_connected_on_random(self):
        from repro.graph import random_gnm

        for seed in range(5):
            g = random_gnm(24, 90, seed=seed)
            for probe in list(g.vertices())[:4]:
                comp = kvcc_containing(g, probe, 3)
                if comp is not None:
                    assert is_k_vertex_connected(g.subgraph(comp), 3)
