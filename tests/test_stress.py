"""Stress tests: the pipelines at several times benchmark scale.

These push beyond the registry's toy datasets to catch problems that
only show at size — recursion limits, quadratic blowups, memory
churn — while staying under a minute in total.
"""

import time

import pytest

from repro import obs
from repro.core import ripple, vcce_hybrid
from repro.flow import is_k_vertex_connected
from repro.graph import (
    community_graph,
    planted_kvcc_graph,
    powerlaw_cluster_graph,
)
from repro.graph.kcore import k_core


@pytest.mark.slow
class TestLargePlanted:
    def test_ripple_on_1200_vertices(self):
        k = 4
        graph = planted_kvcc_graph(
            8, 150, k, seed=5, periphery_pairs=3, bridge_width=2,
            noise_vertices=60,
        )
        assert graph.num_vertices == 1260
        start = time.perf_counter()
        result = ripple(graph, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"RIPPLE took {elapsed:.1f}s"
        assert result.num_components == 8
        assert len(result.covered_vertices()) == 8 * 150
        # spot-check soundness on the largest component
        biggest = result.components[0]
        assert is_k_vertex_connected(graph.subgraph(biggest), k)

    def test_hybrid_on_wide_graph(self):
        k = 3
        graph = community_graph(
            [120] * 6, k=k, seed=11, bridge_width=2
        )
        start = time.perf_counter()
        with obs.collecting() as collector:
            result = vcce_hybrid(graph, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"hybrid took {elapsed:.1f}s"
        assert result.num_components == 6
        assert collector.counter("vcce_td.certifications_skipped") == 6

    def test_powerlaw_2000_vertices(self):
        k = 4
        graph = powerlaw_cluster_graph(
            2000, attach=4, triangle_prob=0.6, seed=13
        )
        start = time.perf_counter()
        result = ripple(graph, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 45, f"RIPPLE took {elapsed:.1f}s"
        core = k_core(graph, k)
        assert result.covered_vertices() <= core.vertex_set()
        for comp in result.components[:2]:
            assert is_k_vertex_connected(graph.subgraph(comp), k)

    def test_deep_ring_no_recursion_issues(self):
        # one enormous clique ring: RME must walk ~1500 absorptions
        # without hitting any recursion limit (promote_neighbours is
        # iterative by design)
        k = 3
        graph = community_graph([1500], k=k, seed=17)
        result = ripple(graph, k)
        assert result.components == [frozenset(range(1500))]
