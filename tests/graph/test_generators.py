"""Tests for the synthetic graph generators."""

import networkx as nx
import pytest

from repro.errors import ParameterError
from repro.flow import global_vertex_connectivity, is_k_vertex_connected
from repro.graph import (
    circulant_graph,
    clique_graph,
    community_graph,
    is_connected,
    k_core,
    nbm_trap_graph,
    overlapping_cliques_graph,
    planted_kvcc_graph,
    powerlaw_cluster_graph,
    random_gnm,
    ue_trap_graph,
)
from tests.conftest import to_networkx


class TestBasicGenerators:
    def test_circulant_connectivity(self):
        g = circulant_graph(12, 2)
        assert global_vertex_connectivity(g) == 4

    def test_circulant_degenerates_to_clique(self):
        g = circulant_graph(5, 3)
        assert g.num_edges == 10  # K5

    def test_circulant_offset(self):
        g = circulant_graph(6, 1, offset=100)
        assert min(g.vertices()) == 100

    def test_circulant_validation(self):
        with pytest.raises(ParameterError):
            circulant_graph(2, 1)

    def test_clique(self):
        g = clique_graph(6)
        assert g.num_edges == 15
        assert is_k_vertex_connected(g, 5)

    def test_random_gnm_counts(self):
        g = random_gnm(30, 55, seed=0)
        assert g.num_vertices == 30
        assert g.num_edges == 55

    def test_random_gnm_deterministic(self):
        assert random_gnm(20, 30, seed=7) == random_gnm(20, 30, seed=7)

    def test_random_gnm_overfull_raises(self):
        with pytest.raises(ParameterError):
            random_gnm(4, 7, seed=0)


class TestCommunityGraphs:
    def test_each_community_is_k_connected(self):
        k = 4
        sizes = [10, 12]
        g = community_graph(sizes, k, seed=1)
        assert is_k_vertex_connected(g.subgraph(set(range(10))), k)
        assert is_k_vertex_connected(g.subgraph(set(range(10, 22))), k)

    def test_bridges_keep_communities_separate(self):
        g = community_graph([10, 10], k=4, seed=2, bridge_width=2)
        assert is_connected(g)
        assert not is_k_vertex_connected(g, 4)

    def test_bridge_width_validation(self):
        with pytest.raises(ParameterError):
            community_graph([10, 10], k=3, seed=0, bridge_width=3)

    def test_too_small_community_rejected(self):
        with pytest.raises(ParameterError):
            community_graph([4], k=5, seed=0)

    def test_planted_noise_pruned_by_kcore(self):
        k = 3
        g = planted_kvcc_graph(
            2, 10, k, seed=3, noise_vertices=6, bridge_width=1
        )
        core = k_core(g, k)
        assert core.vertex_set() == set(range(20))

    # The texture DESIGN.md's stand-ins rely on: clique rings are
    # triangle-rich (clique seeding and RME work), circulants are not.
    def test_clique_ring_is_triangle_rich(self):
        g = community_graph([30], k=4, seed=1)
        assert nx.average_clustering(to_networkx(g)) > 0.5

    def test_minimal_circulant_is_triangle_poor(self):
        g = community_graph([30], k=4, seed=1, style="circulant")
        assert nx.average_clustering(to_networkx(g)) < 0.5


class TestDomainGenerators:
    def test_overlapping_cliques(self):
        g = overlapping_cliques_graph(4, 6, overlap=2, seed=0)
        # stride 4, so n = 4 + 4*4 - 2... = last clique offset 12 + 6
        assert g.num_vertices == 18
        # every clique of size 6 is 5-connected on its own
        assert is_k_vertex_connected(g.subgraph(set(range(6))), 5)

    def test_overlap_validation(self):
        with pytest.raises(ParameterError):
            overlapping_cliques_graph(3, 4, overlap=4, seed=0)

    def test_powerlaw_cluster(self):
        g = powerlaw_cluster_graph(80, attach=3, triangle_prob=0.5, seed=2)
        assert g.num_vertices == 80
        assert is_connected(g)
        degrees = sorted((g.degree(u) for u in g.vertices()), reverse=True)
        assert degrees[0] > 3 * degrees[len(degrees) // 2]

    def test_powerlaw_validation(self):
        with pytest.raises(ParameterError):
            powerlaw_cluster_graph(3, attach=3, triangle_prob=0.1, seed=0)


class TestTrapGraphs:
    def test_ue_trap_is_one_kvcc(self):
        k = 3
        g = ue_trap_graph(k, tail=3, seed=0)
        assert is_k_vertex_connected(g, k)

    def test_ue_trap_vertices_have_low_seed_degree(self):
        k = 3
        g = ue_trap_graph(k, tail=4, seed=1)
        core_size = 2 * k
        for u in range(core_size, g.num_vertices):
            inside_core = g.neighbors_in(u, set(range(core_size)))
            assert len(inside_core) < k

    def test_ue_trap_validation(self):
        with pytest.raises(ParameterError):
            ue_trap_graph(2, tail=1)

    def test_nbm_trap_not_mergeable(self):
        k = 4
        g = nbm_trap_graph(k, seed=0)
        size = 3 * k
        left = set(range(size))
        right = set(range(size, 2 * size))
        assert is_k_vertex_connected(g.subgraph(left), k)
        assert is_k_vertex_connected(g.subgraph(right), k)
        assert not is_k_vertex_connected(g, k)

    def test_nbm_trap_validation(self):
        with pytest.raises(ParameterError):
            nbm_trap_graph(2)
