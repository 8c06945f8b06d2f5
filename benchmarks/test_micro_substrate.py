"""Micro-benchmarks of the substrate hot paths.

Unlike the experiment benches (single-shot pedantic runs of whole
pipelines), these measure the individual operations the pipelines hammer
— with pytest-benchmark's full statistical machinery, so substrate
regressions show up as timing shifts rather than as mysterious
end-to-end slowdowns.
"""

import pytest

from repro.core.expansion import SIGMA, ring_expansion
from repro.core.merging import flow_based_merge_condition
from repro.flow import VertexSplitNetwork
from repro.graph import (
    community_graph,
    k_core,
    maximal_cliques_at_least,
    random_gnm,
)


@pytest.fixture(scope="module")
def host():
    return community_graph([60, 60], k=4, seed=3, bridge_width=2)


def test_micro_subgraph(benchmark, host):
    members = set(range(60))
    result = benchmark(host.subgraph, members)
    assert result.num_vertices == 60


def test_micro_external_boundary(benchmark, host):
    members = set(range(30))
    result = benchmark(host.external_boundary, members)
    assert result


def test_micro_neighborhood_2hop(benchmark, host):
    result = benchmark(host.neighborhood, [0], 2)
    assert len(result) > 10


def test_micro_k_core(benchmark):
    graph = random_gnm(300, 1200, seed=8)
    result = benchmark(k_core, graph, 4)
    assert result.num_vertices > 0


def test_micro_maximal_cliques(benchmark, host):
    result = benchmark(lambda: list(maximal_cliques_at_least(host, 5)))
    assert result


def test_micro_split_network_build(benchmark, host):
    result = benchmark(VertexSplitNetwork, host)
    assert result.size == host.num_vertices


def test_micro_sigma_flow(benchmark, host):
    members = set(range(60))
    candidates = host.external_boundary(members)
    network = VertexSplitNetwork(
        host, members | candidates, virtual_sources={SIGMA: members}
    )
    candidate = next(iter(candidates))

    def query():
        return network.max_flow(candidate, SIGMA, cutoff=4)

    value = benchmark(query)
    assert value >= 0


def test_micro_fbm_condition(benchmark, host):
    side_a = set(range(60))
    side_b = set(range(60, 120))

    def check():
        return flow_based_merge_condition(host, 4, side_a, side_b)

    assert benchmark(check) is False  # thin bridge: correctly refused


def test_micro_rme_full_expansion(benchmark, host):
    seed = set(range(8))

    def expand():
        return ring_expansion(host, 4, seed)

    result = benchmark(expand)
    assert result == set(range(60))
