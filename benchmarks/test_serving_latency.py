"""Query-serving latency: cold enumeration vs. index vs. warm cache.

The serving layer's whole claim is that materialising the hierarchy
once turns per-query enumeration cost into per-query lookup cost.
These benches time the three resolution paths on the planted smoke
graph, and the trajectory test holds the committed
``benchmarks/trajectory/BENCH_pr5.json`` row (regenerated by
``scripts/bench_serving.py``) to the >= 10x indexed-vs-cold bar the
live measurement clears by orders of magnitude.
"""

import json
import pathlib
import statistics
import time

import pytest

from repro.core.query import kvcc_containing
from repro.graph.generators import planted_kvcc_graph
from repro.serving import KvccIndex, QueryEngine

TRAJECTORY = (
    pathlib.Path(__file__).parent / "trajectory" / "BENCH_pr5.json"
)


@pytest.fixture(scope="module")
def graph():
    return planted_kvcc_graph(3, 30, 4, seed=7)


@pytest.fixture(scope="module")
def index(graph):
    return KvccIndex.build(graph)


def test_serving_cold_query(benchmark, graph):
    result = benchmark(kvcc_containing, graph, 0, 4)
    assert result is not None


def test_serving_indexed_query(benchmark, graph, index):
    engine = QueryEngine(graph, index, cache_size=0)
    result = benchmark(engine.query, 0, 4)
    assert result.source == "index" and result.best is not None


def test_serving_cached_query(benchmark, graph, index):
    engine = QueryEngine(graph, index)
    engine.query(0, 4)  # warm the entry
    result = benchmark(engine.query, 0, 4)
    assert result.source == "cache" and result.best is not None


def test_indexed_median_at_least_10x_faster_than_cold(graph, index):
    """The live ratio the BENCH_pr5 row records, re-measured here.

    The real gap is orders of magnitude, so the 10x bar stays safe on
    slow shared CI runners; both sides are medians over the same query
    set, which cancels machine speed out of the ratio.
    """
    queries = [(v, k) for v in sorted(graph.vertices()) for k in (2, 4)]

    def median(answer):
        samples = []
        for vertex, k in queries:
            start = time.perf_counter()
            answer(vertex, k)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    cold = median(lambda vertex, k: kvcc_containing(graph, vertex, k))
    engine = QueryEngine(graph, index, cache_size=0)
    indexed = median(engine.query)
    assert indexed * 10 <= cold, (
        f"indexed median {indexed * 1e6:.1f}us not 10x faster than "
        f"cold {cold * 1e6:.1f}us"
    )


def test_committed_trajectory_row_holds_the_claim():
    payload = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    assert payload["schema"] == "repro.bench-trajectory/1"
    assert payload["pr"] == 5
    case = payload["cases"]["qkvcs/planted-3x30-k4"]
    assert case["speedup_indexed_vs_cold"] >= 10
    assert case["speedup_cached_vs_cold"] >= case["speedup_indexed_vs_cold"]
    assert case["cold"]["median_s"] > case["indexed"]["median_s"]
