"""QueryEngine: differential correctness, cache, deadlines.

The load-bearing suite is the differential one: for every vertex and
every k from 1 to two above the ceiling, across three generator
families, two K6s that share two vertices and three registry
stand-ins, the batched answers of a saved and reloaded index must be
exactly the k-VCCs that contain the vertex — including overlap
vertices, which belong to several k-VCCs of one level.
"""

import pytest

from repro import obs
from repro.core.vcce_td import vcce_td
from repro.datasets import DATASETS
from repro.errors import ParameterError
from repro.graph import connected_components
from repro.graph.generators import (
    community_graph,
    overlapping_cliques_graph,
    planted_kvcc_graph,
)
from repro.resilience import Deadline
from repro.serving import (
    BatchDeadlineExpired,
    KvccIndex,
    LRUCache,
    QueryEngine,
)

GRAPHS = {
    "planted": planted_kvcc_graph(3, 16, 4, seed=7),
    "community": community_graph([14, 12], k=3, seed=1),
    "overlap": overlapping_cliques_graph(3, 6, overlap=2, seed=0),
    # Two K6s sharing vertices 4 and 5: both are 4-VCCs containing them.
    "two-k6": overlapping_cliques_graph(2, 6, overlap=2, seed=0),
}

STAND_INS = ("ca-dblp", "sc-shipsec", "uk-2005")


def _exact_answers(graph, k) -> dict:
    """vertex → the set of k-VCCs containing it, from the exact oracle:
    the connected components with more than one vertex at k = 1,
    VCCE-TD above."""
    if k == 1:
        components = [frozenset(c) for c in connected_components(graph) if len(c) > 1]
    else:
        components = vcce_td(graph, k).components
    answers: dict = {}
    for component in components:
        for vertex in component:
            answers.setdefault(vertex, set()).add(component)
    return answers


class TestDifferential:
    @pytest.mark.parametrize("name", [*sorted(GRAPHS), *STAND_INS])
    def test_batched_indexed_answers_match_direct(self, name, tmp_path):
        graph = GRAPHS[name] if name in GRAPHS else DATASETS[name].graph()
        index = KvccIndex.build(graph)
        path = tmp_path / "idx.json"
        index.save(path)
        engine = QueryEngine(graph, KvccIndex.load(path))

        ks = range(1, index.ceiling + 3)  # two levels above the ceiling
        exact = {k: _exact_answers(graph, k) for k in ks}
        queries = [(v, k) for v in graph.vertices() for k in ks]
        results = engine.query_batch(queries)
        assert len(results) == len(queries)
        multi_component = 0
        for result in results:
            expected = exact[result.k].get(result.vertex, set())
            assert len(result.components) == len(expected)
            assert set(result.components) == expected
            assert result.source == "index"
            assert (result.best is None) == (not expected)
            multi_component += len(expected) > 1
        if name in ("overlap", "two-k6"):
            assert multi_component > 0, "the input must exercise overlap"


class TestEngineBasics:
    def test_build_on_first_use(self):
        graph = GRAPHS["planted"]
        engine = QueryEngine(graph)
        assert engine.index is None
        with obs.collecting() as collector:
            result = engine.query(0, 2)
        assert result.source == "index"
        assert engine.index is not None
        assert collector.counter("serving.index.builds") == 1
        # second query reuses the built index
        with obs.collecting() as collector:
            engine.query(1, 2)
        assert collector.counter("serving.index.builds") == 0

    def test_stale_index_rebuilt_against_graph(self):
        graph = GRAPHS["planted"]
        index = KvccIndex.build(graph)
        edited = graph.copy()
        u = next(iter(edited.vertices()))
        v = next(
            w for w in edited.vertices()
            if w != u and not edited.has_edge(u, w)
        )
        edited.add_edge(u, v)
        engine = QueryEngine(edited, index)
        with obs.collecting() as collector:
            engine.query(u, 2)
        assert collector.counter("serving.index.stale_rebuilds") == 1
        assert not engine.index.is_stale(edited)

    def test_complete_index_answers_any_k_without_graph(self):
        index = KvccIndex.build(GRAPHS["planted"])
        engine = QueryEngine(index=index)
        assert engine.query(0, index.ceiling + 50).components == ()

    def test_unknown_vertex_and_bad_k_raise(self):
        engine = QueryEngine(GRAPHS["planted"])
        with pytest.raises(ParameterError):
            engine.query("ghost", 2)
        with pytest.raises(ParameterError):
            engine.query(0, 0)
        with pytest.raises(ParameterError):
            QueryEngine()

    def test_k_equals_one_matches_connected_component(self):
        graph = GRAPHS["community"]
        engine = QueryEngine(graph)
        result = engine.query(0, 1)
        assert len(result.components) == 1
        assert 0 in result.components[0]

    def test_serving_counters_flow(self):
        engine = QueryEngine(GRAPHS["planted"], cache_size=8)
        with obs.collecting() as collector:
            engine.query_batch([(0, 2), (0, 2), (1, 2)])
        assert collector.counter("serving.queries") == 3
        assert collector.counter("serving.batches") == 1
        assert collector.counter("serving.cache.hits") == 1
        assert collector.counter("serving.cache.misses") == 2
        assert collector.counter("serving.index.hits") == 2


class TestCache:
    def test_cached_answers_are_identical(self):
        graph = GRAPHS["overlap"]
        engine = QueryEngine(graph, cache_size=64)
        first = engine.query(0, 3)
        second = engine.query(0, 3)
        assert second.source == "cache"
        assert second.components == first.components

    def test_capacity_zero_disables(self):
        engine = QueryEngine(GRAPHS["planted"], cache_size=0)
        engine.query(0, 2)
        assert engine.query(0, 2).source == "index"

    def test_lru_eviction_order(self):
        with obs.collecting() as collector:
            cache = LRUCache(2)
            cache.put("a", (1,))
            cache.put("b", (2,))
            assert cache.get("a") == (1,)  # refreshes "a"
            cache.put("c", (3,))  # evicts "b", the least recent
            assert cache.get("b") is None
            assert cache.get("a") == (1,)
            assert cache.get("c") == (3,)
        assert collector.counter("serving.cache.evictions") == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ParameterError):
            LRUCache(-1)


class TestDeadlines:
    def _expiring_after(self, checks: int) -> Deadline:
        ticks = iter(range(1000))

        def clock() -> float:
            return 0.0 if next(ticks) < checks else 100.0

        return Deadline(1.0, clock=clock)

    def test_batch_deadline_carries_completed_prefix(self):
        engine = QueryEngine(GRAPHS["planted"])
        engine.query(0, 2)  # pre-build the index
        queries = [(v, 2) for v in range(6)]
        # first expired() call is check #2 (construction consumes #1)
        deadline = self._expiring_after(4)
        with pytest.raises(BatchDeadlineExpired) as excinfo:
            engine.query_batch(queries, deadline=deadline)
        assert excinfo.value.total == 6
        completed = excinfo.value.completed
        assert 0 < len(completed) < 6
        for result in completed:
            assert result.k == 2

    def test_unexpired_deadline_is_harmless(self):
        engine = QueryEngine(GRAPHS["planted"])
        results = engine.query_batch(
            [(0, 2), (1, 2)], deadline=Deadline(1000)
        )
        assert len(results) == 2
