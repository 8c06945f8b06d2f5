"""Unit tests for the parallel executor's internal building blocks."""

from repro.graph import Graph, clique_graph, community_graph
from repro.parallel.executor import (
    _chunks,
    _init_worker,
    _merge_pair_task,
    _expand_task,
    _parallel_merge,
    _touches,
)


class TestChunks:
    def test_round_robin_partition(self):
        chunks = _chunks(list(range(10)), 3)
        assert sorted(x for chunk in chunks for x in chunk) == list(range(10))
        assert len(chunks) == 3

    def test_more_pieces_than_items(self):
        chunks = _chunks([1, 2], 5)
        assert chunks == [(1,), (2,)]

    def test_empty(self):
        assert _chunks([], 4) == []


class TestTouches:
    def test_overlap(self):
        g = clique_graph(4)
        assert _touches(g, {0, 1}, {1, 2})

    def test_edge_between(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert _touches(g, {0}, {1})
        assert not _touches(g, {0}, {2})


class TestWorkerTasks:
    """Thread-mode task functions run directly against module globals."""

    def test_expand_task(self):
        g = community_graph([14], k=3, seed=1)
        _init_worker(g, 3)
        grown, stats = _expand_task(frozenset(range(6)))
        assert grown == frozenset(range(14))
        assert stats["counters"]["expansion.rme.rounds"] >= 1

    def test_merge_pair_task(self):
        g = clique_graph(6)
        _init_worker(g, 3)
        verdict, stats = _merge_pair_task(
            (frozenset(range(4)), frozenset(range(2, 6)), 0, 1)
        )
        assert verdict
        assert stats["counters"]["merge.tests_attempted"] == 1


class TestUnionFindMerge:
    def test_chain_merges_collapse_transitively(self):
        # Three overlapping cliques: pairwise merges chain into one.
        g = Graph()
        for offset in (0, 3, 6):
            for u, v in clique_graph(6, offset=offset).edges():
                g.add_edge(u, v)
        _init_worker(g, 3)

        class _Inline:
            """Minimal SupervisedPool stub: runs tasks inline."""

            def run(self, stage, fn, payloads, validate=None):
                return [fn(payload) for payload in payloads]

        merged = _parallel_merge(
            _Inline(), g, 3,
            [set(range(6)), set(range(3, 9)), set(range(6, 12))],
        )
        assert merged == [set(range(12))]
