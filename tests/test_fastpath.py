"""The flow and merge speed-ups are invisible in the output.

Network reuse across queries and the indexed/memoized merge driver are
pure speed-ups: Theorems 1 and 3 are evaluated on flow-equivalent
networks either way. These tests pin the counters that show each one
at work, check ME and FBM on dense scopes, and check RIPPLE-ME against
the exact top-down enumerator and the ``verify.py`` audit on a dataset
where ME filter passes drop candidates.
"""

import pytest

from repro import obs
from repro.core.expansion import _shrink_candidates, multiple_expansion
from repro.core.merging import flow_based_merge_condition, merge_components
from repro.core.ripple import ripple, ripple_me
from repro.core.vcce_td import vcce_td
from repro.core.verify import verify_result
from repro.datasets import DATASETS
from repro.graph.generators import clique_graph, planted_kvcc_graph


def _canonical(result):
    return sorted(sorted(map(str, c)) for c in result.components)


def _pendant_clique():
    """A K8 plus two mutually-adjacent pendants sharing two anchors.

    Each pendant has k = 3 neighbours inside the ME scope (the two
    shared anchors plus the other pendant), so the degree peel cannot
    discard it — but only 2 vertex-disjoint paths reach σ (every route
    funnels through anchors 0 and 1). ME from a 4-vertex seed keeps
    the clique remainder but must drop both pendants by flow: pass 1
    shrinks (drop), pass 2 confirms the fixed point on a network
    rebuilt over the shrunk scope.
    """
    graph = clique_graph(8)
    graph.add_edge(100, 0)
    graph.add_edge(100, 1)
    graph.add_edge(101, 0)
    graph.add_edge(101, 1)
    graph.add_edge(100, 101)
    return graph


class TestCounters:
    """The flow engine reports what it does through repro.obs."""

    def test_network_reuse_counters(self):
        graph = _pendant_clique()
        with obs.collecting() as collector:
            multiple_expansion(graph, 3, {0, 1, 2, 3})
        assert collector.counter("flow.network.builds") > 0
        assert collector.counter("flow.network.reuses") > 0

    def test_me_rebuilds_network_every_pass(self):
        # The first ME round: pass 1 drops both pendants, pass 2
        # confirms the clique remainder on a network rebuilt over the
        # shrunk scope.
        graph = _pendant_clique()
        candidates = {4, 5, 6, 7, 100, 101}
        with obs.collecting(spans=True) as collector:
            survivors = _shrink_candidates(
                graph, 3, {0, 1, 2, 3}, candidates
            )
        assert survivors == {4, 5, 6, 7}
        assert collector.counter("expansion.me.filter_passes") == 2
        assert collector.counter("flow.network.builds") == 2
        passes = [
            span.attrs
            for span in collector.spans.roots
            if span.name == "expansion.me.filter_pass"
        ]
        assert passes == [
            {"candidates": 6, "survivors": 4},
            {"candidates": 4, "survivors": 4},
        ]
        assert multiple_expansion(graph, 3, {0, 1, 2, 3}) == set(range(8))

    def test_me_grows_through_dense_scope(self):
        # A 40-clique scope: 780 edges, every flow test on the raw scope.
        graph = clique_graph(40)
        assert multiple_expansion(graph, 3, {0, 1, 2, 3}) == set(range(40))

    def test_fbm_accepts_dense_halves(self):
        graph = clique_graph(40)
        side_a = set(range(20))
        side_b = set(range(20, 40))
        with obs.collecting() as collector:
            verdict = flow_based_merge_condition(
                graph, 3, side_a, side_b
            )
        assert verdict is True
        assert collector.counter("merge.flow_tests") == 1

    def test_merge_memoization_counters(self):
        # Three K6s: the first provides two overlapping halves that
        # merge in round 1; the other two touch through only 2 bridge
        # edges, so their pair is rejected — and round 2 retests it
        # with unchanged (uid, version) sides, hitting the memo.
        graph = clique_graph(6)
        for offset in (10, 20):
            clique = clique_graph(6, offset=offset)
            for u, v in clique.edges():
                graph.add_edge(u, v)
        graph.add_edge(10, 20)
        graph.add_edge(11, 21)
        pool = [
            set(range(10, 16)),
            set(range(20, 26)),
            {0, 1, 2, 3},
            {2, 3, 4, 5},
        ]
        with obs.collecting() as collector:
            merged = merge_components(
                graph, 3, pool, flow_based_merge_condition
            )
        assert sorted(map(len, merged)) == [6, 6, 6]
        assert collector.counter("merge.tests_memoized") >= 1
        assert collector.counter("merge.rounds") == 2

    def test_index_skips_far_pairs(self):
        graph = planted_kvcc_graph(3, 30, 4, seed=0)
        with obs.collecting() as collector:
            ripple(graph, 4)
        # Seeds from different communities mostly do not touch; the
        # inverted index never surfaces those pairs.
        assert collector.counter("merge.pairs_skipped_by_index") > 0


class TestExactOracle:
    """RIPPLE-ME equals VCCE-TD and passes the exact audit.

    On sc-shipsec, ME filter passes drop part of their candidates at
    k = 3 and 4, so later passes run on networks rebuilt over the
    shrunk scope.
    """

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_ripple_me_matches_vcce_td_on_sc_shipsec(self, k):
        graph = DATASETS["sc-shipsec"].graph()
        result = ripple_me(graph, k)
        assert _canonical(result) == _canonical(vcce_td(graph, k))
        reports = verify_result(graph, result)
        assert reports
        assert all(report.is_valid_kvcc for report in reports)
