"""End-to-end instrumentation: counters flow out of the pipelines."""

import pytest

from repro import obs, parallel_ripple, ripple, ripple_me
from repro.core.expansion import multiple_expansion
from repro.graph import community_graph, planted_kvcc_graph
from repro.parallel import ParallelConfig


@pytest.fixture
def host():
    return community_graph([16, 16], k=3, seed=2, bridge_width=2)


class TestSequentialPipeline:
    def test_ripple_populates_core_counters(self, host):
        with obs.collecting() as collector:
            result = ripple(host, 3)
        assert result.num_components == 2
        counters = collector.counters
        # On planted communities every merge test resolves through the
        # overlap/boundary short-circuits, so no Dinic flow ever runs
        # (ME flow counters are covered by the RIPPLE-ME test below).
        assert counters["merge.bound_short_circuits"] > 0
        assert counters.get("flow.dinic.calls", 0) == 0
        assert counters["expansion.rme.rounds"] > 0
        assert counters["merge.tests_attempted"] > 0
        assert (
            counters["merge.tests_attempted"]
            == counters.get("merge.tests_accepted", 0)
            + counters.get("merge.tests_rejected", 0)
        )
        assert counters["seeding.seeds"] > 0

    def test_phase_timers_mirrored(self, host):
        with obs.collecting() as collector:
            ripple(host, 3)
        phases = collector.phases
        for name in ("phase.kcore", "phase.seeding", "phase.merging"):
            assert name in phases

    def test_me_round_counters(self, host):
        with obs.collecting() as collector:
            grown = multiple_expansion(host, 3, set(range(6)), hops=1)
        assert len(grown) >= 6
        assert collector.counter("expansion.me.rounds") > 0
        assert collector.counter("expansion.me.absorbed") > 0
        assert collector.counter("flow.dinic.calls") > 0
        assert collector.counter("flow.dinic.augmentations") > 0

    def test_round_spans_carry_their_sizes(self, host):
        # Every fixed-point loop reports its sizes on its round span;
        # QkVCS reports its seed mix through counters.
        with obs.collecting(spans=True) as collector:
            ripple_me(host, 3)
        attrs: dict = {}
        for root in collector.spans.roots:
            for span in root.walk():
                attrs.setdefault(span.name, []).append(span.attrs)
        for name, fields in (
            ("expansion.me.round", ("members", "candidates", "absorbed")),
            ("merge.round", ("pool",)),
        ):
            assert attrs[name], name
            for found in attrs[name]:
                assert all(isinstance(found[f], int) for f in fields), found
        with obs.collecting(spans=True) as collector:
            ripple(host, 3)
        rme = [
            span.attrs
            for root in collector.spans.roots
            for span in root.walk()
            if span.name == "expansion.rme.round"
        ]
        assert rme
        assert all(
            isinstance(a["members"], int) and isinstance(a["absorbed"], int)
            for a in rme
        )
        for name in (
            "seeding.clique_seeds",
            "seeding.kbfs_seeds",
            "seeding.fallback_seeds",
            "seeding.seeds",
        ):
            assert name in collector.counters, name

    def test_runs_are_isolated(self, host):
        with obs.collecting() as first:
            ripple(host, 3)
        with obs.collecting() as second:
            ripple(host, 3)
        # Same deterministic work, recorded independently.
        assert first.counters == second.counters


class TestWorkerAggregation:
    def test_thread_pool_counters_aggregate(self, host):
        config = ParallelConfig(workers=2, backend="thread")
        with obs.collecting() as collector:
            result = parallel_ripple(host, 3, config)
        assert result.num_components == 2
        counters = collector.counters
        assert counters["parallel.tasks_completed"] > 0
        assert collector.workers_merged == counters["parallel.tasks_completed"]
        # Worker-side activity (merge tests run inside tasks) made it back.
        assert counters["merge.tests_attempted"] > 0
        assert counters["expansion.rme.rounds"] > 0

    def test_process_pool_counters_aggregate(self):
        g = planted_kvcc_graph(2, 14, 3, seed=4)
        config = ParallelConfig(workers=2, backend="process")
        with obs.collecting() as collector:
            result = parallel_ripple(g, 3, config)
        assert result.num_components >= 1
        counters = collector.counters
        assert counters["parallel.tasks_completed"] > 0
        assert counters["merge.tests_attempted"] > 0
        assert counters["expansion.rme.rounds"] > 0

    def test_without_collector_nothing_leaks(self, host):
        config = ParallelConfig(workers=2, backend="thread")
        parallel_ripple(host, 3, config)
        assert obs.NULL.is_empty()
