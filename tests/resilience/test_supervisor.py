"""Tests for the supervised worker pool: unit paths and end-to-end recovery.

The unit tests drive :class:`SupervisedPool` directly on a thread pool
(no pickling constraints on the task functions); the end-to-end tests
inject faults into ``parallel_ripple`` and assert the recovered run
produces exactly the unfaulted components. Process-only paths (pool
rebuilds after a crash, reclaiming a hung worker) have dedicated
process-backend tests regardless of the ``backend`` fixture.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.errors import ParameterError
from repro.parallel import ParallelConfig, parallel_ripple
from repro.resilience import FaultPlan, SupervisedPool, SupervisionConfig
from repro.resilience.faults import GARBAGE


def _double(payload):
    return payload * 2


def _events(collector, name: str) -> list[dict]:
    """Attributes of every ``name`` span event the collector recorded."""
    return [
        span.attrs
        for root in collector.spans.roots
        for span in root.walk()
        if span.name == name
    ]


def _make_spool(plan=None, **kwargs) -> SupervisedPool:
    supervision = SupervisionConfig(
        fault_plan=plan if plan is not None else FaultPlan([]), **kwargs
    )
    return SupervisedPool(
        make_pool=lambda: ThreadPoolExecutor(max_workers=2),
        install_local=lambda: None,
        backend="thread",
        supervision=supervision,
    )


class TestConfig:
    def test_defaults(self):
        config = SupervisionConfig()
        assert config.task_timeout is None
        assert config.max_retries == 2
        assert config.degrade_after == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_timeout": 0},
            {"task_timeout": -1},
            {"max_retries": -1},
            {"degrade_after": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            SupervisionConfig(**kwargs)


class TestSupervisedPool:
    def test_results_in_submission_order(self):
        with _make_spool() as spool:
            assert spool.run("stage", _double, list(range(16))) == [
                2 * i for i in range(16)
            ]

    def test_raise_fault_is_retried(self):
        with obs.collecting() as collector:
            with _make_spool(FaultPlan.parse("stage:2:raise")) as spool:
                results = spool.run("stage", _double, [0, 1, 2, 3])
        assert results == [0, 2, 4, 6]
        assert collector.counter("resilience.faults_injected") == 1
        assert collector.counter("resilience.task_failures") == 1
        assert collector.counter("resilience.retries") == 1

    def test_crash_downgrades_to_raise_on_threads(self):
        """A thread cannot hard-kill the process without killing the
        suite; the supervisor must survive the downgraded fault."""
        with obs.collecting() as collector:
            with _make_spool(FaultPlan.parse("stage:0:crash")) as spool:
                results = spool.run("stage", _double, [5, 6])
        assert results == [10, 12]
        assert collector.counter("resilience.faults_injected") == 1

    def test_garbage_caught_by_validator(self):
        with obs.collecting() as collector:
            with _make_spool(FaultPlan.parse("stage:1:garbage")) as spool:
                results = spool.run(
                    "stage",
                    _double,
                    [1, 2, 3],
                    validate=lambda value: value != GARBAGE,
                )
        assert results == [2, 4, 6]
        assert collector.counter("resilience.invalid_results") == 1
        assert collector.counter("resilience.retries") == 1

    def test_hang_trips_task_timeout(self):
        plan = FaultPlan.parse("stage:0:hang")
        plan.hang_seconds = 5.0
        with obs.collecting() as collector:
            with _make_spool(plan, task_timeout=0.1) as spool:
                results = spool.run("stage", _double, [7, 8])
        assert results == [14, 16]
        assert collector.counter("resilience.task_timeouts") == 1

    def test_exhausted_retries_fall_back_to_local_execution(self):
        plan = FaultPlan.parse("stage:0:raise:*")
        with obs.collecting() as collector:
            with _make_spool(plan, max_retries=1) as spool:
                results = spool.run("stage", _double, [9])
        assert results == [18]
        assert collector.counter("resilience.local_fallback_tasks") == 1
        assert collector.counter("resilience.task_failures") == 2

    def test_degrades_after_consecutive_failures(self):
        plan = FaultPlan.parse("stage:*:raise:*")
        with obs.collecting() as collector:
            with _make_spool(plan, degrade_after=2) as spool:
                results = spool.run("stage", _double, list(range(8)))
                assert spool.degraded
        assert results == [2 * i for i in range(8)]
        assert collector.counter("resilience.degraded") == 1

    def test_stage_indices_persist_across_runs(self):
        """The fault index space covers the whole run, not one wave:
        stage:3 hits the fourth dispatch even when it arrives in a
        second run() call."""
        with obs.collecting() as collector:
            with _make_spool(FaultPlan.parse("stage:3:raise")) as spool:
                first = spool.run("stage", _double, [0, 1])
                second = spool.run("stage", _double, [2, 3])
        assert (first, second) == ([0, 2], [4, 6])
        assert collector.counter("resilience.faults_injected") == 1

    def test_success_resets_consecutive_failures(self):
        """Spread-out failures never add up to degradation."""
        plan = FaultPlan.parse("stage:0:raise,stage:2:raise,stage:4:raise")
        with _make_spool(plan, degrade_after=2) as spool:
            results = spool.run("stage", _double, list(range(6)))
            assert not spool.degraded
        assert results == [2 * i for i in range(6)]

    def test_close_is_idempotent(self):
        spool = _make_spool()
        spool.run("stage", _double, [1])
        spool.close()
        spool.close()


class TestParallelRippleRecovery:
    """Injected faults must never change what parallel_ripple returns."""

    @pytest.mark.parametrize(
        "stage",
        ["seeding.cliques", "seeding.lkvcs", "merging", "expansion"],
    )
    def test_crash_in_each_stage_recovers(
        self, fault_graph, expected_components, backend, monkeypatch, stage
    ):
        monkeypatch.setenv("REPRO_FAULT", f"{stage}:*:crash")
        config = ParallelConfig(workers=2, backend=backend)
        with obs.collecting(spans=True) as collector:
            result = parallel_ripple(fault_graph, 3, config)
        assert result.status == "completed"
        assert set(result.components) == expected_components
        assert collector.counter("resilience.faults_injected") == 1
        assert collector.counter("resilience.retries") >= 1
        # A thread cannot crash alone, so the supervisor raises instead.
        mode = "crash" if backend == "process" else "raise"
        faults = _events(collector, "resilience.fault")
        assert faults == [{"stage": stage, "index": 0, "mode": mode}]

    def test_garbage_result_recovers(
        self, fault_graph, expected_components, backend, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT", "expansion:0:garbage")
        config = ParallelConfig(workers=2, backend=backend)
        with obs.collecting() as collector:
            result = parallel_ripple(fault_graph, 3, config)
        assert set(result.components) == expected_components
        assert collector.counter("resilience.invalid_results") == 1

    def test_process_crash_rebuilds_pool(
        self, fault_graph, expected_components
    ):
        supervision = SupervisionConfig(
            fault_plan=FaultPlan.parse("merging:0:crash")
        )
        config = ParallelConfig(workers=2, backend="process")
        with obs.collecting(spans=True) as collector:
            result = parallel_ripple(
                fault_graph, 3, config, supervision=supervision
            )
        assert result.status == "completed"
        assert set(result.components) == expected_components
        assert collector.counter("resilience.pool_rebuilds") >= 1
        rebuilds = _events(collector, "resilience.pool_rebuild")
        assert rebuilds and all(
            attrs == {"backend": "process"} for attrs in rebuilds
        )

    def test_process_hung_worker_is_reclaimed(
        self, fault_graph, expected_components
    ):
        plan = FaultPlan.parse("expansion:0:hang", hang_seconds=8.0)
        supervision = SupervisionConfig(task_timeout=0.5, fault_plan=plan)
        config = ParallelConfig(workers=2, backend="process")
        with obs.collecting() as collector:
            result = parallel_ripple(
                fault_graph, 3, config, supervision=supervision
            )
        assert result.status == "completed"
        assert set(result.components) == expected_components
        assert collector.counter("resilience.task_timeouts") >= 1
        assert collector.counter("resilience.pool_rebuilds") >= 1

    def test_persistent_failures_degrade_but_complete(
        self, fault_graph, expected_components, backend
    ):
        plan = FaultPlan.parse("expansion:*:raise:*")
        supervision = SupervisionConfig(
            max_retries=1, degrade_after=3, fault_plan=plan
        )
        config = ParallelConfig(workers=2, backend=backend)
        with obs.collecting(spans=True) as collector:
            result = parallel_ripple(
                fault_graph, 3, config, supervision=supervision
            )
        assert result.status == "degraded"
        assert not result.is_partial
        assert set(result.components) == expected_components
        assert collector.counter("resilience.degraded") == 1
        degraded = _events(collector, "resilience.degraded")
        assert degraded == [{"consecutive_failures": 3}]

    def test_unfaulted_run_counts_nothing(self, fault_graph, backend):
        config = ParallelConfig(workers=2, backend=backend)
        with obs.collecting() as collector:
            result = parallel_ripple(fault_graph, 3, config)
        assert result.status == "completed"
        assert not any(
            name.startswith("resilience.") for name in collector.counters
        )


class TestWorkerAggregation:
    """``workers_merged == parallel.tasks_completed`` must survive every
    recovery path: a task's snapshot is folded into the orchestrator's
    collector exactly once, whether its final result came from the pool,
    from an in-process local fallback after exhausted retries, or from
    degraded sequential execution."""

    def test_holds_on_local_fallback(
        self, fault_graph, expected_components, backend
    ):
        # One task fails every dispatch, exhausts its retries, and runs
        # locally; degrade_after is high so the pool never degrades.
        plan = FaultPlan.parse("expansion:0:raise:*")
        supervision = SupervisionConfig(
            max_retries=1, degrade_after=50, fault_plan=plan
        )
        config = ParallelConfig(workers=2, backend=backend)
        with obs.collecting() as collector:
            result = parallel_ripple(
                fault_graph, 3, config, supervision=supervision
            )
        assert result.status == "completed"
        assert set(result.components) == expected_components
        assert collector.counter("resilience.local_fallback_tasks") >= 1
        assert collector.workers_merged == collector.counter(
            "parallel.tasks_completed"
        )

    def test_holds_under_degradation(
        self, fault_graph, expected_components, backend
    ):
        plan = FaultPlan.parse("expansion:*:raise:*")
        supervision = SupervisionConfig(
            max_retries=1, degrade_after=3, fault_plan=plan
        )
        config = ParallelConfig(workers=2, backend=backend)
        with obs.collecting() as collector:
            result = parallel_ripple(
                fault_graph, 3, config, supervision=supervision
            )
        assert result.status == "degraded"
        assert set(result.components) == expected_components
        assert collector.workers_merged == collector.counter(
            "parallel.tasks_completed"
        )

    def test_holds_on_clean_runs(self, fault_graph, backend):
        config = ParallelConfig(workers=2, backend=backend)
        with obs.collecting() as collector:
            parallel_ripple(fault_graph, 3, config)
        assert collector.workers_merged == collector.counter(
            "parallel.tasks_completed"
        )
