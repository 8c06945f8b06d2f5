"""A fault-tolerant wrapper around the parallel worker pool.

:class:`SupervisedPool` sits between the RIPPLE orchestrator and a
``concurrent.futures`` executor and turns worker failures from run
aborts into recoverable events:

* every task is dispatched with a per-task timeout and bounded retries;
* a ``BrokenProcessPool`` (worker OOM-killed, segfaulted, ``os._exit``)
  rebuilds the pool and re-dispatches the in-flight work;
* a timed-out task on the process backend also rebuilds the pool, which
  is the only way to reclaim a worker stuck in a runaway flow call;
* malformed task results (caught by per-stage validators) count as
  failures and are retried like crashes;
* a task that exhausts its retries runs in-process instead, and after
  ``degrade_after`` consecutive failures the pool degrades to
  in-process sequential execution of all remaining tasks — the run
  completes with identical results, just without parallelism.

Results are returned in submission order, so supervised execution is a
drop-in replacement for ``pool.map`` and cannot change what the
pipeline computes. Recovery events are counted on the ambient
:mod:`repro.obs` collector under ``resilience.*`` (see
``docs/robustness.md`` for the catalogue), and deterministic fault
injection (:class:`~repro.resilience.faults.FaultPlan`) arms crashes,
hangs, and garbage on chosen dispatches so every path above is
exercised by the tier-1 suite.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Sequence
from concurrent.futures import BrokenExecutor, CancelledError, Executor
from concurrent.futures import TimeoutError as PoolTimeout

from repro import obs
from repro.errors import ParameterError
from repro.resilience.faults import GARBAGE, FaultInjected, FaultPlan

__all__ = ["SupervisedPool", "SupervisionConfig"]


class SupervisionConfig:
    """Tunables for :class:`SupervisedPool`.

    ``task_timeout``
        Seconds to wait for one task before declaring it hung
        (``None`` disables the timeout).
    ``max_retries``
        Failed pool dispatches allowed per task beyond the first; a
        task failing ``max_retries + 1`` times runs in-process instead.
    ``degrade_after``
        Consecutive task failures (across tasks, reset by any pool
        success) after which the pool degrades to in-process
        sequential execution for the rest of the run.
    ``fault_plan``
        A :class:`FaultPlan` for deterministic fault injection;
        ``None`` reads ``REPRO_FAULT`` from the environment.
    """

    def __init__(
        self,
        task_timeout: float | None = None,
        max_retries: int = 2,
        degrade_after: int = 4,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if task_timeout is not None and task_timeout <= 0:
            raise ParameterError(
                f"task_timeout must be > 0 or None, got {task_timeout}"
            )
        if max_retries < 0:
            raise ParameterError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if degrade_after < 1:
            raise ParameterError(
                f"degrade_after must be >= 1, got {degrade_after}"
            )
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.degrade_after = degrade_after
        self.fault_plan = fault_plan


class _Job:
    """One task's identity across dispatch attempts."""

    __slots__ = ("slot", "payload", "index", "attempts")

    def __init__(self, slot: int, payload, index: int) -> None:
        self.slot = slot
        self.payload = payload
        self.index = index  # stable per-stage task number (fault target)
        self.attempts = 0  # failed pool dispatches so far


def _supervised_call(fn, payload, fault=None, hang_seconds=0.0):
    """Worker-side entry point: apply an armed fault, then run the task."""
    if fault == "crash":
        # Simulates an OOM kill / segfault: the worker dies without
        # cleanup and the parent sees BrokenProcessPool.
        os._exit(66)
    if fault == "raise":
        raise FaultInjected("injected worker failure")
    if fault == "garbage":
        return GARBAGE
    if fault == "hang":
        time.sleep(hang_seconds)
    return fn(payload)


class SupervisedPool:
    """Dispatch tasks with timeouts, retries, rebuilds, and degradation.

    Parameters
    ----------
    make_pool:
        Factory for a fresh executor (called initially and after every
        rebuild).
    install_local:
        Installs the worker globals in *this* process, enabling
        in-process fallback execution of task functions that normally
        run behind a pool initializer.
    backend:
        ``"process"`` or ``"thread"`` — decides whether a crash fault
        can really kill a worker and whether a rebuild can reclaim a
        hung one.
    """

    def __init__(
        self,
        make_pool: Callable[[], Executor],
        install_local: Callable[[], None],
        backend: str,
        supervision: SupervisionConfig | None = None,
    ) -> None:
        self._make_pool = make_pool
        self._install_local = install_local
        self._backend = backend
        self._supervision = supervision or SupervisionConfig()
        self._plan = (
            self._supervision.fault_plan
            if self._supervision.fault_plan is not None
            else FaultPlan.from_env()
        )
        self._pool: Executor | None = None
        self._degraded = False
        self._local_ready = backend == "thread"
        self._consecutive_failures = 0
        self._stage_counters: dict[str, int] = {}

    # -- public surface ------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether the pool has fallen back to sequential execution."""
        return self._degraded

    def run(
        self,
        stage: str,
        fn: Callable,
        payloads: Sequence,
        validate: Callable[[object], bool] | None = None,
    ) -> list:
        """Run ``fn`` over ``payloads``; results in submission order.

        ``stage`` names the dispatch site for fault targeting and
        diagnostics; ``validate`` (result → bool) catches garbage
        results and converts them into retries.
        """
        results: list = [None] * len(payloads)
        pending = [
            _Job(slot, payload, self._next_index(stage))
            for slot, payload in enumerate(payloads)
        ]
        while pending:
            if self._degraded:
                for job in pending:
                    results[job.slot] = self._run_local(fn, job)
                break
            pending = self._run_wave(stage, fn, pending, results, validate)
        return results

    def close(self) -> None:
        """Release the underlying executor (idempotent)."""
        self._teardown_pool()

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- one wave of dispatches ----------------------------------------

    def _run_wave(
        self,
        stage: str,
        fn: Callable,
        jobs: list[_Job],
        results: list,
        validate: Callable[[object], bool] | None,
    ) -> list[_Job]:
        """Submit every job once; return the jobs that need another wave."""
        pool = self._ensure_pool()
        submitted = []
        unsubmitted: list[_Job] = []
        rebuilt = False  # this wave's pool break has been repaired ...
        charged = False  # ... and billed to the job presumed to blame
        for position, job in enumerate(jobs):
            fault = self._arm(stage, job)
            hang = self._plan.hang_seconds if self._plan else 0.0
            try:
                future = pool.submit(
                    _supervised_call, fn, job.payload, fault, hang
                )
            except BrokenExecutor:
                # A crashed worker is detected asynchronously, so the
                # pool can break while the wave is still being
                # submitted. Rebuild now and requeue the rest of the
                # wave; the in-flight futures settle below.
                self._rebuild_pool()
                rebuilt = True
                unsubmitted = jobs[position:]
                break
            if job.attempts:
                obs.count("resilience.retries")
                # Retries surface as sibling event spans under the
                # dispatching stage span (see docs/robustness.md).
                obs.span_event(
                    "resilience.retry",
                    stage=stage,
                    index=job.index,
                    attempt=job.attempts,
                )
            submitted.append((job, future))
        retry: list[_Job] = []
        abandoned = False
        for job, future in submitted:
            if abandoned and not future.done():
                # The pool these futures belong to was torn down (hung
                # worker) — don't block on them; requeue as collateral.
                future.cancel()
                self._settle_failure(
                    stage, job, fn, retry, results, collateral=True
                )
                continue
            try:
                value = future.result(timeout=self._supervision.task_timeout)
            except (BrokenExecutor, CancelledError):
                # One rebuild per wave; the first broken future pays
                # for the failure, the rest of the wave died with the
                # pool through no fault of its own. (CancelledError:
                # our own teardown cancelled the future.)
                if not rebuilt:
                    self._rebuild_pool()
                    rebuilt = True
                collateral = abandoned or charged
                charged = charged or not collateral
                self._settle_failure(
                    stage, job, fn, retry, results, collateral=collateral
                )
                abandoned = True
            except PoolTimeout:
                obs.count("resilience.task_timeouts")
                obs.span_event(
                    "resilience.timeout", stage=stage, index=job.index
                )
                self._settle_failure(stage, job, fn, retry, results)
                if self._backend == "process" and not self._degraded:
                    # Rebuilding is the only way to reclaim a stuck
                    # process; sibling futures become collateral.
                    self._rebuild_pool()
                    rebuilt = True
                    abandoned = True
            except Exception:
                self._settle_failure(stage, job, fn, retry, results)
            else:
                if validate is not None and not validate(value):
                    obs.count("resilience.invalid_results")
                    self._settle_failure(stage, job, fn, retry, results)
                else:
                    self._consecutive_failures = 0
                    results[job.slot] = value
        if unsubmitted and not submitted:
            # The pool broke before any job went out, so no future can
            # pay for the failure; charge the first job to guarantee
            # progress toward degradation if the breakage persists.
            self._settle_failure(stage, unsubmitted[0], fn, retry, results)
            unsubmitted = unsubmitted[1:]
        for job in unsubmitted:
            self._settle_failure(
                stage, job, fn, retry, results, collateral=True
            )
        return retry

    def _settle_failure(
        self,
        stage: str,
        job: _Job,
        fn: Callable,
        retry: list[_Job],
        results: list,
        collateral: bool = False,
    ) -> None:
        """Route one failed dispatch: retry, run locally, or degrade.

        ``collateral`` marks jobs that died only because the pool was
        torn down around them — they are requeued without being charged
        an attempt, so one bad task cannot bill its whole wave.
        """
        if not collateral:
            job.attempts += 1
            self._consecutive_failures += 1
            obs.count("resilience.task_failures")
            if (
                self._consecutive_failures >= self._supervision.degrade_after
                and not self._degraded
            ):
                self._degrade()
        if self._degraded:
            retry.append(job)  # drained locally by the outer loop
        elif job.attempts > self._supervision.max_retries:
            obs.count("resilience.local_fallback_tasks")
            obs.span_event(
                "resilience.local_fallback",
                stage=stage,
                index=job.index,
                attempts=job.attempts,
            )
            results[job.slot] = self._run_local(fn, job)
        else:
            retry.append(job)

    # -- fault arming --------------------------------------------------

    def _arm(self, stage: str, job: _Job) -> str | None:
        if self._plan is None:
            return None
        fault = self._plan.draw(stage, job.index)
        if fault is None:
            return None
        if fault == "crash" and self._backend != "process":
            # A thread cannot take the process down without taking the
            # orchestrator with it; the nearest thread-world failure is
            # an abrupt exception.
            fault = "raise"
        obs.count("resilience.faults_injected")
        obs.span_event(
            "resilience.fault", stage=stage, index=job.index, mode=fault
        )
        return fault

    def _next_index(self, stage: str) -> int:
        index = self._stage_counters.get(stage, 0)
        self._stage_counters[stage] = index + 1
        return index

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def _rebuild_pool(self) -> None:
        obs.count("resilience.pool_rebuilds")
        obs.span_event("resilience.pool_rebuild", backend=self._backend)
        self._teardown_pool()
        self._pool = self._make_pool()

    def _teardown_pool(self) -> None:
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        # A hung or crashed worker can wedge a clean shutdown: kill
        # worker processes first, then release without waiting.
        processes = getattr(pool, "_processes", None)
        if processes:
            for proc in list(processes.values()):
                try:
                    proc.terminate()
                except (OSError, ValueError):  # pragma: no cover - racy
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass

    # -- degraded / local execution ------------------------------------

    def _degrade(self) -> None:
        self._degraded = True
        obs.count("resilience.degraded")
        obs.span_event(
            "resilience.degraded",
            consecutive_failures=self._consecutive_failures,
        )
        self._teardown_pool()

    def _run_local(self, fn: Callable, job: _Job) -> object:
        """Execute a task in-process (no faults, no timeout — the floor)."""
        if not self._local_ready:
            self._install_local()
            self._local_ready = True
        return fn(job.payload)
