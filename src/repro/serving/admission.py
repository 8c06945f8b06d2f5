"""Admission control and load shedding for the serve daemon.

The daemon used to cap concurrency with a bare worker semaphore:
requests past the cap queued *unboundedly* at the semaphore, so past
saturation every client's latency climbed while the daemon silently
fell further behind (the PR-6 load harness measured exactly this — 45
achieved at 50 offered, nothing shed, everything slow). An
:class:`AdmissionController` replaces the semaphore with an explicit
policy:

* up to ``workers`` requests execute concurrently;
* up to ``max_queue`` more may *wait*, partitioned by **cost class**
  so one expensive class cannot starve the others — a reload storm
  queues at most one reload while point queries keep flowing;
* everything beyond the bound is **shed**: the caller gets an
  ``overloaded`` protocol error with ``retriable: true`` and a
  ``retry_after_ms`` hint derived from the queue depth and the
  class's observed (EWMA) service time, instead of an unbounded wait.

Cost classes (derived from the decoded request, see
:func:`cost_class`):

``point``
    ``query`` — one lookup; the cheapest admitted class.
``batch``
    ``batch`` — ``len(queries)`` lookups in one request.
``scan``
    the batch shape every query of which targets one vertex (the
    load-test ``scan`` kind: a whole-hierarchy sweep).
``reload``
    ``reload`` — re-read + possible full index rebuild; the expensive
    storm-shaped class.

``ping``/``stats``/``shutdown`` are control-plane ops and bypass
admission entirely (an operator must be able to ask an overloaded
daemon for its stats).
"""

from __future__ import annotations

import threading
import time

from repro import obs
from repro.errors import ParameterError

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "COST_CLASSES",
    "cost_class",
]

COST_CLASSES = ("point", "batch", "scan", "reload")

#: Fallback per-request service-time guess (seconds) before the first
#: completion of a class has seeded its EWMA.
_DEFAULT_SERVICE_S = {
    "point": 0.002,
    "batch": 0.010,
    "scan": 0.010,
    "reload": 0.100,
}

#: EWMA smoothing for observed service times.
_ALPHA = 0.2

#: ``retry_after_ms`` clamp: long enough to matter, short enough that
#: honest clients retry within the run that shed them.
_RETRY_AFTER_MIN_MS = 10.0
_RETRY_AFTER_MAX_MS = 5000.0


def cost_class(request: dict) -> str | None:
    """The admission class of a decoded request (None = control op)."""
    op = request.get("op")
    if op == "query":
        return "point"
    if op == "reload":
        return "reload"
    if op == "batch":
        queries = request.get("queries")
        if isinstance(queries, list) and len(queries) > 1:
            first = queries[0].get("v") if isinstance(queries[0], dict) else None
            if first is not None and all(
                isinstance(q, dict) and q.get("v") == first for q in queries
            ):
                return "scan"
        return "batch"
    return None


class AdmissionTicket:
    """One admitted request's slot: release it via ``with`` so the
    controller can free the worker and fold the observed service time
    into the class's EWMA."""

    __slots__ = (
        "_controller",
        "_cost_class",
        "_queued_s",
        "_released",
        "_started",
    )

    def __init__(
        self,
        controller: "AdmissionController",
        klass: str,
        *,
        queued_s: float = 0.0,
    ) -> None:
        self._controller = controller
        self._cost_class = klass
        self._queued_s = queued_s
        self._started = time.monotonic()
        self._released = False

    @property
    def cost_class(self) -> str:
        return self._cost_class

    @property
    def queued_s(self) -> float:
        """Seconds this request waited in the admission queue (0.0 for
        an immediate admit); surfaced in the access log as queue_ms."""
        return self._queued_s

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release(
                self._cost_class, time.monotonic() - self._started
            )

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class AdmissionController:
    """Bounded admission with per-class queue partitions (module doc)."""

    def __init__(
        self,
        *,
        workers: int = 4,
        max_queue: int = 32,
    ) -> None:
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if max_queue < 0:
            raise ParameterError(f"max_queue must be >= 0, got {max_queue}")
        self.workers = workers
        self.max_queue = max_queue
        self._lock = threading.Lock()
        self._slots_free = workers
        self._waiters: dict[str, int] = dict.fromkeys(COST_CLASSES, 0)
        self._in_service: dict[str, int] = dict.fromkeys(COST_CLASSES, 0)
        self._service_ewma_s = dict(_DEFAULT_SERVICE_S)
        self._condition = threading.Condition(self._lock)
        # Per-class waiting caps: the whole bound for points, half for
        # the multi-query shapes, exactly one for reloads — a reload
        # storm can occupy one worker and one queue slot, never more.
        self._class_caps = {
            "point": self.max_queue,
            "batch": max(1, self.max_queue // 2) if self.max_queue else 0,
            "scan": max(1, self.max_queue // 2) if self.max_queue else 0,
            "reload": min(1, self.max_queue),
        }

    # -- admission ------------------------------------------------------

    def admit(self, klass: str) -> AdmissionTicket | None:
        """Admit a request of ``klass`` or shed it (``None``).

        Admission may block while the request holds a (bounded) queue
        slot; by construction at most ``max_queue`` requests are ever
        blocked here.
        """
        if klass not in COST_CLASSES:
            raise ParameterError(
                f"unknown cost class {klass!r} (expected one of "
                f"{COST_CLASSES})"
            )
        with self._condition:
            if self._slots_free > 0:
                self._slots_free -= 1
                self._in_service[klass] += 1
                obs.count("serving.admitted")
                obs.observe(f"serving.queue_wait_seconds.{klass}", 0.0)
                return AdmissionTicket(self, klass)
            total_waiting = sum(self._waiters.values())
            if (
                total_waiting >= self.max_queue
                or self._waiters[klass] >= self._class_caps[klass]
            ):
                obs.count("serving.shed")
                obs.count(f"serving.shed.{klass}")
                return None
            queued_at = time.monotonic()
            self._waiters[klass] += 1
            try:
                while self._slots_free <= 0:
                    self._condition.wait()
                self._slots_free -= 1
            finally:
                self._waiters[klass] -= 1
            self._in_service[klass] += 1
            obs.count("serving.admitted")
            obs.count("serving.admitted.queued")
            waited_s = time.monotonic() - queued_at
            obs.observe(f"serving.queue_wait_seconds.{klass}", waited_s)
            return AdmissionTicket(self, klass, queued_s=waited_s)

    def _release(self, klass: str, elapsed_s: float) -> None:
        obs.observe(f"serving.service_seconds.{klass}", elapsed_s)
        with self._condition:
            self._slots_free += 1
            self._in_service[klass] = max(0, self._in_service[klass] - 1)
            previous = self._service_ewma_s[klass]
            self._service_ewma_s[klass] = (
                previous + _ALPHA * (elapsed_s - previous)
            )
            self._condition.notify()

    # -- hints and introspection ---------------------------------------

    def retry_after_ms(self, klass: str) -> int:
        """A backoff hint for a just-shed request of ``klass``.

        Estimates how long the current backlog takes to drain: every
        in-service and waiting request costs one EWMA service time
        spread over the worker pool, plus one more for the retry
        itself. Clamped to keep pathological estimates honest.
        """
        with self._lock:
            backlog = sum(self._in_service.values()) + sum(
                self._waiters.values()
            )
            service_s = self._service_ewma_s.get(
                klass, _DEFAULT_SERVICE_S["point"]
            )
        estimate_ms = (backlog + 1) * service_s * 1000.0 / self.workers
        return int(
            min(_RETRY_AFTER_MAX_MS, max(_RETRY_AFTER_MIN_MS, estimate_ms))
        )

    def stats(self) -> dict:
        """A JSON-able snapshot (surfaced by the ``stats`` op)."""
        with self._lock:
            return {
                "workers": self.workers,
                "max_queue": self.max_queue,
                "slots_free": self._slots_free,
                "in_service": dict(self._in_service),
                "waiting": dict(self._waiters),
                # Alias of "waiting" under the gauge vocabulary: the
                # per-class queue depth *right now*, as opposed to the
                # cumulative serving.shed/admitted counters.
                "queue_depth": dict(self._waiters),
                "service_ewma_ms": {
                    klass: round(seconds * 1000.0, 3)
                    for klass, seconds in self._service_ewma_s.items()
                },
            }
