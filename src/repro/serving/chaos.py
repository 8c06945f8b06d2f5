"""Deterministic fault injection for the serving tier.

:mod:`repro.resilience.faults` proves the *enumeration* recovery paths
by arming faults on supervised-pool dispatches; this module extends
the same :class:`~repro.resilience.faults.FaultPlan` grammar into the
serving path, so the daemon's survivability claims (shed under
overload, quarantine corrupt state, survive crashed handlers) are
exercised in tests and CI instead of trusted.

Serving **stages** (usable in ``REPRO_FAULT`` specs exactly like the
pool stages — ``stage:index:mode[:times]``, index = the 0-based
sequence number of operations hitting that stage):

``serve.handle``
    One protocol request line about to be handled. ``crash`` kills the
    *connection* (the handler aborts without a response — the client
    sees EOF; the daemon survives), ``raise`` answers an ``internal``
    error, ``hang`` stalls the response by ``hang_seconds``,
    ``garbage`` emits an undecodable response line.
``engine.resolve``
    A query about to resolve (cache → index; drawn before the
    cache so every query is injectable, which keeps hang-calibrated
    service times independent of cache hit rates).
    ``hang`` stalls it; ``crash``/``raise``/``garbage`` raise
    :class:`~repro.resilience.faults.FaultInjected` (surfacing as an
    ``internal`` protocol error).
``index.load``
    :meth:`KvccIndex.load` about to read a file. ``garbage`` simulates
    an integrity failure (the *file is left untouched* — no quarantine
    of good state), ``crash`` is a hard process death mid-load,
    ``hang`` stalls the read.
``index.save``
    :meth:`KvccIndex.save` about to persist. ``crash`` is a hard
    process death after a *partial* temp-file write — the
    kill-mid-save scenario the atomic rename must survive; ``garbage``
    corrupts the written payload (placed atomically, so the next load
    quarantines it); ``hang`` stalls before the rename.
``reload.swap``
    :meth:`QueryEngine.reload` about to swap the rebuilt index in.
    ``crash``/``raise``/``garbage`` abort the swap (the old index
    keeps serving); ``hang`` stalls it (queries keep riding the old
    index meanwhile).

The plan is process-global and drawn down under a lock, so concurrent
daemon threads consume firings deterministically in arrival order.
Tests arm plans programmatically with :func:`activate`; daemons pick
them up from the ``REPRO_FAULT`` environment (the load-test harness
spawns its daemon subprocesses with the caller's environment, so a CI
job arms daemon faults by exporting the variable).
"""

from __future__ import annotations

import threading
import time

from repro import obs
from repro.resilience.faults import FaultInjected, FaultPlan

__all__ = [
    "STAGES",
    "SessionCrash",
    "ServingFaults",
    "activate",
    "deactivate",
    "draw",
    "fire",
    "hang_seconds",
]

#: The injectable serving stages (see module docstring).
STAGES = (
    "serve.handle",
    "engine.resolve",
    "index.load",
    "index.save",
    "reload.swap",
)


class SessionCrash(Exception):
    """A ``crash`` fault at ``serve.handle``: the connection handler
    dies without answering. Deliberately *not* a
    :class:`~repro.errors.ReproError` — nothing between the injection
    point and the session loop may convert it into a polite
    ``internal`` response; the daemon closes the connection instead.
    """


class ServingFaults:
    """A :class:`FaultPlan` with per-stage operation sequencing.

    The pool orchestrator numbers dispatches itself; the serving tier
    has no single dispatcher, so this wrapper keeps one monotone
    counter per stage (under a lock) and feeds it to
    :meth:`FaultPlan.draw` — operation *i* at a stage is the i-th one
    to reach it, whatever thread carries it.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._sequence: dict[str, int] = {}

    def draw(self, stage: str, *, request_id=None) -> str | None:
        """The armed mode for this stage hit (consumes one firing).

        ``request_id`` ties the draw to the request that triggered it:
        a firing records a ``serving.fault`` span event carrying the id,
        so an access-log line with a surprising outcome can be joined
        to the exact fault that caused it.
        """
        with self._lock:
            index = self._sequence.get(stage, 0)
            self._sequence[stage] = index + 1
            mode = self.plan.draw(stage, index)
        if mode is not None:
            obs.count("serving.faults_injected")
            obs.count(f"serving.faults.{stage}.{mode}")
            obs.span_event(
                "serving.fault",
                stage=stage,
                mode=mode,
                sequence=index,
                request_id=request_id,
            )
        return mode

    @property
    def hang_seconds(self) -> float:
        return self.plan.hang_seconds


_lock = threading.Lock()
_active: ServingFaults | None = None
_loaded_env = False


def activate(plan: FaultPlan | None) -> None:
    """Arm a plan for this process (tests); ``None`` disarms."""
    global _active, _loaded_env
    with _lock:
        _active = ServingFaults(plan) if plan is not None else None
        _loaded_env = True  # an explicit plan overrides the environment


def deactivate() -> None:
    """Disarm any active plan and forget the environment cache, so the
    next :func:`current` call re-reads ``REPRO_FAULT``."""
    global _active, _loaded_env
    with _lock:
        _active = None
        _loaded_env = False


def current() -> ServingFaults | None:
    """The active plan, lazily loaded from ``REPRO_FAULT`` once."""
    global _active, _loaded_env
    with _lock:
        if not _loaded_env:
            plan = FaultPlan.from_env()
            _active = ServingFaults(plan) if plan is not None else None
            _loaded_env = True
        return _active


def draw(stage: str, *, request_id=None) -> str | None:
    """The fault mode armed for this stage hit, or ``None`` (fast path:
    one lock-free attribute read when no plan is active)."""
    faults = _active
    if faults is None and _loaded_env:
        return None
    faults = current()
    if faults is None:
        return None
    return faults.draw(stage, request_id=request_id)


def hang_seconds() -> float:
    faults = current()
    return faults.hang_seconds if faults is not None else 0.0


def fire(stage: str, *, request_id=None) -> str | None:
    """Draw and *apply* the common modes for ``stage``.

    ``hang`` sleeps here and returns ``None`` (the operation then
    proceeds normally); ``raise``/``crash``/``garbage`` raise
    :class:`FaultInjected`. Stages with bespoke semantics
    (``serve.handle``, ``index.save``) call :func:`draw` directly and
    interpret the mode themselves.
    """
    mode = draw(stage, request_id=request_id)
    if mode is None:
        return None
    if mode == "hang":
        time.sleep(hang_seconds())
        return "hang"
    raise FaultInjected(f"injected {mode} fault at {stage}")
