"""Supervised execution: deadlines, fault injection, pool recovery.

The reliability layer the parallel pipeline runs on (see
``docs/robustness.md``):

* :class:`Deadline` — a cooperative run-wide wall-clock budget, checked
  at stage boundaries; expiry yields a partial result, not an abort;
* :class:`SupervisedPool` / :class:`SupervisionConfig` — per-task
  timeouts, bounded retries, ``BrokenProcessPool`` recovery, and
  graceful degradation to in-process execution;
* :class:`FaultPlan` / ``REPRO_FAULT`` — deterministic fault injection
  so every recovery path above is exercised by tests.
"""

from repro._lazy import lazy_exports

#: Re-exported name → its module, imported on first access (repro._lazy).
_EXPORTS = {
    "Deadline": "repro.resilience.deadline",
    "as_deadline": "repro.resilience.deadline",
    "FaultInjected": "repro.resilience.faults",
    "FaultPlan": "repro.resilience.faults",
    "FaultSpec": "repro.resilience.faults",
    "FaultSpecError": "repro.resilience.faults",
    "SupervisedPool": "repro.resilience.supervisor",
    "SupervisionConfig": "repro.resilience.supervisor",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "Deadline",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "FaultSpecError",
    "SupervisedPool",
    "SupervisionConfig",
    "as_deadline",
]
