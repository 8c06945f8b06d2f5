"""Serving-ladder rules: when a load step fails, and where capacity is.

Pure functions over per-step summaries, kept apart from the socket and
process plumbing in ``serving.py`` so the rules are unit-tested on
their own (``test_suite.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: The latency limit: a step passes only while p99 stays at or under it.
SLO_P99_MS = 25.0

#: A step whose completions fall below this share of its scheduled
#: arrivals is building a backlog and fails.
MIN_COMPLETION_RATIO = 0.95

#: Offered rates of the ladder, requests per second. The ``smoke``
#: traffic costs the daemon about 0.65 ms of CPU per request on the
#: reference host (half its keys are at k = 1..2, whose answer is the
#: whole graph), so one core runs out between 1,000 and 1,600; the
#: knee sat at 800-1,000 rps in the baseline.
RATES = (100, 200, 400, 500, 630, 800, 1000, 1250, 1600, 2000)

#: The fixed rates whose metrics are reported by name (``.r100``,
#: ``.r400``): about 6% and 25% of a core.
REFERENCE_RATE = 400
LOW_RATE = 100


@dataclass(frozen=True)
class StepResult:
    """What one ladder step measured, as the rules need it.

    ``p99_ms`` counts failed requests as infinitely slow (a failed
    request misses any latency limit), so it is ``inf`` once more than
    1% of the step's requests failed.
    """

    rate: float
    p99_ms: float
    failed: int
    shed: int
    completion_ratio: float


def failure_reason(step: StepResult) -> str | None:
    """Why ``step`` fails (``errors``, ``latency`` or ``backlog``), or
    None when it passes.

    Errors are checked first: a step that sheds or fails requests has
    failed on errors whatever its p99 reads.
    """
    if step.failed or step.shed:
        return "errors"
    if step.p99_ms > SLO_P99_MS:
        return "latency"
    if step.completion_ratio < MIN_COMPLETION_RATIO:
        return "backlog"
    return None


@dataclass(frozen=True)
class Capacity:
    """The ladder's verdict: ``rps`` and whether it is only a lower
    bound (``censored``: no step failed, so the knee lies above the top
    rate)."""

    rps: float
    censored: bool = False


def bracket(
    steps: list[StepResult],
) -> tuple[StepResult | None, StepResult | None]:
    """``(lo, hi)``: the lowest-rate failing step and the highest-rate
    passing step below it. Either is None when no such step exists."""
    failing = [s for s in steps if failure_reason(s) is not None]
    hi = min(failing, key=lambda s: s.rate, default=None)
    passing = [
        s
        for s in steps
        if failure_reason(s) is None and (hi is None or s.rate < hi.rate)
    ]
    return max(passing, key=lambda s: s.rate, default=None), hi


def capacity(steps: list[StepResult]) -> Capacity:
    """The offered rate at which p99 crosses the SLO.

    Interpolated log-log between the bracket's passing step
    ``(r_lo, p_lo)`` and failing step ``(r_hi, p_hi)``. A failing step
    that failed on errors gives ``r_lo``; so does one whose p99 is not
    finite or never crossed the SLO (a backlog caught by the completion
    count alone). No failing step gives the top rate, censored. No
    passing step below the first failure gives 0.
    """
    lo, hi = bracket(steps)
    if lo is None:
        return Capacity(0.0)
    if hi is None:
        return Capacity(lo.rate, censored=True)
    if failure_reason(hi) == "errors" or not (
        SLO_P99_MS < hi.p99_ms < math.inf
    ):
        return Capacity(lo.rate)
    p_lo = max(lo.p99_ms, 1e-9)
    share = math.log(SLO_P99_MS / p_lo) / math.log(hi.p99_ms / p_lo)
    log_rps = math.log(lo.rate) + share * (math.log(hi.rate) - math.log(lo.rate))
    return Capacity(math.exp(log_rps))
