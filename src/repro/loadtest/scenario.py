"""Load-test scenarios: named, validated, reproducible traffic shapes.

A :class:`Scenario` fixes everything about a run except the target —
the arrival process (open-loop rate, Poisson or uniform spacing), the
query mix, the warmup/measure split, client parallelism, repetitions,
and the RNG seed the whole schedule derives from. Two runs of the same
scenario against the same graph issue byte-identical request streams,
which is what lets CI gate on the resulting run-table row.

The mix is pluggable by weight over the request kinds of
:mod:`repro.loadtest.workload`:

* ``point`` — one QkVCS lookup of a random known vertex;
* ``batch`` — ``batch_size`` lookups in one round trip;
* ``scan`` — a hierarchy scan: one vertex queried at every k up to the
  scenario's ceiling (the nesting structure in one request);
* ``unknown`` — a lookup of a vertex not in the graph, *expecting* the
  ``unknown-vertex`` error (error-path latency is traffic too);
* ``storm`` — a stale-index rebuild storm event: mutate the served
  graph file on disk, then send ``reload`` so the daemon's fingerprint
  check notices and rebuilds mid-traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ParameterError

__all__ = ["KINDS", "SCENARIOS", "Scenario", "get_scenario"]

#: The request kinds a mix may weight (see module docstring).
KINDS = ("point", "batch", "scan", "unknown", "storm")


@dataclass(frozen=True)
class Scenario:
    """One reproducible open-loop traffic shape (see module docstring)."""

    name: str
    #: ``(kind, weight)`` pairs; weights are relative, not normalised.
    mix: tuple[tuple[str, float], ...]
    #: Target arrival rate (requests/second) across all workers.
    offered_rps: float = 50.0
    #: Total run length in seconds (warmup included).
    duration_s: float = 2.0
    #: Leading window excluded from every aggregate.
    warmup_s: float = 0.5
    #: Concurrent client connections issuing the schedule.
    workers: int = 4
    #: Repetitions — one run-table row each, fresh daemon each.
    repetitions: int = 1
    #: Arrival process: ``poisson`` (exponential gaps, the open-loop
    #: default — bursts probe queueing) or ``uniform`` (fixed gaps).
    arrival: str = "poisson"
    #: Lookups per ``batch`` request.
    batch_size: int = 8
    #: Highest k drawn by ``point``/``batch`` and swept by ``scan``.
    max_k: int = 4
    #: Seed the whole schedule (arrivals, kinds, payloads) derives from.
    seed: int = 0
    #: Client-side retries per request (0 disables). Retries fire on
    #: ``overloaded`` responses (honouring ``retry_after_ms``),
    #: undecodable response lines, and dropped connections — with
    #: seeded-jitter exponential backoff. A request still ``overloaded``
    #: after the budget lands in the ``shed`` outcome.
    retry_budget: int = 0
    #: First-retry backoff (doubles per retry, full jitter).
    backoff_base_ms: float = 25.0
    #: Backoff growth ceiling.
    backoff_cap_ms: float = 1000.0

    def __post_init__(self) -> None:
        if not self.mix:
            raise ParameterError("scenario mix must not be empty")
        for kind, weight in self.mix:
            if kind not in KINDS:
                raise ParameterError(
                    f"unknown mix kind {kind!r} (expected one of {KINDS})"
                )
            if weight <= 0:
                raise ParameterError(
                    f"mix weight for {kind!r} must be > 0, got {weight}"
                )
        if self.offered_rps <= 0:
            raise ParameterError(
                f"offered_rps must be > 0, got {self.offered_rps}"
            )
        if self.duration_s <= 0:
            raise ParameterError(
                f"duration_s must be > 0, got {self.duration_s}"
            )
        if not 0 <= self.warmup_s < self.duration_s:
            raise ParameterError(
                f"warmup_s must be in [0, duration_s), got "
                f"{self.warmup_s} of {self.duration_s}"
            )
        if self.workers < 1:
            raise ParameterError(f"workers must be >= 1, got {self.workers}")
        if self.repetitions < 1:
            raise ParameterError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        if self.arrival not in ("poisson", "uniform"):
            raise ParameterError(
                f"arrival must be 'poisson' or 'uniform', got "
                f"{self.arrival!r}"
            )
        if self.batch_size < 1:
            raise ParameterError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.max_k < 1:
            raise ParameterError(f"max_k must be >= 1, got {self.max_k}")
        if self.retry_budget < 0:
            raise ParameterError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.backoff_base_ms <= 0:
            raise ParameterError(
                f"backoff_base_ms must be > 0, got {self.backoff_base_ms}"
            )
        if self.backoff_cap_ms < self.backoff_base_ms:
            raise ParameterError(
                f"backoff_cap_ms must be >= backoff_base_ms, got "
                f"{self.backoff_cap_ms} < {self.backoff_base_ms}"
            )

    @property
    def measure_window_s(self) -> float:
        """Seconds of measured (post-warmup) traffic."""
        return self.duration_s - self.warmup_s

    def with_overrides(self, **changes) -> "Scenario":
        """A copy with fields replaced (CLI flag overrides)."""
        return replace(self, **changes)


#: The built-in scenario library (``ripple loadtest --scenario NAME``).
SCENARIOS = {
    scenario.name: scenario
    for scenario in (
        Scenario("point", (("point", 1.0),)),
        Scenario(
            "mixed",
            (
                ("point", 0.60),
                ("batch", 0.20),
                ("scan", 0.15),
                ("unknown", 0.05),
            ),
        ),
        Scenario("errors", (("point", 0.5), ("unknown", 0.5))),
        Scenario(
            "storm",
            (("point", 0.80), ("batch", 0.12), ("storm", 0.08)),
        ),
        # The CI smoke scenario: short, modest rate, every kind except
        # the storm (CI gates failure_rate == 0 and the reload path is
        # gated by its own tests; keeping the smoke mix mutation-free
        # keeps the gated latencies index-shaped).
        Scenario(
            "smoke",
            (
                ("point", 0.70),
                ("batch", 0.15),
                ("scan", 0.10),
                ("unknown", 0.05),
            ),
            offered_rps=40.0,
            duration_s=3.0,
            warmup_s=0.75,
            workers=4,
            repetitions=2,
        ),
        # The degradation-curve scenario: point-only traffic meant to
        # be swept past calibrated capacity (`--rate` overrides the
        # offered rate per sweep step). Many client workers so the
        # open-loop schedule keeps firing while earlier requests queue;
        # a small retry budget so one overloaded answer is retried
        # with jittered backoff before counting as shed.
        Scenario(
            "degrade",
            (("point", 1.0),),
            offered_rps=50.0,
            duration_s=3.0,
            warmup_s=0.75,
            workers=16,
            retry_budget=3,
        ),
        # The chaos-smoke scenario: the smoke mix (minus storms) with
        # a retry budget, run under injected serving faults in CI —
        # crashed sessions and garbage responses must be absorbed by
        # retries, keeping failure_rate at 0.
        Scenario(
            "chaos",
            (
                ("point", 0.70),
                ("batch", 0.15),
                ("scan", 0.10),
                ("unknown", 0.05),
            ),
            offered_rps=40.0,
            duration_s=3.0,
            warmup_s=0.75,
            workers=4,
            repetitions=2,
            retry_budget=3,
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look up a built-in scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ParameterError(
            f"unknown scenario {name!r} "
            f"(built-ins: {', '.join(sorted(SCENARIOS))})"
        ) from None
