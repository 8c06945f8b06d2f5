"""Result and instrumentation types shared by every enumeration algorithm.

Each algorithm returns a :class:`VCCResult` carrying the enumerated
components plus the per-phase wall-clock timings the paper's Figure 9
analysis needs. Operation counts (Table VI's seeding coverage, flow
calls, merge tests) go to the active :mod:`repro.obs` collector only.
Results round-trip through JSON for the CLI and for archiving
benchmark output.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro import obs
from repro.errors import ParameterError, ParseError

__all__ = ["RESULT_STATUSES", "PhaseTimer", "VCCResult"]

#: Valid values of :attr:`VCCResult.status`. ``completed`` is a full
#: enumeration; ``deadline`` and ``interrupted`` are clean partial stops
#: (components found so far, checkpoint for resumption); ``degraded``
#: is a full enumeration that lost its worker pool along the way and
#: finished in-process.
RESULT_STATUSES = ("completed", "deadline", "degraded", "interrupted")


class PhaseTimer:
    """Accumulates wall-clock time per named phase.

    Every recording is mirrored to the thread's active
    :mod:`repro.obs` collector under a ``phase.`` prefix, so enabling
    observability aggregates the per-result timers without touching
    the algorithms.

    >>> timer = PhaseTimer()
    >>> with timer.phase("seeding"):
    ...     pass
    >>> timer.seconds("seeding") >= 0
    True
    """

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}

    def phase(self, name: str, **attrs) -> "_PhaseContext":
        """Context manager adding the block's duration to ``name``.

        When the active collector records spans, the same enter/exit
        pair also opens a ``phase.<name>`` span carrying ``attrs`` —
        identical boundaries, so the span tree's per-phase totals
        reconcile with the flat ``phase.*`` seconds by construction.
        """
        return _PhaseContext(self, name, attrs)

    def add_seconds(self, name: str, seconds: float) -> None:
        """Accumulate raw seconds into a phase (for external timers)."""
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        obs.add_seconds(f"phase.{name}", seconds)

    def seconds(self, name: str) -> float:
        """Total seconds recorded for a phase (0.0 if never entered)."""
        return self._seconds.get(name, 0.0)

    @property
    def phases(self) -> dict[str, float]:
        """A copy of the phase → seconds mapping."""
        return dict(self._seconds)

    def total_seconds(self) -> float:
        """Sum over all recorded phases."""
        return sum(self._seconds.values())

    def proportions(self) -> dict[str, float]:
        """Phase shares of total time (empty if nothing recorded)."""
        total = self.total_seconds()
        if total == 0:
            return {}
        return {name: s / total for name, s in self._seconds.items()}


class _PhaseContext:
    """Context manager produced by :meth:`PhaseTimer.phase`."""

    def __init__(
        self, timer: PhaseTimer, name: str, attrs: dict | None = None
    ) -> None:
        self._timer = timer
        self._name = name
        self._attrs = attrs or {}
        self._start = 0.0
        self._span = None

    def __enter__(self) -> "_PhaseContext":
        self._span = obs.start_span(f"phase.{self._name}", **self._attrs)
        self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        self._span.__exit__(*exc_info)
        # add_seconds mirrors into the flat obs phase totals; keep it
        # after the span close so both see the same boundaries.
        self._timer.add_seconds(self._name, elapsed)


@dataclass
class VCCResult:
    """Output of a k-VCC enumeration run.

    Attributes
    ----------
    components:
        The enumerated components as frozensets of vertices, sorted by
        size descending then lexicographically for deterministic output.
    k:
        The connectivity threshold the run used.
    algorithm:
        Human-readable name of the configuration that produced this.
    timer:
        Per-phase wall-clock seconds collected during the run.
    status:
        One of :data:`RESULT_STATUSES` — how the run ended.
    checkpoint:
        For partial runs, the raw component pool at the stop point
        (supersets-in-progress, not yet finalized); feed it back via
        ``resume_from=`` to continue the enumeration. ``None`` for
        completed runs.
    connectivity:
        ``vcce_td(..., upper=)`` only: each component's
        ``(min(κ, upper), cut)``. Not serialised.
    """

    components: list[frozenset]
    k: int
    algorithm: str
    timer: PhaseTimer = field(default_factory=PhaseTimer)
    status: str = "completed"
    checkpoint: list[frozenset] | None = None
    connectivity: dict[frozenset, tuple[int, set | None]] | None = None

    def __post_init__(self) -> None:
        if self.status not in RESULT_STATUSES:
            raise ParameterError(
                f"status must be one of {RESULT_STATUSES}, "
                f"got {self.status!r}"
            )
        self.components = sorted(
            (frozenset(c) for c in self.components),
            key=lambda c: (-len(c), sorted(map(repr, c))),
        )
        if self.checkpoint is not None:
            self.checkpoint = sorted(
                (frozenset(c) for c in self.checkpoint),
                key=lambda c: (-len(c), sorted(map(repr, c))),
            )

    @property
    def num_components(self) -> int:
        """How many components were enumerated."""
        return len(self.components)

    @property
    def is_partial(self) -> bool:
        """Whether the run stopped before enumerating everything."""
        return self.status in ("deadline", "interrupted")

    def covered_vertices(self) -> set:
        """Union of all component vertex sets."""
        covered: set = set()
        for comp in self.components:
            covered |= comp
        return covered

    def component_containing(self, vertex) -> frozenset | None:
        """The first (largest) component containing ``vertex``, if any."""
        for comp in self.components:
            if vertex in comp:
                return comp
        return None

    def to_json(self) -> str:
        """Serialise to a JSON document (components, k, algorithm,
        phase timings). Vertex labels must be JSON-safe (int/str —
        everything this library produces)."""
        payload = {
            "algorithm": self.algorithm,
            "k": self.k,
            "status": self.status,
            "components": [sorted(c, key=repr) for c in self.components],
            "phases": self.timer.phases,
        }
        if self.checkpoint is not None:
            payload["checkpoint"] = [
                sorted(c, key=repr) for c in self.checkpoint
            ]
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, document: str) -> "VCCResult":
        """Rebuild a result from :meth:`to_json` output.

        A ``"counters"`` key, written by older versions, is ignored.
        """
        try:
            payload = json.loads(document)
            timer = PhaseTimer()
            # Write the internal dict directly: deserialising archived
            # numbers must not leak into the live obs collector.
            for name, seconds in payload.get("phases", {}).items():
                timer._seconds[str(name)] = float(seconds)
            checkpoint = payload.get("checkpoint")
            return cls(
                components=[frozenset(c) for c in payload["components"]],
                k=payload["k"],
                algorithm=payload["algorithm"],
                timer=timer,
                status=str(payload.get("status", "completed")),
                checkpoint=(
                    None
                    if checkpoint is None
                    else [frozenset(c) for c in checkpoint]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"not a valid VCCResult document: {exc}") from exc

    def summary(self) -> str:
        """One-line human-readable description of the result."""
        sizes = ", ".join(str(len(c)) for c in self.components[:8])
        if len(self.components) > 8:
            sizes += ", …"
        note = "" if self.status == "completed" else f" [{self.status}]"
        return (
            f"{self.algorithm}: {self.num_components} {self.k}-VCC(s) "
            f"covering {len(self.covered_vertices())} vertices "
            f"(sizes: {sizes or 'none'}){note}"
        )
