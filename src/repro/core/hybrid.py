"""Hybrid enumeration: bottom-up speed with top-down exactness.

The paper's related work (Li et al., DASFAA'17 / WWW J.'20) combines
the two frameworks: the bottom-up pass is fast but heuristic, the
top-down pass is exact but spends most of its time *certifying* final
components (a Θ(n)-flow scan per component that finds no cut).

:func:`vcce_hybrid` keeps the top-down partitioning — which is what
makes the result exact — but skips the certification scan whenever the
current component is exactly a component the bottom-up pass already
produced: every bottom-up component is a verified k-VCS by
construction (RIPPLE's expansion and merging steps only ever build
k-connected sets), so re-deriving "no cut below k" from flows would be
wasted work. Components the heuristic missed or fragmented still go
through the full exact machinery, so the output equals
:func:`repro.core.vcce_td.vcce_td`'s exactly — property-tested in
``tests/core/test_hybrid.py``.
"""

from __future__ import annotations

from repro.core.result import PhaseTimer, VCCResult
from repro.core.ripple import ripple
from repro.core.vcce_td import _drop_nested, _partition
from repro.errors import ParameterError
from repro.graph.adjacency import Graph

__all__ = ["vcce_hybrid"]


def vcce_hybrid(graph: Graph, k: int, alpha: int = 1000) -> VCCResult:
    """Exact k-VCC enumeration seeded by a bottom-up pass.

    Phase 1 runs RIPPLE; phase 2 runs the top-down partition loop, but
    certifies any component that matches a phase-1 component for free.
    Output is exact (identical to ``vcce_td``); the win over plain
    top-down grows with how much of the graph the heuristic already
    resolved.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    timer = PhaseTimer()
    with timer.phase("bottom_up"):
        heuristic = ripple(graph, k, alpha=alpha)
    with timer.phase("partition"):
        found = _partition(
            graph, k, k, certified=frozenset(heuristic.components)
        )
    with timer.phase("finalize"):
        components = _drop_nested(found)
    return VCCResult(
        components, k=k, algorithm="VCCE-Hybrid", timer=timer
    )
