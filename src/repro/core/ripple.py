"""RIPPLE and its published variants as named entry points.

RIPPLE (Algorithm 5) = QkVCS seeding + FBM merging + RME expansion on
the k-core of the input. :func:`ripple_me` swaps RME for the exact
h-hop Multiple Expansion (Table IV's RIPPLE-ME); the three
``ripple_no*`` variants are the ablations of Table V.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.pipeline import bottom_up_pipeline
from repro.core.result import VCCResult
from repro.core.seeding import DEFAULT_ALPHA
from repro.graph.adjacency import Graph
from repro.resilience.deadline import Deadline

__all__ = [
    "ripple",
    "ripple_me",
    "ripple_no_qkvcs",
    "ripple_no_fbm",
    "ripple_no_rme",
]


def ripple(
    graph: Graph,
    k: int,
    alpha: int = DEFAULT_ALPHA,
    deadline: Deadline | float | None = None,
    resume_from: Iterable[frozenset] | None = None,
) -> VCCResult:
    """Enumerate k-VCCs with RIPPLE (QkVCS + FBM + RME).

    ``deadline`` bounds the run's wall clock (partial results with
    ``status="deadline"`` past it) and ``resume_from`` continues from a
    partial result's ``checkpoint``.

    >>> from repro.graph import community_graph
    >>> g = community_graph([10, 10], k=3, seed=1)
    >>> result = ripple(g, 3)
    >>> result.num_components
    2
    """
    return bottom_up_pipeline(
        graph,
        k,
        seeding="qkvcs",
        expansion="rme",
        merging="fbm",
        alpha=alpha,
        algorithm_name="RIPPLE",
        deadline=deadline,
        resume_from=resume_from,
    )


def ripple_me(
    graph: Graph,
    k: int,
    hops: int | None = 1,
    alpha: int = DEFAULT_ALPHA,
    deadline: Deadline | float | None = None,
) -> VCCResult:
    """RIPPLE-ME: exact Multiple Expansion restricted to ``hops`` rings.

    ``hops=None`` removes the restriction entirely (Theorem 2's exact
    local expansion — accurate and extremely slow; Table IV's story).
    """
    return bottom_up_pipeline(
        graph,
        k,
        seeding="qkvcs",
        expansion="me",
        merging="fbm",
        alpha=alpha,
        me_hops=hops,
        algorithm_name="RIPPLE-ME",
        deadline=deadline,
    )


def ripple_no_qkvcs(
    graph: Graph, k: int, alpha: int = DEFAULT_ALPHA
) -> VCCResult:
    """Ablation: RIPPLE with the baseline LkVCS seeding (Table V)."""
    return bottom_up_pipeline(
        graph,
        k,
        seeding="lkvcs",
        expansion="rme",
        merging="fbm",
        alpha=alpha,
        algorithm_name="RIPPLE-noQkVCS",
    )


def ripple_no_fbm(
    graph: Graph, k: int, alpha: int = DEFAULT_ALPHA
) -> VCCResult:
    """Ablation: RIPPLE with the unsound NBM merging (Table V)."""
    return bottom_up_pipeline(
        graph,
        k,
        seeding="qkvcs",
        expansion="rme",
        merging="nbm",
        alpha=alpha,
        algorithm_name="RIPPLE-noFBM",
    )


def ripple_no_rme(
    graph: Graph, k: int, alpha: int = DEFAULT_ALPHA
) -> VCCResult:
    """Ablation: RIPPLE with Unitary Expansion (Table V)."""
    return bottom_up_pipeline(
        graph,
        k,
        seeding="qkvcs",
        expansion="ue",
        merging="fbm",
        alpha=alpha,
        algorithm_name="RIPPLE-noRME",
    )
