"""VCCE-BU: the baseline bottom-up enumerator (Li et al., WWW J. 2020).

LkVCS enumeration seeding + Unitary Expansion + Neighbor-Based Merging.
Implemented faithfully *including its two known defects* — UE missing
mutually supporting vertex groups and NBM over-counting boundary
neighbours — because reproducing its accuracy gap against RIPPLE is the
heart of Table III.
"""

from __future__ import annotations

from repro.core.pipeline import bottom_up_pipeline
from repro.core.result import VCCResult
from repro.core.seeding import DEFAULT_ALPHA
from repro.graph.adjacency import Graph
from repro.resilience.deadline import Deadline

__all__ = ["vcce_bu"]


def vcce_bu(
    graph: Graph,
    k: int,
    alpha: int = DEFAULT_ALPHA,
    deadline: Deadline | float | None = None,
) -> VCCResult:
    """Enumerate k-VCCs with the VCCE-BU baseline (LkVCS + UE + NBM).

    The output is heuristic: components may be subsets of true k-VCCs
    (UE under-expansion) and may even fail k-vertex connectivity (NBM
    over-merging) — both deliberately reproduced behaviours.
    """
    return bottom_up_pipeline(
        graph,
        k,
        seeding="lkvcs",
        expansion="ue",
        merging="nbm",
        alpha=alpha,
        algorithm_name="VCCE-BU",
        deadline=deadline,
    )
