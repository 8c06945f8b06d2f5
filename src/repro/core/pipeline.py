"""The configurable bottom-up enumeration pipeline (seed → merge → expand).

Algorithm 5 of the paper, parameterised over its three ingredients so
that every published configuration — and every ablation of Table V —
is one call:

=================  ==========  ===========  =========
configuration      seeding     expansion    merging
=================  ==========  ===========  =========
RIPPLE             QkVCS       RME          FBM
RIPPLE-ME          QkVCS       ME (h-hop)   FBM
VCCE-BU            LkVCS       UE           NBM
RIPPLE-noQkVCS     LkVCS       RME          FBM
RIPPLE-noFBM       QkVCS       RME          NBM
RIPPLE-noRME       QkVCS       UE           FBM
=================  ==========  ===========  =========

:mod:`repro.core.ripple` and :mod:`repro.core.vcce_bu` export the named
entry points built on this driver.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro import obs
from repro.core import expansion as expansion_mod
from repro.core import merging as merging_mod
from repro.core import seeding as seeding_mod
from repro.core.result import PhaseTimer, VCCResult
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.kcore import k_core
from repro.resilience.deadline import Deadline, as_deadline

__all__ = [
    "bottom_up_pipeline",
    "SEEDERS",
    "EXPANDERS",
    "MERGERS",
]

Seeder = Callable[..., list[set]]
Expander = Callable[..., set]
Merger = Callable[..., bool]


# The adapters look their target up on each call, so patching the
# module attribute (as a tracer or a test double does) takes effect.
def _seed_qkvcs(graph: Graph, k: int, alpha: int):
    return seeding_mod.qkvcs(graph, k, alpha=alpha)


def _seed_lkvcs(graph: Graph, k: int, alpha: int):
    return seeding_mod.lkvcs_seeds(graph, k, alpha=alpha)


def _expand_ue(graph: Graph, k: int, seed: set, hops):
    return expansion_mod.unitary_expansion(graph, k, seed)


def _expand_rme(graph: Graph, k: int, seed: set, hops):
    return expansion_mod.ring_expansion(graph, k, seed)


def _expand_me(graph: Graph, k: int, seed: set, hops):
    return expansion_mod.multiple_expansion(graph, k, seed, hops=hops)


SEEDERS: dict[str, Seeder] = {
    "qkvcs": _seed_qkvcs,
    "lkvcs": _seed_lkvcs,
}

EXPANDERS: dict[str, Expander] = {
    "ue": _expand_ue,
    "rme": _expand_rme,
    "me": _expand_me,
}

MERGERS: dict[str, Merger] = {
    "fbm": merging_mod.flow_based_merge_condition,
    "nbm": merging_mod.neighbor_based_merge_condition,
}


def bottom_up_pipeline(
    graph: Graph,
    k: int,
    seeding: str = "qkvcs",
    expansion: str = "rme",
    merging: str = "fbm",
    alpha: int = seeding_mod.DEFAULT_ALPHA,
    me_hops: int | None = 1,
    algorithm_name: str | None = None,
    order: str = "merge_first",
    deadline: Deadline | float | None = None,
    resume_from: Iterable[frozenset] | None = None,
) -> VCCResult:
    """Run the seed → (merge ↔ expand)* pipeline and return its result.

    Parameters mirror Algorithm 5: the graph is pruned to its k-core,
    seeded, and then merging and expansion alternate to a fixed point.
    ``order`` selects which runs first inside each round —
    ``"merge_first"`` (the paper's choice: merging seeds early avoids
    redundant expansion work) or ``"expand_first"`` (the ablation of
    DESIGN.md §5). ``me_hops`` only applies when ``expansion="me"``.

    ``deadline`` (a :class:`repro.resilience.Deadline` or seconds) is
    checked at every stage boundary; when it expires the run stops
    cleanly and returns the components found so far with
    ``status="deadline"`` and a ``checkpoint`` of the working pool. A
    ``KeyboardInterrupt`` is handled the same way with
    ``status="interrupted"``. ``resume_from`` (a previous result's
    ``checkpoint``) skips seeding and continues merging/expanding that
    pool.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if order not in ("merge_first", "expand_first"):
        raise ParameterError(
            f"order must be 'merge_first' or 'expand_first', got {order!r}"
        )
    for value, table, what in (
        (seeding, SEEDERS, "seeding"),
        (expansion, EXPANDERS, "expansion"),
        (merging, MERGERS, "merging"),
    ):
        if value not in table:
            raise ParameterError(
                f"unknown {what} strategy {value!r}; "
                f"choose from {sorted(table)}"
            )
    name = algorithm_name or (
        f"pipeline({seeding}+{merging}+{expansion})"
    )
    budget = as_deadline(deadline)
    timer = PhaseTimer()
    # An empty checkpoint means the interrupted run never finished
    # seeding, so resuming from it must seed from scratch.
    resume = list(resume_from) if resume_from is not None else None
    if not resume:
        resume = None
    components: list[set] = (
        [] if resume is None else [set(c) for c in resume]
    )

    def stopped(status: str) -> VCCResult:
        obs.count(
            "resilience.deadline_stops"
            if status == "deadline"
            else "resilience.interrupts"
        )
        with timer.phase("finalize"):
            final = _finalize(components, k)
        return VCCResult(
            final,
            k=k,
            algorithm=name,
            timer=timer,
            status=status,
            checkpoint=[frozenset(c) for c in components],
        )

    if budget.expired():
        return stopped("deadline")
    try:
        with obs.start_span(
            "pipeline.run",
            algorithm=name,
            k=k,
            seeding=seeding,
            expansion=expansion,
            merging=merging,
        ):
            with timer.phase("kcore", k=k):
                core = k_core(graph, k)
            if core.num_vertices <= k:
                return VCCResult([], k=k, algorithm=name, timer=timer)

            if resume is None:
                if budget.expired():
                    return stopped("deadline")
                with timer.phase("seeding", strategy=seeding):
                    seeds = SEEDERS[seeding](core, k, alpha)
                if not seeds:
                    return VCCResult(
                        [], k=k, algorithm=name, timer=timer
                    )
                components = [set(seed) for seed in seeds]
            if budget.expired():
                return stopped("deadline")

            expand = EXPANDERS[expansion]
            merge_condition = MERGERS[merging]
            round_no = 0

            def merge_step(pool: list[set]) -> list[set]:
                with timer.phase(
                    "merging", round=round_no, pool=len(pool)
                ):
                    return merging_mod.merge_components(
                        core, k, pool, merge_condition
                    )

            def expand_step(pool: list[set]) -> list[set]:
                with timer.phase(
                    "expansion", round=round_no, pool=len(pool)
                ):
                    grown: list[set] = []
                    for seed_id, comp in enumerate(pool):
                        with obs.start_span(
                            "expand.seed",
                            seed=seed_id,
                            size=len(comp),
                        ):
                            grown.append(
                                expand(core, k, comp, me_hops)
                            )
                    return grown

            first, second = (
                (merge_step, expand_step)
                if order == "merge_first"
                else (expand_step, merge_step)
            )
            before = {frozenset(c) for c in components}
            while True:
                round_no += 1
                components = first(components)
                if budget.expired():
                    return stopped("deadline")
                components = second(components)
                after = {frozenset(c) for c in components}
                obs.count("pipeline.rounds")
                if after == before:
                    break
                before = after
                if budget.expired():
                    return stopped("deadline")
    except KeyboardInterrupt:
        # Partial results are still valid k-VCS supersets: hand them
        # back instead of unwinding with a traceback (the CLI turns
        # this status into exit code 130).
        return stopped("interrupted")

    with timer.phase("finalize"):
        final = _finalize(components, k)
    return VCCResult(final, k=k, algorithm=name, timer=timer)


def _finalize(components: list[set], k: int) -> list[frozenset]:
    """Deduplicate, drop nested results and undersized leftovers.

    Largest first, ties in set-iteration order. Nesting is found
    through :func:`seeding._dedupe`'s vertex → kept-component index,
    in time linear in the total size of ``components``.
    """
    unique = {frozenset(c) for c in components}
    large = [c for c in unique if len(c) > k]
    return [frozenset(c) for c in seeding_mod._dedupe(large)]
