"""Parallel RIPPLE: the three-stage task decomposition of Section VI-E.

The paper parallelises RIPPLE with OpenMP in three places:

1. **QkVCS** — maximal-clique enumeration is split by degeneracy-order
   roots, and the LkVCS fallback sweep is split by start vertex;
2. **FBM** — the pairwise merge conditions of one round are evaluated
   concurrently, then the accepted merges are applied through a
   union-find (resolving the data contention the paper describes by
   construction instead of locking);
3. **RME** — each seed subgraph expands independently.

Substitution note (DESIGN.md §3): CPython threads cannot run this
CPU-bound work concurrently under the GIL, so the default backend is a
``multiprocessing`` pool — each worker receives the (immutable) k-core
once via its initializer, and tasks ship only vertex sets. A thread
backend is kept for measuring the task decomposition without process
overhead; with it, wall-clock speedups are bounded near 1 by the GIL,
which the Figure 10 bench reports explicitly.

All dispatch goes through :class:`repro.resilience.SupervisedPool`:
worker crashes rebuild the pool and re-dispatch the in-flight work,
hung tasks time out, garbage results are caught by per-stage
validators, and repeated failures degrade the run to in-process
sequential execution — same components, no parallelism. A
:class:`repro.resilience.Deadline` is honoured at stage boundaries and
yields a partial result with a resumable checkpoint.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor

from repro import obs
from repro.core.expansion import ring_expansion
from repro.core.merging import flow_based_merge_condition
from repro.core.pipeline import _finalize
from repro.core.result import PhaseTimer, VCCResult
from repro.core.seeding import DEFAULT_ALPHA, _dedupe, kbfs_seeds, lkvcs
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.cliques import cliques_from_roots
from repro.graph.kcore import degeneracy_ordering, k_core
from repro.resilience.deadline import Deadline, as_deadline
from repro.resilience.supervisor import SupervisedPool, SupervisionConfig

__all__ = ["parallel_ripple", "ParallelConfig"]

# Worker-global state, installed by the pool initializer so that task
# payloads stay tiny (vertex sets only). With the default fork start
# method the graph is shared copy-on-write; under spawn it is pickled
# once per worker rather than once per task. ``spans`` mirrors whether
# the orchestrator's collector records span trees, so worker tasks only
# pay for span recording when someone is looking.
_WORKER_GRAPH: Graph | None = None
_WORKER_K: int = 0
_WORKER_SPANS: bool = False


def _init_worker(graph: Graph, k: int, spans: bool = False) -> None:
    global _WORKER_GRAPH, _WORKER_K, _WORKER_SPANS
    _WORKER_GRAPH = graph
    _WORKER_K = k
    _WORKER_SPANS = spans


# Every task records into a collector scoped to the task (the obs
# active-collector is thread-local, so this is race-free under both
# backends) and returns the snapshot alongside its payload. The
# orchestrator folds the snapshots into its own collector, so per-run
# totals include worker-side flow calls, merge tests and absorptions.
# When span recording is on, each task opens a ``task.*`` root span
# whose subtree ships back inside the snapshot; merging re-parents it
# under the dispatching stage span (origin="worker").


def _expand_task(seed: frozenset) -> tuple[frozenset, dict]:
    with obs.collecting(spans=_WORKER_SPANS) as collector:
        with obs.start_span("task.expand", size=len(seed)):
            grown = frozenset(
                ring_expansion(_WORKER_GRAPH, _WORKER_K, set(seed))
            )
            obs.set_span_attrs(grown=len(grown))
    return grown, collector.snapshot()


def _merge_pair_task(
    pair: tuple[frozenset, frozenset, int, int]
) -> tuple[bool, dict]:
    side_a, side_b, left_id, right_id = pair
    with obs.collecting(spans=_WORKER_SPANS) as collector:
        with obs.start_span(
            "task.merge_test",
            pair=[left_id, right_id],
            sizes=[len(side_a), len(side_b)],
        ):
            verdict = flow_based_merge_condition(
                _WORKER_GRAPH, _WORKER_K, set(side_a), set(side_b)
            )
            obs.set_span_attrs(accepted=verdict)
    return verdict, collector.snapshot()


def _clique_roots_task(
    payload: tuple[dict, tuple]
) -> tuple[list[frozenset], dict]:
    position, roots = payload
    with obs.collecting(spans=_WORKER_SPANS) as collector:
        with obs.start_span("task.cliques", roots=len(roots)):
            cliques = cliques_from_roots(
                _WORKER_GRAPH, _WORKER_K + 1, position, roots
            )
    return cliques, collector.snapshot()


def _lkvcs_task(
    payload: tuple[object, int]
) -> tuple[frozenset | None, dict]:
    vertex, alpha = payload
    with obs.collecting(spans=_WORKER_SPANS) as collector:
        with obs.start_span("task.lkvcs"):
            seed = lkvcs(_WORKER_GRAPH, _WORKER_K, vertex, alpha=alpha)
    found = None if seed is None else frozenset(seed)
    return found, collector.snapshot()


def _absorb(snapshot: dict) -> None:
    """Fold one worker task's counter snapshot into the ambient collector."""
    obs.count("parallel.tasks_completed")
    obs.get_collector().merge(snapshot)


# Per-stage result validators for the supervised pool: a worker that
# returns garbage (fault injection, memory corruption, a mismatched
# pickle) is detected here and treated like a crash — retried, never
# folded into the component pool.


def _is_snapshot_pair(value) -> bool:
    return (
        isinstance(value, tuple)
        and len(value) == 2
        and isinstance(value[1], dict)
    )


def _valid_expand(value) -> bool:
    return _is_snapshot_pair(value) and isinstance(value[0], frozenset)


def _valid_merge(value) -> bool:
    return _is_snapshot_pair(value) and isinstance(value[0], bool)


def _valid_cliques(value) -> bool:
    return _is_snapshot_pair(value) and isinstance(value[0], list)


def _valid_lkvcs(value) -> bool:
    return _is_snapshot_pair(value) and (
        value[0] is None or isinstance(value[0], frozenset)
    )


class ParallelConfig:
    """How to run the pool: worker count and backend.

    ``backend`` is ``"process"`` (true parallelism, default) or
    ``"thread"`` (GIL-bound; useful to isolate decomposition overhead).
    """

    def __init__(self, workers: int = 2, backend: str = "process") -> None:
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if backend not in ("process", "thread"):
            raise ParameterError(
                f"backend must be 'process' or 'thread', got {backend!r}"
            )
        self.workers = workers
        self.backend = backend

    def make_pool(
        self, graph: Graph, k: int, spans: bool = False
    ) -> Executor:
        if self.backend == "thread":
            # Threads share the interpreter: install the globals directly.
            _init_worker(graph, k, spans)
            return ThreadPoolExecutor(max_workers=self.workers)
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(graph, k, spans),
        )


def _chunks(items: list, pieces: int) -> list[tuple]:
    """Split ``items`` into at most ``pieces`` round-robin chunks."""
    return [
        tuple(items[i::pieces]) for i in range(pieces) if items[i::pieces]
    ]


def parallel_ripple(
    graph: Graph,
    k: int,
    config: ParallelConfig | None = None,
    alpha: int = DEFAULT_ALPHA,
    supervision: SupervisionConfig | None = None,
    deadline: Deadline | float | None = None,
    resume_from: Iterable[frozenset] | None = None,
) -> VCCResult:
    """RIPPLE with its three stages fanned out over a supervised pool.

    Produces the same components as :func:`repro.core.ripple` up to
    heuristic tie-breaking — including under worker crashes, hangs, and
    garbage results, which the supervision layer recovers from
    (``supervision`` tunes timeouts/retries; the result's ``status``
    reports ``"degraded"`` when the pool had to fall back to sequential
    execution). ``deadline`` bounds the wall clock: past it the run
    stops at the next stage boundary with ``status="deadline"`` and a
    resumable ``checkpoint`` (pass it back via ``resume_from``).
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    config = config or ParallelConfig()
    budget = as_deadline(deadline)
    timer = PhaseTimer()
    name = f"RIPPLE-parallel[{config.backend} x{config.workers}]"
    # An empty checkpoint means the interrupted run never finished
    # seeding, so resuming from it must seed from scratch.
    resume = list(resume_from) if resume_from is not None else None
    if not resume:
        resume = None
    components: list[set] = (
        [] if resume is None else [set(c) for c in resume]
    )

    def partial(status: str) -> VCCResult:
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
        return partial("deadline")
    expired = False
    degraded = False
    # Workers record span subtrees only when the orchestrator's own
    # collector does — otherwise span recording stays entirely off.
    spans_on = obs.get_collector().spans is not None
    try:
        with obs.start_span(
            "pipeline.run",
            algorithm=name,
            k=k,
            backend=config.backend,
            workers=config.workers,
        ):
            with timer.phase("kcore", k=k):
                core = k_core(graph, k)
            if core.num_vertices <= k:
                return VCCResult([], k=k, algorithm=name, timer=timer)

            spool = SupervisedPool(
                make_pool=lambda: config.make_pool(core, k, spans_on),
                install_local=lambda: _init_worker(core, k, spans_on),
                backend=config.backend,
                supervision=supervision,
            )
            with spool:
                if resume is None:
                    if budget.expired():
                        return partial("deadline")
                    with timer.phase("seeding"):
                        components = _parallel_seeding(
                            spool, core, k, alpha, config
                        )
                if budget.expired():
                    return partial("deadline")
                if components:
                    components, expired = _merge_expand_loop(
                        spool, core, k, components, timer, budget
                    )
                degraded = spool.degraded
    except KeyboardInterrupt:
        return partial("interrupted")
    if expired:
        return partial("deadline")
    with timer.phase("finalize"):
        final = _finalize(components, k)
    return VCCResult(
        final,
        k=k,
        algorithm=name,
        timer=timer,
        status="degraded" if degraded else "completed",
    )


def _parallel_seeding(
    spool: SupervisedPool,
    core: Graph,
    k: int,
    alpha: int,
    config: ParallelConfig,
) -> list[set]:
    """QkVCS with parallel clique roots and parallel LkVCS fallback."""
    with obs.start_span("seeding.kbfs"):
        seeds = [set(s) for s in kbfs_seeds(core, k)]
    order = degeneracy_ordering(core)
    position = {u: i for i, u in enumerate(order)}
    payloads = [
        (position, chunk) for chunk in _chunks(order, 4 * config.workers)
    ]
    with obs.start_span(
        "parallel.stage", stage="seeding.cliques", tasks=len(payloads)
    ):
        for cliques, stats in spool.run(
            "seeding.cliques",
            _clique_roots_task,
            payloads,
            validate=_valid_cliques,
        ):
            _absorb(stats)
            seeds.extend(set(c) for c in cliques)
    covered: set = set().union(*seeds) if seeds else set()
    uncovered = sorted(
        (u for u in core.vertices() if u not in covered), key=core.degree
    )
    with obs.start_span(
        "parallel.stage", stage="seeding.lkvcs", tasks=len(uncovered)
    ):
        for found, stats in spool.run(
            "seeding.lkvcs",
            _lkvcs_task,
            [(u, alpha) for u in uncovered],
            validate=_valid_lkvcs,
        ):
            _absorb(stats)
            # Results arrive in submission order; respecting prior
            # coverage here mirrors the sequential sweep's skip rule.
            if found is not None and not (found <= covered):
                seeds.append(set(found))
                covered |= found
    return _dedupe(seeds)


def _merge_expand_loop(
    spool: SupervisedPool,
    core: Graph,
    k: int,
    components: list[set],
    timer: PhaseTimer,
    budget: Deadline,
) -> tuple[list[set], bool]:
    """Alternate parallel FBM rounds and parallel RME until stable.

    Returns ``(components, expired)`` — ``expired`` flags a deadline
    stop at a stage boundary, with ``components`` the partial pool.
    """
    while True:
        before = {frozenset(c) for c in components}
        with timer.phase("merging"):
            components = _parallel_merge(spool, core, k, components)
        if budget.expired():
            return components, True
        with timer.phase("expansion"):
            expanded = []
            with obs.start_span(
                "parallel.stage",
                stage="expansion",
                tasks=len(components),
            ):
                for grown, stats in spool.run(
                    "expansion",
                    _expand_task,
                    [frozenset(c) for c in components],
                    validate=_valid_expand,
                ):
                    _absorb(stats)
                    expanded.append(set(grown))
            components = expanded
        obs.count("pipeline.rounds")
        if {frozenset(c) for c in components} == before:
            return components, False
        if budget.expired():
            return components, True


def _parallel_merge(
    spool: SupervisedPool, core: Graph, k: int, components: list[set]
) -> list[set]:
    """Rounds of concurrent pair checks + union-find application.

    Merging accepted pairs through a union-find is sound even for
    chains: any two accepted sets that end up in one group overlap in a
    whole component of > k vertices, so the union stays k-connected.
    """
    pool_sets = [set(c) for c in components]
    while True:
        candidates = [
            (i, j)
            for i, j in itertools.combinations(range(len(pool_sets)), 2)
            if _touches(core, pool_sets[i], pool_sets[j])
        ]
        if not candidates:
            return pool_sets
        with obs.start_span(
            "parallel.stage", stage="merging", tasks=len(candidates)
        ):
            verdicts = spool.run(
                "merging",
                _merge_pair_task,
                [
                    (frozenset(pool_sets[i]), frozenset(pool_sets[j]), i, j)
                    for i, j in candidates
                ],
                validate=_valid_merge,
            )
            parent = list(range(len(pool_sets)))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            merged_any = False
            for (i, j), (ok, stats) in zip(candidates, verdicts):
                _absorb(stats)
                if ok:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[rj] = ri
                        merged_any = True
                        obs.count("parallel.unions")
        if not merged_any:
            return pool_sets
        groups: dict[int, set] = {}
        for idx, comp in enumerate(pool_sets):
            groups.setdefault(find(idx), set()).update(comp)
        pool_sets = list(groups.values())


def _touches(graph: Graph, side_a: set, side_b: set) -> bool:
    small, large = sorted((side_a, side_b), key=len)
    if small & large:
        return True
    return any(graph.neighbors(u) & large for u in small)
