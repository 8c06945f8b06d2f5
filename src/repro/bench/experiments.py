"""Experiment runners: one function per table/figure of the paper.

Each function computes the structured rows behind a table or figure of
the evaluation section; ``benchmarks/`` wraps them in pytest-benchmark
entries and renders them via :mod:`repro.bench.reporting`. Everything
here is deterministic given the dataset registry.

The row functions accept a ``budget_seconds`` wall-clock budget (a
:class:`repro.resilience.Deadline` threaded through every enumeration
that supports one): when it expires, the sweep stops at the next row
boundary and returns the rows computed so far, so a long experiment
interrupted by a cluster deadline still yields usable partial tables.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.bench.memory import measure_peak_memory
from repro.core.hierarchy import max_kvcc_level
from repro.core.result import VCCResult
from repro.core.ripple import (
    ripple,
    ripple_me,
    ripple_no_fbm,
    ripple_no_qkvcs,
    ripple_no_rme,
)
from repro.core.seeding import lkvcs_seeds, qkvcs
from repro.core.vcce_bu import vcce_bu
from repro.core.vcce_td import vcce_td
from repro.datasets.registry import DATASETS, Dataset
from repro.graph.adjacency import Graph
from repro.graph.kcore import k_core
from repro.metrics.accuracy import accuracy_report
from repro.parallel.executor import ParallelConfig, parallel_ripple
from repro.resilience.deadline import Deadline, as_deadline

__all__ = [
    "fig10_rows",
    "fig7_series",
    "fig8_rows",
    "fig9_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "table6_rows",
]


def _timed(action) -> tuple[VCCResult, float]:
    start = time.perf_counter()
    result = action()
    return result, time.perf_counter() - start


def table2_rows() -> list[list]:
    """Table II: dataset statistics."""
    rows = []
    for dataset in DATASETS.values():
        graph = dataset.graph()
        rows.append(
            [
                dataset.name,
                dataset.mirrors,
                graph.num_vertices,
                graph.num_edges,
                round(graph.average_degree(), 2),
                max_kvcc_level(graph),
            ]
        )
    return rows


def table3_rows(
    names: Sequence[str] | None = None,
    budget_seconds: Deadline | float | None = None,
) -> list[list]:
    """Table III: accuracy of RIPPLE vs VCCE-BU against exact results."""
    deadline = as_deadline(budget_seconds)
    rows = []
    for dataset in _selected(names):
        graph = dataset.graph()
        for k in dataset.ks:
            if deadline.expired():
                return rows
            exact = vcce_td(graph, k)
            ours = ripple(graph, k, deadline=deadline)
            baseline = vcce_bu(graph, k, deadline=deadline)
            if ours.is_partial or baseline.is_partial:
                # A partial enumeration would report bogus accuracy;
                # stop at the last complete row instead.
                return rows
            ours_acc = accuracy_report(ours.components, exact.components)
            base_acc = accuracy_report(
                baseline.components, exact.components
            )
            rows.append(
                [
                    dataset.name,
                    k,
                    round(ours_acc["F_same"], 2),
                    round(base_acc["F_same"], 2),
                    round(ours_acc["J_Index"], 2),
                    round(base_acc["J_Index"], 2),
                ]
            )
    return rows


def table4_rows(
    names: Sequence[str] = (
        "ca-condmat",
        "ca-dblp",
        "ca-mathscinet",
        "cit-patent",
    ),
) -> list[list]:
    """Table IV: RIPPLE vs RIPPLE-ME (time and accuracy)."""
    rows = []
    for dataset in _selected(names):
        graph = dataset.graph()
        for k in dataset.ks:
            exact = vcce_td(graph, k)
            fast, fast_time = _timed(lambda: ripple(graph, k))
            exact_me, me_time = _timed(lambda: ripple_me(graph, k, hops=1))
            fast_acc = accuracy_report(fast.components, exact.components)
            me_acc = accuracy_report(exact_me.components, exact.components)
            rows.append(
                [
                    dataset.name,
                    k,
                    round(fast_time, 3),
                    round(fast_acc["F_same"], 2),
                    round(fast_acc["J_Index"], 2),
                    round(me_time, 3),
                    round(me_acc["F_same"], 2),
                    round(me_acc["J_Index"], 2),
                ]
            )
    return rows


def table5_rows(
    names: Sequence[str] = (
        "socfb-konect",
        "ca-dblp",
        "sc-shipsec",
        "uk-2005",
        "it-2004",
    ),
    budget_seconds: Deadline | float | None = None,
) -> list[list]:
    """Table V: ablation of the three RIPPLE modules."""
    deadline = as_deadline(budget_seconds)
    variants = (
        ("RIPPLE", ripple),
        ("noQkVCS", ripple_no_qkvcs),
        ("noFBM", ripple_no_fbm),
        ("noRME", ripple_no_rme),
    )
    rows = []
    for dataset in _selected(names):
        if deadline.expired():
            return rows
        graph = dataset.graph()
        k = dataset.default_k
        exact = vcce_td(graph, k)
        for label, fn in variants:
            if deadline.expired():
                return rows
            result, seconds = _timed(lambda: fn(graph, k))
            acc = accuracy_report(result.components, exact.components)
            rows.append(
                [
                    dataset.name,
                    k,
                    label,
                    round(seconds, 3),
                    round(acc["F_same"], 2),
                    round(acc["J_Index"], 2),
                ]
            )
    return rows


def table6_rows(
    names: Sequence[str] = (
        "ca-condmat",
        "uk-2005",
        "arabic-2005",
        "ca-citeseer",
    ),
) -> list[list]:
    """Table VI: QkVCS seeding coverage and speedup over LkVCS.

    Coverage is measured on the k-core (as in the paper): the share of
    k-core vertices covered by kBFS components, by maximal cliques, by
    both stages together, and the wall-clock ratio of a full LkVCS
    seeding sweep to a full QkVCS run.
    """
    from repro.core.seeding import clique_seeds, kbfs_seeds

    rows = []
    for dataset in _selected(names):
        graph = dataset.graph()
        for k in dataset.ks:
            core = k_core(graph, k)
            if core.num_vertices == 0:
                continue
            start = time.perf_counter()
            quick_seeds = qkvcs(core, k)
            quick_time = time.perf_counter() - start
            start = time.perf_counter()
            lkvcs_seeds(core, k)
            baseline_time = time.perf_counter() - start
            kbfs_cover = _coverage(kbfs_seeds(core, k), core)
            clique_cover = _coverage(clique_seeds(core, k), core)
            total_cover = _coverage(quick_seeds, core)
            rows.append(
                [
                    dataset.name,
                    k,
                    round(100 * kbfs_cover, 2),
                    round(100 * clique_cover, 2),
                    round(100 * total_cover, 2),
                    round(baseline_time / max(quick_time, 1e-9), 2),
                ]
            )
    return rows


def _coverage(seeds: list[set], core: Graph) -> float:
    if core.num_vertices == 0:
        return 0.0
    covered: set = set().union(*seeds) if seeds else set()
    return len(covered) / core.num_vertices


def fig7_series(
    name: str,
    budget_seconds: Deadline | float | None = None,
) -> tuple[list[int], dict[str, list[float]]]:
    """Figure 7: running time of TD / BU / RIPPLE as k varies."""
    deadline = as_deadline(budget_seconds)
    dataset = DATASETS[name]
    graph = dataset.graph()
    ks = sorted(set(dataset.ks))
    times: dict[str, list[float]] = {
        "VCCE-TD": [],
        "VCCE-BU": [],
        "RIPPLE": [],
    }
    done = []
    for k in ks:
        if deadline.expired():
            break
        _, td_time = _timed(lambda: vcce_td(graph, k))
        _, bu_time = _timed(lambda: vcce_bu(graph, k))
        _, rp_time = _timed(lambda: ripple(graph, k))
        done.append(k)
        times["VCCE-TD"].append(round(td_time, 4))
        times["VCCE-BU"].append(round(bu_time, 4))
        times["RIPPLE"].append(round(rp_time, 4))
    return done, times


def fig8_rows(names: Sequence[str] | None = None) -> list[list]:
    """Figure 8: peak traced allocations of the three algorithms."""
    rows = []
    for dataset in _selected(names):
        graph = dataset.graph()
        k = dataset.default_k
        _, td_peak = measure_peak_memory(lambda: vcce_td(graph, k))
        _, bu_peak = measure_peak_memory(lambda: vcce_bu(graph, k))
        _, rp_peak = measure_peak_memory(lambda: ripple(graph, k))
        rows.append(
            [
                dataset.name,
                k,
                round(td_peak / 1024, 1),
                round(bu_peak / 1024, 1),
                round(rp_peak / 1024, 1),
            ]
        )
    return rows


def fig9_rows(names: Sequence[str] | None = None) -> list[list]:
    """Figure 9: share of RIPPLE's runtime per phase."""
    rows = []
    for dataset in _selected(names):
        graph = dataset.graph()
        k = dataset.default_k
        result = ripple(graph, k)
        shares = result.timer.proportions()
        rows.append(
            [
                dataset.name,
                k,
                round(100 * shares.get("seeding", 0.0), 1),
                round(100 * shares.get("merging", 0.0), 1),
                round(100 * shares.get("expansion", 0.0), 1),
                round(100 * shares.get("kcore", 0.0)
                      + 100 * shares.get("finalize", 0.0), 1),
            ]
        )
    return rows


def fig10_rows(
    name: str = "ca-dblp",
    worker_counts: Sequence[int] = (1, 2, 4, 8),
    backend: str = "process",
    budget_seconds: Deadline | float | None = None,
) -> list[list]:
    """Figure 10: parallel RIPPLE wall time and speedup vs workers."""
    deadline = as_deadline(budget_seconds)
    dataset = DATASETS[name]
    graph = dataset.graph()
    k = dataset.default_k
    rows = []
    base_time: float | None = None
    for workers in worker_counts:
        if deadline.expired():
            return rows
        config = ParallelConfig(workers=workers, backend=backend)
        _, seconds = _timed(lambda: parallel_ripple(graph, k, config))
        if base_time is None:
            base_time = seconds
        rows.append(
            [
                name,
                k,
                backend,
                workers,
                round(seconds, 3),
                round(base_time / max(seconds, 1e-9), 2),
            ]
        )
    return rows


def _selected(names: Sequence[str] | None) -> list[Dataset]:
    if names is None:
        return list(DATASETS.values())
    return [DATASETS[name] for name in names]
