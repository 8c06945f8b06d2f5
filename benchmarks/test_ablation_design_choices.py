"""Ablation benches for the design choices DESIGN.md §5 calls out.

These go beyond the paper's Table V (which ablates the three RIPPLE
modules) and quantify the implementation-level choices:

1. **flow cutoff at k** — every connectivity question the pipelines ask
   is a threshold test, so a flow query stops after k augmenting paths;
2. **merge-first round ordering** in Algorithm 5;
3. **sparse certificates** in the top-down cut search;
4. **ME neighbourhood scope** — the accuracy/time dial the paper's
   conclusion advertises ("flexible control of the local search step
   size").
"""

import time

from repro.bench import render_table
from repro.core import vcce_td
from repro.core.pipeline import bottom_up_pipeline
from repro.core.ripple import ripple_me
from repro.datasets import DATASETS
from repro.flow import VertexSplitNetwork, find_vertex_cut
from repro.metrics import accuracy_report


def test_ablation_flow_cutoff(benchmark, emit):
    """Threshold flows (cutoff=k) vs full max-flows on σ-style queries.

    The workload is a wide circulant whose boundary vertices have ~12
    disjoint paths into the seed: a threshold test at k=4 stops after 4
    augmenting rounds, the full flow runs all ~12.
    """
    from repro.graph import circulant_graph

    k = 4
    graph = circulant_graph(200, 12)
    members = set(range(100))
    candidates = sorted(graph.external_boundary(members))
    network = VertexSplitNetwork(
        graph, members | set(candidates), virtual_sources={"s": members}
    )

    def run(cutoff):
        start = time.perf_counter()
        for _ in range(20):  # repeat for measurable timings
            for u in candidates:
                network.max_flow(u, "s", cutoff=cutoff)
        return time.perf_counter() - start

    with_cutoff = benchmark.pedantic(
        lambda: run(k), rounds=1, iterations=1
    )
    full = run(float("inf"))
    emit(
        "ablation_flow_cutoff",
        render_table(
            "Ablation: flow cutoff at k vs full max-flow "
            f"({20 * len(candidates)} σ-queries, C200(1..12), k={k})",
            ["variant", "seconds"],
            [["cutoff=k", round(with_cutoff, 4)],
             ["full flow", round(full, 4)]],
        ),
    )
    # the full flow does strictly more augmentation work
    assert full > with_cutoff


def test_ablation_round_ordering(benchmark, emit):
    """Merge-first (the paper's choice) vs expand-first rounds."""
    dataset = DATASETS["ca-dblp"]
    graph = dataset.graph()
    k = dataset.default_k
    exact = vcce_td(graph, k)

    def run(order):
        start = time.perf_counter()
        result = bottom_up_pipeline(graph, k, order=order)
        return result, time.perf_counter() - start

    (merge_first, mf_time) = benchmark.pedantic(
        lambda: run("merge_first"), rounds=1, iterations=1
    )
    expand_first, ef_time = run("expand_first")
    mf_acc = accuracy_report(merge_first.components, exact.components)
    ef_acc = accuracy_report(expand_first.components, exact.components)
    emit(
        "ablation_round_ordering",
        render_table(
            f"Ablation: round ordering ({dataset.name}, k={k})",
            ["order", "seconds", "F_same", "J_Index"],
            [
                ["merge-first", round(mf_time, 3),
                 round(mf_acc["F_same"], 2), round(mf_acc["J_Index"], 2)],
                ["expand-first", round(ef_time, 3),
                 round(ef_acc["F_same"], 2), round(ef_acc["J_Index"], 2)],
            ],
        ),
    )
    # Both orderings are sound; accuracy must agree on planted data.
    assert abs(mf_acc["F_same"] - ef_acc["F_same"]) < 5.0


def test_ablation_sparse_certificate(benchmark, emit):
    """Cut search on the CKT certificate vs on the raw dense graph.

    The certificate earns its keep when (a) the graph is dense
    (m ≫ k(n-1)) *and* (b) the common-neighbour pruning rule cannot
    shortcut the flows — i.e. far-apart pairs share few neighbours.
    A wide circulant is exactly that regime: the full certification
    scan must run Θ(n) flows, each 7–8× cheaper on the certificate.
    """
    from repro.graph import circulant_graph

    graph = circulant_graph(300, 30)  # 60-connected, m = 30n
    k = 4

    def run(certificate):
        start = time.perf_counter()
        cut = find_vertex_cut(graph, k, certificate=certificate)
        return cut, time.perf_counter() - start

    (cert_cut, cert_time) = benchmark.pedantic(
        lambda: run(True), rounds=1, iterations=1
    )
    raw_cut, raw_time = run(False)
    emit(
        "ablation_sparse_certificate",
        render_table(
            f"Ablation: CKT sparse certificate in find_vertex_cut "
            f"(n={graph.num_vertices}, m={graph.num_edges}, k={k})",
            ["variant", "seconds", "cut found"],
            [
                ["certificate", round(cert_time, 4), cert_cut is not None],
                ["raw graph", round(raw_time, 4), raw_cut is not None],
            ],
        ),
    )
    # Both agree there is no small cut, and the sparse search is
    # genuinely cheaper on this flow-bound workload.
    assert cert_cut is None and raw_cut is None
    assert cert_time < raw_time


def test_ablation_me_scope(benchmark, emit):
    """RIPPLE-ME accuracy/time as the expansion scope widens.

    The paper's conclusion: ME gives the user a dial between speed
    (small neighbourhood) and accuracy (wide neighbourhood).
    """
    dataset = DATASETS["ca-dblp"]
    graph = dataset.graph()
    k = dataset.default_k
    exact = vcce_td(graph, k)

    def sweep():
        rows = []
        for hops in (1, 2, None):
            start = time.perf_counter()
            result = ripple_me(graph, k, hops=hops)
            seconds = time.perf_counter() - start
            acc = accuracy_report(result.components, exact.components)
            rows.append(
                [
                    "unbounded" if hops is None else f"{hops}-hop",
                    round(seconds, 3),
                    round(acc["F_same"], 2),
                    round(acc["J_Index"], 2),
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ablation_me_scope",
        render_table(
            f"Ablation: ME scope sweep ({dataset.name}, k={k})",
            ["scope", "seconds", "F_same", "J_Index"],
            rows,
        ),
    )
    f_values = [row[2] for row in rows]
    # widening the scope never loses accuracy
    assert f_values == sorted(f_values), rows
