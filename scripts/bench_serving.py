"""Measure cold vs. indexed vs. cached QkVCS latency; write the PR-5 row.

Usage:
    PYTHONPATH=src python scripts/bench_serving.py [--output FILE]

Every (vertex, k) query on the planted smoke graph is answered three
ways — cold (a fresh ``kvcc_containing`` enumeration per query), from
a prebuilt :class:`repro.serving.KvccIndex` with the result cache
disabled, and from a warm LRU cache — and the per-query medians land
in ``benchmarks/trajectory/BENCH_pr5.json``. The committed document is
what ``benchmarks/test_serving_latency.py`` checks the ≥10× indexed
speedup claim against, so regenerate it on the same class of machine
you quote it from.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.query import kvcc_containing  # noqa: E402
from repro.graph.generators import planted_kvcc_graph  # noqa: E402
from repro.serving import KvccIndex, QueryEngine  # noqa: E402

DEFAULT_OUTPUT = (
    Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "trajectory"
    / "BENCH_pr5.json"
)

#: The planted smoke graph: 3 planted 4-VCCs of 30 vertices.
GRAPH_ARGS = (3, 30, 4)
GRAPH_SEED = 7
KS = (2, 4)


def _median_latency(answer, queries) -> float:
    """Median seconds per query of ``answer(vertex, k)`` over ``queries``."""
    samples = []
    for vertex, k in queries:
        start = time.perf_counter()
        answer(vertex, k)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def measure() -> dict:
    graph = planted_kvcc_graph(*GRAPH_ARGS, seed=GRAPH_SEED)
    queries = [(vertex, k) for vertex in sorted(graph.vertices()) for k in KS]

    cold_s = _median_latency(
        lambda vertex, k: kvcc_containing(graph, vertex, k), queries
    )

    build_start = time.perf_counter()
    index = KvccIndex.build(graph)
    build_s = time.perf_counter() - build_start

    uncached = QueryEngine(graph, index, cache_size=0)
    indexed_s = _median_latency(uncached.query, queries)

    cached = QueryEngine(graph, index)
    for vertex, k in queries:  # warm every entry
        cached.query(vertex, k)
    cached_s = _median_latency(cached.query, queries)

    num_communities, size, k = GRAPH_ARGS
    case = f"qkvcs/planted-{num_communities}x{size}-k{k}"
    return {
        "schema": "repro.bench-trajectory/1",
        "pr": 5,
        "date": datetime.date.today().isoformat(),
        "title": (
            "Query serving: persistent KvccIndex + cached QueryEngine "
            "vs. per-query enumeration"
        ),
        "method": (
            "per-query wall medians over every (vertex, k) pair of the "
            "planted smoke graph, k in "
            f"{list(KS)}; cold = one kvcc_containing enumeration per "
            "query, indexed = QueryEngine on a prebuilt KvccIndex with "
            "cache_size=0, cached = the same engine after a full "
            "warming pass. index_build_s is the one-off cost the "
            "indexed/cached paths amortise."
        ),
        "queries": len(queries),
        "cases": {
            case: {
                "description": (
                    f"{len(queries)} QkVCS queries on {num_communities} "
                    f"planted {k}-VCCs of {size} vertices"
                ),
                "index_build_s": round(build_s, 6),
                "cold": {"median_s": round(cold_s, 9)},
                "indexed": {"median_s": round(indexed_s, 9)},
                "cached": {"median_s": round(cached_s, 9)},
                "speedup_indexed_vs_cold": round(cold_s / indexed_s, 1),
                "speedup_cached_vs_cold": round(cold_s / cached_s, 1),
            }
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"trajectory file to write (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    document = measure()
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(
        json.dumps(document, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )

    (case_name, case) = next(iter(document["cases"].items()))
    print(f"{case_name}: {document['queries']} queries")
    for source in ("cold", "indexed", "cached"):
        print(f"  {source:>7}: {case[source]['median_s'] * 1e6:10.1f} us/query")
    print(
        f"  indexed speedup {case['speedup_indexed_vs_cold']}x, "
        f"cached {case['speedup_cached_vs_cold']}x "
        f"(index built once in {case['index_build_s']:.3f}s)"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
