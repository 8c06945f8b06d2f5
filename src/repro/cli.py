"""Command-line interface: ``ripple`` (or ``python -m repro``).

Subcommands:

* ``enumerate`` — run any of the algorithms on an edge-list file and
  print (or save as JSON) the k-VCCs;
* ``verify`` — exactly audit a saved result against its graph
  (connectivity and maximality of every component);
* ``datasets`` — list the registered benchmark datasets;
* ``bench`` — regenerate one of the paper's tables/figures as text;
* ``stats diff`` — compare two saved ``repro.obs/1`` documents;
* ``index build`` / ``index inspect`` — materialise the k-VCC
  hierarchy into a persistent query index / describe a saved one;
* ``serve`` — answer QkVCS queries over line-delimited JSON (stdio or
  TCP) from an index, with live fallback (see ``docs/serving.md``);
* ``loadtest`` — spawn a serve daemon and measure it under open-loop
  concurrent traffic, writing ``run_table.csv`` + raw-sample JSONL
  capacity artifacts (see ``docs/loadtest.md``).

The top-level ``--stats`` flag (also accepted after ``enumerate``)
runs the command under a live :mod:`repro.obs` collector and appends
the counter/phase tables plus the hierarchical span tree;
``--stats-json FILE`` saves the same data as a ``repro.obs/1`` JSON
document; ``--trace-out FILE`` exports the span tree as Chrome
trace-event JSON (loadable in Perfetto / ``chrome://tracing``);
``--profile-memory`` additionally records per-span peak traced memory
via :mod:`tracemalloc` (see ``docs/observability.md``).

Exit codes (see ``docs/robustness.md``): 0 success, 1 verification
failures, 2 usage/input errors, 3 a ``--deadline`` expired (partial
results were printed), 4 the supervised pool degraded to sequential
execution, 130 interrupted (partial results were printed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections.abc import Sequence

from repro import obs
from repro.bench import reporting
from repro.core.ripple import ripple, ripple_me
from repro.core.vcce_bu import vcce_bu
from repro.core.vcce_td import vcce_td
from repro.errors import IndexCorruptionError, ReproError
from repro.graph.io import load_snap_graph, read_edge_list
from repro.obs.spans import render_span_tree, span_totals, to_chrome_trace
from repro.resilience.deadline import Deadline

# A module that only one command or flag uses is imported inside it,
# so every command loads only what it runs (tests/test_imports.py).

__all__ = ["build_parser", "main"]

_ALGORITHMS = {
    "ripple": ripple,
    "ripple-me": ripple_me,
    "vcce-td": vcce_td,
    "vcce-bu": vcce_bu,
}

#: Sequential algorithms that accept a ``deadline=`` keyword.
_DEADLINE_AWARE = {"ripple", "ripple-me", "vcce-bu"}

EXIT_ERROR = 2
EXIT_DEADLINE = 3
EXIT_DEGRADED = 4
EXIT_INTERRUPT = 130

_STATUS_EXIT_CODES = {
    "completed": 0,
    "deadline": EXIT_DEADLINE,
    "degraded": EXIT_DEGRADED,
    "interrupted": EXIT_INTERRUPT,
}

#: ``ripple bench`` experiments, each rendered from the
#: :mod:`repro.bench.experiments` module it is passed.
_BENCHES = {
    "table2": lambda experiments: reporting.render_table(
        "Table II: dataset statistics",
        ["dataset", "mirrors", "|V|", "|E|", "avg deg", "k_max"],
        experiments.table2_rows(),
    ),
    "table3": lambda experiments: reporting.render_table(
        "Table III: accuracy (RIPPLE vs VCCE-BU)",
        ["dataset", "k", "F_same RP", "F_same BU", "J_Index RP", "J_Index BU"],
        experiments.table3_rows(),
    ),
    "table4": lambda experiments: reporting.render_table(
        "Table IV: RIPPLE vs RIPPLE-ME",
        ["dataset", "k", "RP time", "RP F", "RP J", "ME time", "ME F", "ME J"],
        experiments.table4_rows(),
    ),
    "table5": lambda experiments: reporting.render_table(
        "Table V: ablation study",
        ["dataset", "k", "variant", "time", "F_same", "J_Index"],
        experiments.table5_rows(),
    ),
    "table6": lambda experiments: reporting.render_table(
        "Table VI: QkVCS seeding efficiency",
        ["dataset", "k", "kBFS %", "BK-MCQ %", "total %", "speedup"],
        experiments.table6_rows(),
    ),
    "fig7": lambda experiments: reporting.render_series(
        "Figure 7: runtime vs k on ca-mathscinet (seconds)",
        "k",
        *experiments.fig7_series("ca-mathscinet"),
    ),
    "fig8": lambda experiments: reporting.render_table(
        "Figure 8: peak traced memory (KiB)",
        ["dataset", "k", "VCCE-TD", "VCCE-BU", "RIPPLE"],
        experiments.fig8_rows(),
    ),
    "fig9": lambda experiments: reporting.render_table(
        "Figure 9: RIPPLE phase time shares (%)",
        ["dataset", "k", "seeding", "merging", "expansion", "other"],
        experiments.fig9_rows(),
    ),
    "fig10": lambda experiments: reporting.render_table(
        "Figure 10: parallel RIPPLE (process pool, ca-dblp)",
        ["dataset", "k", "backend", "workers", "time s", "speedup"],
        experiments.fig10_rows("ca-dblp", worker_counts=(1, 2, 4)),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="ripple",
        description="k-vertex connected component enumeration (RIPPLE)",
    )
    _add_stats_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser(
        "enumerate", help="enumerate k-VCCs of an edge-list file"
    )
    _add_stats_flags(enum)
    enum.add_argument("path", help="edge-list file (u v per line)")
    enum.add_argument("-k", type=int, required=True, help="connectivity")
    enum.add_argument(
        "--format",
        choices=("edgelist", "snap"),
        default="edgelist",
        dest="input_format",
        help="input format: 'edgelist' (permissive reader) or 'snap' "
        "(streaming loader: '#'/'%%' headers, self-loops and duplicate "
        "edges dropped with counters, '.gz' accepted; default: edgelist)",
    )
    enum.add_argument(
        "--algorithm",
        choices=sorted([*_ALGORITHMS, "parallel-ripple"]),
        default="ripple",
        help="which enumerator to run (default: ripple)",
    )
    enum.add_argument(
        "--workers",
        type=int,
        default=2,
        help="parallel-ripple: worker pool size (default 2)",
    )
    enum.add_argument(
        "--backend",
        choices=("process", "thread"),
        default="process",
        help="parallel-ripple: pool backend (default process)",
    )
    enum.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget; when it expires the run stops at the "
        "next stage boundary, prints partial results, and exits 3",
    )
    enum.add_argument(
        "--task-timeout",
        type=float,
        metavar="SECONDS",
        help="parallel-ripple: seconds before a worker task is "
        "declared hung and re-dispatched",
    )
    enum.add_argument(
        "--quiet",
        action="store_true",
        help="print only the summary line, not the components",
    )
    enum.add_argument(
        "--json",
        metavar="FILE",
        help="also save the result as a JSON document",
    )

    verify = sub.add_parser(
        "verify",
        help="audit a saved enumeration result (connectivity + maximality)",
    )
    verify.add_argument("graph", help="the edge-list file the result is for")
    verify.add_argument("result", help="a JSON result from enumerate --json")

    sub.add_parser("datasets", help="list the benchmark datasets")

    bench = sub.add_parser(
        "bench", help="regenerate one of the paper's tables"
    )
    bench.add_argument("experiment", choices=sorted(_BENCHES))

    stats = sub.add_parser(
        "stats", help="work with saved repro.obs/1 stats documents"
    )
    stats_sub = stats.add_subparsers(dest="stats_command", required=True)
    diff = stats_sub.add_parser(
        "diff",
        help="compare two stats documents (phases, counters, spans)",
    )
    diff.add_argument("baseline", help="repro.obs/1 JSON (--stats-json)")
    diff.add_argument("candidate", help="repro.obs/1 JSON to compare")

    gen = sub.add_parser(
        "generate",
        help="write a benchmark dataset or planted graph as an edge list",
    )
    gen.add_argument(
        "source",
        help="a dataset name (see `ripple datasets`) or 'planted'",
    )
    gen.add_argument("-o", "--output", required=True, help="output file")
    gen.add_argument(
        "--communities", type=int, default=3,
        help="planted: number of communities (default 3)",
    )
    gen.add_argument(
        "--size", type=int, default=30,
        help="planted: vertices per community (default 30)",
    )
    gen.add_argument(
        "-k", type=int, default=4,
        help="planted: connectivity of each community (default 4)",
    )
    gen.add_argument(
        "--seed", type=int, default=0, help="planted: RNG seed (default 0)"
    )

    index = sub.add_parser(
        "index",
        help="build or inspect a persistent k-VCC query index",
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    build = index_sub.add_parser(
        "build",
        help="materialise the k-VCC hierarchy of a graph into an index file",
    )
    build.add_argument("path", help="edge-list file (u v per line)")
    build.add_argument(
        "-o", "--output", required=True, help="index file to write"
    )
    build.add_argument(
        "--max-k",
        type=int,
        default=None,
        help="cap the indexed ceiling (default: index to exhaustion; "
        "queries above a capped ceiling fall back to live enumeration)",
    )
    inspect = index_sub.add_parser(
        "inspect", help="describe a saved index file"
    )
    inspect.add_argument("path", help="an index file from `ripple index build`")

    serve = sub.add_parser(
        "serve",
        help="answer k-VCC queries over line-delimited JSON "
        "(see docs/serving.md)",
    )
    serve.add_argument(
        "--graph",
        help="edge-list file to serve (enables live fallback and "
        "build-on-first-use when the index is missing or stale)",
    )
    serve.add_argument(
        "--index",
        help="index file from `ripple index build`; a missing file "
        "degrades to build-on-first-use when --graph is given",
    )
    serve.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="listen on TCP instead of stdio (PORT 0 picks a free port)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="TCP: maximum concurrently answered requests (default 4)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        metavar="SECONDS",
        help="per-request deadline; batches cut short return their "
        "completed prefix with a 'deadline' error code",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="TCP: bound on requests waiting for a worker before the "
        "daemon sheds with an 'overloaded' error (default 32)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="LRU result-cache capacity, 0 disables (default 1024)",
    )
    serve.add_argument(
        "--max-k",
        type=int,
        default=None,
        help="cap for an index built on first use (default: exhaustive)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        help="serve Prometheus text exposition on "
        "http://127.0.0.1:PORT/metrics (0 picks a free port; see "
        "docs/observability.md for the metric catalogue)",
    )
    serve.add_argument(
        "--access-log",
        metavar="PATH",
        help="append one JSONL record per request (id, op, class, "
        "outcome, queue/service/handle ms, cache tier, shed reason)",
    )

    top = sub.add_parser(
        "top",
        help="live console view of a running serve daemon "
        "(rps, shed, queue depths, handle-time tails)",
    )
    top.add_argument(
        "address",
        metavar="HOST:PORT",
        help="a running `ripple serve --tcp` daemon",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between stats polls (default 2)",
    )
    top.add_argument(
        "--count",
        type=int,
        default=None,
        help="stop after N frames (default: run until Ctrl-C)",
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="open-loop load-test a spawned serve daemon and write "
        "run_table.csv capacity artifacts (see docs/loadtest.md)",
    )
    loadtest.add_argument(
        "path", help="edge-list file the spawned daemon serves"
    )
    loadtest.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help="built-in scenario to run; repeatable (default: smoke)",
    )
    loadtest.add_argument(
        "--output-dir",
        default="loadtest-results",
        help="directory for run_table.csv + samples.jsonl "
        "(default loadtest-results)",
    )
    loadtest.add_argument(
        "--topology",
        help="topology label recorded in the run table "
        "(default: the graph file's stem)",
    )
    loadtest.add_argument(
        "--index",
        help="prebuilt index file handed to the daemon "
        "(default: build-on-first-use)",
    )
    loadtest.add_argument(
        "--rate", type=float, metavar="RPS",
        help="override the scenario's offered arrival rate",
    )
    loadtest.add_argument(
        "--duration", type=float, metavar="SECONDS",
        help="override the scenario's total run length",
    )
    loadtest.add_argument(
        "--warmup", type=float, metavar="SECONDS",
        help="override the scenario's warmup window",
    )
    loadtest.add_argument(
        "--workers", type=int,
        help="override the scenario's client connection count",
    )
    loadtest.add_argument(
        "--repetitions", type=int,
        help="override the scenario's repetition count",
    )
    loadtest.add_argument(
        "--seed", type=int, help="override the scenario's schedule seed"
    )
    loadtest.add_argument(
        "--arrival", choices=("poisson", "uniform"),
        help="override the scenario's arrival process",
    )
    loadtest.add_argument(
        "--max-k", type=int,
        help="override the scenario's query-k ceiling",
    )
    loadtest.add_argument(
        "--retry-budget", type=int,
        help="override the scenario's client retry budget (retries on "
        "overloaded/garbage/dropped responses with jittered backoff)",
    )
    loadtest.add_argument(
        "--daemon-workers", type=int, default=4,
        help="daemon-side concurrent request cap (default 4)",
    )
    loadtest.add_argument(
        "--daemon-max-queue", type=int,
        help="daemon-side admission queue bound (see `serve --max-queue`)",
    )
    loadtest.add_argument(
        "--request-timeout", type=float, metavar="SECONDS",
        help="per-request deadline inside the daemon",
    )
    loadtest.add_argument(
        "--daemon-access-log", metavar="PATH",
        help="daemon-side JSONL access log (one record per request; "
        "joins client-observed failures to server-side decisions by "
        "request_id)",
    )
    loadtest.add_argument(
        "--daemon-metrics-port", type=int, metavar="PORT",
        help="expose the daemon's /metrics endpoint during the run "
        "(0 picks a free port, printed to stderr)",
    )
    loadtest.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="harness wall-clock budget: when it expires the run stops "
        "at the next repetition boundary, completed rows are still "
        "written, and the exit code is 3",
    )
    return parser


def _add_stats_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the observability flags (top level and ``enumerate``)."""
    parser.add_argument(
        "--stats",
        action="store_true",
        default=argparse.SUPPRESS,
        help="collect repro.obs counters and print them after the run",
    )
    parser.add_argument(
        "--stats-json",
        metavar="FILE",
        default=argparse.SUPPRESS,
        help="also save the collected counters as repro.obs/1 JSON",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=argparse.SUPPRESS,
        help="export the span tree as Chrome trace-event JSON "
        "(open in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--profile-memory",
        action="store_true",
        default=argparse.SUPPRESS,
        help="record per-span peak traced memory (tracemalloc); "
        "requires --stats, --stats-json, or --trace-out",
    )


def _cmd_enumerate(args: argparse.Namespace, runinfo: dict) -> int:
    if args.input_format == "snap":
        graph = load_snap_graph(args.path)
    else:
        graph = read_edge_list(args.path, allow_self_loops=True)
    deadline = (
        Deadline(args.deadline) if args.deadline is not None else None
    )
    if args.algorithm == "parallel-ripple":
        from repro.parallel.executor import ParallelConfig, parallel_ripple
        from repro.resilience.supervisor import SupervisionConfig

        config = ParallelConfig(workers=args.workers, backend=args.backend)
        supervision = SupervisionConfig(task_timeout=args.task_timeout)
        result = parallel_ripple(
            graph,
            args.k,
            config,
            supervision=supervision,
            deadline=deadline,
        )
    else:
        if args.task_timeout is not None:
            print(
                "note: --task-timeout only applies to parallel-ripple; "
                "ignoring",
                file=sys.stderr,
            )
        algorithm = _ALGORITHMS[args.algorithm]
        if args.algorithm in _DEADLINE_AWARE:
            result = algorithm(graph, args.k, deadline=deadline)
        else:
            if deadline is not None:
                print(
                    f"note: --deadline is not supported by "
                    f"{args.algorithm}; ignoring",
                    file=sys.stderr,
                )
            result = algorithm(graph, args.k)
    runinfo["status"] = result.status
    print(result.summary())
    if result.is_partial:
        checkpointed = len(result.checkpoint or [])
        print(
            f"partial results ({result.status}): enumeration stopped at a "
            f"stage boundary; {checkpointed} component(s) checkpointed "
            f"for resumption (saved with --json)"
        )
    elif result.status == "degraded":
        print(
            "warning: worker pool degraded to sequential execution; "
            "results are complete"
        )
    if not args.quiet:
        for index, component in enumerate(result.components, start=1):
            members = " ".join(sorted(map(str, component)))
            print(f"component {index} ({len(component)} vertices): {members}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
        print(f"result saved to {args.json}")
    return _STATUS_EXIT_CODES.get(result.status, 0)


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.result import VCCResult
    from repro.core.verify import verify_result

    graph = read_edge_list(args.graph, allow_self_loops=True)
    with open(args.result, encoding="utf-8") as handle:
        result = VCCResult.from_json(handle.read())
    reports = verify_result(graph, result)
    failures = 0
    for report in reports:
        print(report.describe())
        if not report.is_valid_kvcc:
            failures += 1
    verdict = "all components verified" if not failures else (
        f"{failures} of {len(reports)} components failed verification"
    )
    print(verdict)
    return 0 if not failures else 1


def _cmd_datasets() -> int:
    from repro.datasets.registry import DATASETS

    rows = [
        [d.name, d.mirrors, ",".join(map(str, d.ks)), d.why]
        for d in DATASETS.values()
    ]
    print(
        reporting.render_table(
            "Benchmark datasets",
            ["name", "mirrors", "k values", "property preserved"],
            rows,
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import experiments

    print(_BENCHES[args.experiment](experiments))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets.registry import get_dataset
    from repro.graph.generators import planted_kvcc_graph
    from repro.graph.io import write_edge_list

    if args.source == "planted":
        graph = planted_kvcc_graph(
            args.communities, args.size, args.k, seed=args.seed
        )
    else:
        graph = get_dataset(args.source).graph()
    write_edge_list(graph, args.output)
    print(
        f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges "
        f"to {args.output}"
    )
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from repro.serving import KvccIndex

    if args.index_command == "build":
        graph = read_edge_list(args.path, allow_self_loops=True)
        index = KvccIndex.build(graph, max_k=args.max_k)
        index.save(args.output)
        print(
            f"index saved to {args.output}: {index.num_vertices} vertices, "
            f"{index.num_edges} edges, ceiling k={index.ceiling} "
            f"({'complete' if index.complete else f'capped at {index.max_k}'})"
        )
        return 0
    index = KvccIndex.load(args.path)
    print(
        f"{args.path}: repro.kvcc-index/1, fingerprint "
        f"{index.fingerprint[:16]}…"
    )
    print(
        f"graph: {index.num_vertices} vertices, {index.num_edges} edges; "
        f"ceiling k={index.ceiling} "
        f"({'complete' if index.complete else f'capped at {index.max_k}'})"
    )
    depth = index.membership_levels()
    rows = [
        [
            k,
            len(components),
            ", ".join(str(len(c)) for c in components),
            sum(1 for level in depth.values() if level == k),
        ]
        for k, components in index.levels.items()
    ]
    print(
        reporting.render_table(
            "Indexed levels",
            ["k", "components", "sizes", "vertices deepest here"],
            rows,
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.serving import (
        KvccIndex,
        QueryEngine,
        ServeSettings,
        serve_stdio,
        serve_tcp,
    )

    graph = (
        read_edge_list(args.graph, allow_self_loops=True)
        if args.graph
        else None
    )
    index = None
    if args.index:
        if os.path.exists(args.index):
            try:
                index = KvccIndex.load(args.index)
            except IndexCorruptionError as exc:
                if graph is None:
                    print(f"error: {exc}", file=sys.stderr)
                    return EXIT_ERROR
                print(
                    f"warning: {exc}; degrading to build-on-first-use "
                    f"from {args.graph}",
                    file=sys.stderr,
                )
        elif graph is None:
            print(
                f"error: index file {args.index} does not exist and no "
                f"--graph was given to build one from",
                file=sys.stderr,
            )
            return EXIT_ERROR
        else:
            print(
                f"note: index file {args.index} missing; degrading to "
                f"build-on-first-use from {args.graph}",
                file=sys.stderr,
            )
    if graph is None and index is None:
        print("error: serve needs --graph, --index, or both", file=sys.stderr)
        return EXIT_ERROR
    engine = QueryEngine(
        graph, index, cache_size=args.cache_size, max_k=args.max_k
    )
    settings = ServeSettings(
        request_timeout=args.request_timeout,
        workers=args.workers,
        max_queue=args.max_queue,
        access_log=args.access_log,
        # The reload op re-reads the served file, so a load-test (or
        # operator) can mutate the graph on disk and storm the stale
        # detector without restarting the daemon.
        reloader=(
            (lambda: read_edge_list(args.graph, allow_self_loops=True))
            if args.graph
            else None
        ),
    )
    # The stats op reports serving.* counters; give the daemon a real
    # collector even when the operator didn't pass --stats (which would
    # have installed one around the whole command already).
    scope = (
        obs.collecting()
        if isinstance(obs.get_collector(), obs.NullCollector)
        else contextlib.nullcontext()
    )
    with scope:
        if args.tcp:
            import threading

            host, _, port_text = args.tcp.rpartition(":")
            try:
                port = int(port_text)
            except ValueError:
                print(
                    f"error: --tcp expects HOST:PORT, got {args.tcp!r}",
                    file=sys.stderr,
                )
                return EXIT_ERROR
            handle = serve_tcp(
                engine,
                settings,
                host=host or "127.0.0.1",
                port=port,
                background=True,
            )
            bound_host, bound_port = handle.address
            metrics = None
            if args.metrics_port is not None:
                from repro.serving.metrics import MetricsServer

                metrics = MetricsServer(
                    collector=obs.get_collector(),
                    admission=handle.admission,
                    engine=engine,
                    started_at=handle.context.started_at,
                    port=args.metrics_port,
                ).start()
            print(
                f"ripple serve: listening on {bound_host}:{bound_port} "
                f"(Ctrl-C to stop)",
                file=sys.stderr,
                flush=True,
            )
            if metrics is not None:
                print(
                    f"ripple serve: metrics on {metrics.url}",
                    file=sys.stderr,
                    flush=True,
                )
            try:
                threading.Event().wait()
            finally:
                if metrics is not None:
                    metrics.stop()
                handle.stop()
            return 0
        metrics = None
        if args.metrics_port is not None:
            from repro.serving.metrics import MetricsServer

            metrics = MetricsServer(
                collector=obs.get_collector(),
                engine=engine,
                port=args.metrics_port,
            ).start()
            print(
                f"ripple serve: metrics on {metrics.url}",
                file=sys.stderr,
                flush=True,
            )
        try:
            served = serve_stdio(
                engine, settings, in_stream=sys.stdin, out_stream=sys.stdout
            )
        finally:
            if metrics is not None:
                metrics.stop()
    print(f"ripple serve: session over, {served} request(s)", file=sys.stderr)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serving.top import run_top

    host, _, port_text = args.address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(
            f"error: expected HOST:PORT, got {args.address!r}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    return run_top(
        (host or "127.0.0.1", port),
        interval=args.interval,
        count=args.count,
    )


def _cmd_loadtest(args: argparse.Namespace, runinfo: dict) -> int:
    import os

    from repro.bench.perfgate import calibrate
    from repro.loadtest import (
        get_scenario,
        run_scenario,
        write_run_table,
        write_samples_jsonl,
    )

    overrides = {
        key: value
        for key, value in (
            ("offered_rps", args.rate),
            ("duration_s", args.duration),
            ("warmup_s", args.warmup),
            ("workers", args.workers),
            ("repetitions", args.repetitions),
            ("seed", args.seed),
            ("arrival", args.arrival),
            ("max_k", args.max_k),
            ("retry_budget", args.retry_budget),
        )
        if value is not None
    }
    scenarios = [
        get_scenario(name).with_overrides(**overrides)
        for name in (args.scenarios or ["smoke"])
    ]
    os.makedirs(args.output_dir, exist_ok=True)
    table_path = os.path.join(args.output_dir, "run_table.csv")
    samples_path = os.path.join(args.output_dir, "samples.jsonl")
    # Truncate a previous run's samples: the run table is rewritten
    # whole, so the JSONL must match it.
    open(samples_path, "w", encoding="utf-8").close()
    deadline = Deadline(args.deadline) if args.deadline is not None else None
    calibration_s = calibrate()
    status = "completed"
    rows = []
    for scenario in scenarios:
        print(
            f"loadtest: scenario {scenario.name!r} — "
            f"{scenario.offered_rps:g} rps offered ({scenario.arrival}), "
            f"{scenario.duration_s:g}s × {scenario.repetitions} "
            f"repetition(s), {scenario.workers} client worker(s)",
            file=sys.stderr,
        )
        outcome = run_scenario(
            scenario,
            args.path,
            topology=args.topology,
            index_path=args.index,
            daemon_workers=args.daemon_workers,
            request_timeout=args.request_timeout,
            calibration_s=calibration_s,
            deadline=deadline,
            daemon_max_queue=args.daemon_max_queue,
            daemon_access_log=args.daemon_access_log,
            daemon_metrics_port=args.daemon_metrics_port,
        )
        rows.extend(outcome.rows)
        for repetition, samples in sorted(outcome.samples.items()):
            write_samples_jsonl(
                samples_path, scenario.name, repetition, samples
            )
        if outcome.status != "completed":
            status = outcome.status
            print(
                f"loadtest: harness deadline expired during "
                f"{scenario.name!r}; stopping with "
                f"{len(rows)} completed row(s)",
                file=sys.stderr,
            )
            break
    write_run_table(table_path, rows)
    print(
        reporting.render_table(
            "Load test: one row per (scenario, repetition)",
            ["run", "offered", "achieved", "p50 ms", "p95 ms", "p99 ms",
             "fail", "shed", "cpu %"],
            [
                [
                    f"{row.scenario}#{row.repetition}",
                    f"{row.offered_rps:g}",
                    f"{row.achieved_rps:.1f}",
                    f"{row.p50_latency_ms:.2f}",
                    f"{row.p95_latency_ms:.2f}",
                    f"{row.p99_latency_ms:.2f}",
                    f"{row.failure_rate:.4f}",
                    f"{row.shed_rate:.4f}",
                    "-"
                    if row.cpu_usage_avg != row.cpu_usage_avg
                    else f"{row.cpu_usage_avg:.1f}",
                ]
                for row in rows
            ],
        )
    )
    print(f"run table saved to {table_path} ({len(rows)} rows)")
    print(f"raw samples saved to {samples_path}")
    runinfo["status"] = status
    return _STATUS_EXIT_CODES.get(status, 0)


def _load_stats_doc(path: str) -> obs.Collector:
    with open(path, encoding="utf-8") as handle:
        return obs.Collector.from_json(handle.read())


def _fmt_rel(base: float, cand: float) -> str:
    """``cand`` relative to ``base`` as a signed percentage."""
    if base == 0:
        return "n/a" if cand == 0 else "new"
    return f"{(cand - base) / base:+.1%}"


def _cmd_stats_diff(args: argparse.Namespace) -> int:
    base = _load_stats_doc(args.baseline)
    cand = _load_stats_doc(args.candidate)

    phase_rows = [
        [
            name,
            f"{base.phases.get(name, 0.0):.6f}",
            f"{cand.phases.get(name, 0.0):.6f}",
            _fmt_rel(base.phases.get(name, 0.0), cand.phases.get(name, 0.0)),
        ]
        for name in sorted(set(base.phases) | set(cand.phases))
    ]
    if phase_rows:
        print(
            reporting.render_table(
                f"Phase seconds: {args.baseline} vs {args.candidate}",
                ["phase", "baseline", "candidate", "delta"],
                phase_rows,
            )
        )
    counter_rows = [
        [
            name,
            base.counter(name),
            cand.counter(name),
            f"{cand.counter(name) - base.counter(name):+d}",
        ]
        for name in sorted(set(base.counters) | set(cand.counters))
        if base.counter(name) != cand.counter(name)
    ]
    if counter_rows:
        print()
        print(
            reporting.render_table(
                "Counters (only rows that changed)",
                ["counter", "baseline", "candidate", "delta"],
                counter_rows,
            )
        )
    elif base.counters or cand.counters:
        print()
        print("counters: identical")

    base_spans = span_totals(base.spans.roots) if base.spans else {}
    cand_spans = span_totals(cand.spans.roots) if cand.spans else {}
    span_rows = [
        [
            name,
            f"{base_spans.get(name, {}).get('wall', 0.0):.6f}",
            f"{cand_spans.get(name, {}).get('wall', 0.0):.6f}",
            _fmt_rel(
                base_spans.get(name, {}).get("wall", 0.0),
                cand_spans.get(name, {}).get("wall", 0.0),
            ),
            _fmt_rel(
                base_spans.get(name, {}).get("mem_peak", 0),
                cand_spans.get(name, {}).get("mem_peak", 0),
            ),
        ]
        for name in sorted(set(base_spans) | set(cand_spans))
    ]
    if span_rows:
        print()
        print(
            reporting.render_table(
                "Span wall seconds / peak memory",
                ["span", "baseline s", "candidate s", "wall", "mem"],
                span_rows,
            )
        )
    return 0


def _dispatch(args: argparse.Namespace, runinfo: dict) -> int:
    if args.command == "enumerate":
        return _cmd_enumerate(args, runinfo)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "stats":
        return _cmd_stats_diff(args)
    if args.command == "index":
        return _cmd_index(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "loadtest":
        return _cmd_loadtest(args, runinfo)
    return _cmd_bench(args)


def _emit_stats(
    collector: obs.Collector,
    show_tables: bool,
    stats_json: str | None,
    trace_out: str | None = None,
    status: str | None = None,
) -> None:
    """Print the counter/phase/span tables and/or dump JSON exports."""
    if show_tables:
        counter_rows = [
            [name, value]
            for name, value in sorted(collector.counters.items())
        ]
        print()
        print(
            reporting.render_table(
                "Run statistics: counters (repro.obs)",
                ["counter", "value"],
                counter_rows,
            )
        )
        phase_rows = [
            [name, f"{seconds:.6f}"]
            for name, seconds in sorted(collector.phases.items())
        ]
        if phase_rows:
            print()
            print(
                reporting.render_table(
                    "Run statistics: phase seconds (repro.obs)",
                    ["phase", "seconds"],
                    phase_rows,
                )
            )
        recorder = collector.spans
        if recorder is not None and not recorder.is_empty():
            print()
            print("Run statistics: span tree (repro.obs)")
            print(render_span_tree(recorder.roots, recorder.dropped))
    if stats_json:
        # The run's end status rides along in the repro.obs/1 document
        # (unknown keys are ignored by Collector.from_json), so a
        # deadline-stopped or degraded run is identifiable from its
        # stats dump alone.
        payload = json.loads(collector.to_json())
        if status is not None:
            payload["status"] = status
        with open(stats_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"stats saved to {stats_json}")
    if trace_out:
        recorder = collector.spans
        roots = recorder.roots if recorder is not None else []
        dropped = recorder.dropped if recorder is not None else 0
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(to_chrome_trace(roots, dropped), handle)
        print(f"trace saved to {trace_out}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    want_stats = getattr(args, "stats", False)
    stats_json = getattr(args, "stats_json", None)
    trace_out = getattr(args, "trace_out", None)
    profile_memory = getattr(args, "profile_memory", False)
    runinfo: dict = {}
    try:
        if want_stats or stats_json or trace_out:
            collector = obs.Collector()
            collector.enable_spans()
            started_tracemalloc = False
            if profile_memory:
                import tracemalloc

                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                    started_tracemalloc = True
            try:
                with obs.collecting(collector):
                    return _dispatch(args, runinfo)
            finally:
                # Emitted even when the command is unwinding (deadline,
                # interrupt, error): partial statistics beat none.
                if started_tracemalloc:
                    tracemalloc.stop()
                _emit_stats(
                    collector,
                    want_stats,
                    stats_json,
                    trace_out,
                    status=runinfo.get("status"),
                )
        elif profile_memory:
            print(
                "note: --profile-memory needs --stats, --stats-json, or "
                "--trace-out; ignoring",
                file=sys.stderr,
            )
        return _dispatch(args, runinfo)
    except KeyboardInterrupt:
        # The pipelines convert in-flight interrupts into partial
        # results (status "interrupted", exit 130); this catches an
        # interrupt landing outside them — exit quietly, no traceback.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
