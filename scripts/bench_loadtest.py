"""Load-test the serving tier and write the PR-6 capacity trajectory.

Usage:
    PYTHONPATH=src python scripts/bench_loadtest.py [--output-dir DIR]
        [--trajectory-out FILE] [--scenario NAME ...] [--quick]

Spawns a fresh ``ripple serve`` daemon per repetition on the planted
smoke graph (3 planted 4-VCCs of 30 vertices) and drives the built-in
scenarios at it open-loop. Artifacts:

* ``<output-dir>/run_table.csv`` + ``samples.jsonl`` — the capacity
  record (one row per scenario×repetition, see ``docs/loadtest.md``);
* ``benchmarks/trajectory/BENCH_pr6.json`` — per-scenario medians for
  the bench trajectory (commit this; regenerate on the same class of
  machine you quote it from).

The committed ``benchmarks/baselines/loadtest_gate.json`` thresholds
were chosen from this script's ``smoke`` rows — refresh both together.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench.perfgate import calibrate  # noqa: E402
from repro.graph.generators import planted_kvcc_graph  # noqa: E402
from repro.graph.io import write_edge_list  # noqa: E402
from repro.loadtest import (  # noqa: E402
    get_scenario,
    run_scenario,
    write_run_table,
    write_samples_jsonl,
)

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT_DIR = ROOT / "benchmarks" / "results" / "loadtest"
DEFAULT_TRAJECTORY = ROOT / "benchmarks" / "trajectory" / "BENCH_pr6.json"

#: The planted smoke graph (same shape bench_serving.py measures).
GRAPH_ARGS = (3, 30, 4)
GRAPH_SEED = 7
TOPOLOGY = "planted-3x30-k4"

DEFAULT_SCENARIOS = ("point", "mixed", "storm", "smoke")


def _median(values) -> float:
    cleaned = [v for v in values if v == v]  # drop NaN
    return round(statistics.median(cleaned), 6) if cleaned else float("nan")


def summarise(rows) -> dict:
    """Per-scenario medians across repetitions for the trajectory doc."""
    cases: dict[str, dict] = {}
    for name in sorted({row.scenario for row in rows}):
        reps = [row for row in rows if row.scenario == name]
        cases[f"serve-load/{name}"] = {
            "description": (
                f"{name} scenario on {TOPOLOGY}: "
                f"{reps[0].offered_rps:g} rps offered open-loop, "
                f"{reps[0].workers} client workers, "
                f"{len(reps)} repetition(s)"
            ),
            "offered_rps": reps[0].offered_rps,
            "achieved_rps_median": _median(r.achieved_rps for r in reps),
            "p50_latency_ms_median": _median(r.p50_latency_ms for r in reps),
            "p95_latency_ms_median": _median(r.p95_latency_ms for r in reps),
            "p99_latency_ms_median": _median(r.p99_latency_ms for r in reps),
            "failure_rate_max": max(r.failure_rate for r in reps),
            "cpu_usage_avg_median": _median(r.cpu_usage_avg for r in reps),
            "rss_peak_mb_max": max(r.rss_peak_mb for r in reps),
            "stale_rebuilds_total": sum(
                r.serving_index_stale_rebuilds for r in reps
            ),
        }
    return cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=DEFAULT_OUTPUT_DIR,
        help=f"run_table.csv / samples.jsonl directory "
        f"(default {DEFAULT_OUTPUT_DIR})",
    )
    parser.add_argument(
        "--trajectory-out",
        type=Path,
        default=DEFAULT_TRAJECTORY,
        help=f"trajectory document to write (default {DEFAULT_TRAJECTORY})",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help=f"scenario to run; repeatable "
        f"(default: {' '.join(DEFAULT_SCENARIOS)})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="single repetition per scenario (for a fast local check)",
    )
    args = parser.parse_args(argv)

    calibration_s = calibrate()
    args.output_dir.mkdir(parents=True, exist_ok=True)
    table_path = args.output_dir / "run_table.csv"
    samples_path = args.output_dir / "samples.jsonl"
    samples_path.write_text("", encoding="utf-8")

    rows = []
    with tempfile.TemporaryDirectory(prefix="ripple-loadtest-") as tmp:
        graph_path = Path(tmp) / "smoke.edges"
        write_edge_list(
            planted_kvcc_graph(*GRAPH_ARGS, seed=GRAPH_SEED), graph_path
        )
        for name in args.scenarios or DEFAULT_SCENARIOS:
            scenario = get_scenario(name)
            if args.quick:
                scenario = scenario.with_overrides(repetitions=1)
            print(
                f"running {scenario.name!r}: {scenario.offered_rps:g} rps "
                f"x {scenario.duration_s:g}s x {scenario.repetitions} rep(s)"
            )
            outcome = run_scenario(
                scenario,
                graph_path,
                topology=TOPOLOGY,
                calibration_s=calibration_s,
            )
            rows.extend(outcome.rows)
            for repetition, samples in sorted(outcome.samples.items()):
                write_samples_jsonl(
                    samples_path, scenario.name, repetition, samples
                )

    write_run_table(table_path, rows)

    document = {
        "schema": "repro.bench-trajectory/1",
        "pr": 6,
        "date": datetime.date.today().isoformat(),
        "title": (
            "Serving under load: open-loop capacity of the ripple serve "
            "daemon (spawned subprocess, concurrent TCP clients)"
        ),
        "method": (
            "scripts/bench_loadtest.py: per scenario, a fresh daemon "
            "subprocess per repetition on the planted smoke graph; "
            "precomputed seeded open-loop schedules (latency measured "
            "from the scheduled arrival instant, so queueing counts); "
            "warmup excluded; CPU/RSS polled from /proc of the daemon; "
            "medians across repetitions. calibration_s is the "
            "repro.bench.perfgate.calibrate busy loop on this machine — "
            "the load gate rescales its thresholds by it."
        ),
        "calibration_s": round(calibration_s, 6),
        "topology": TOPOLOGY,
        "cases": summarise(rows),
    }
    args.trajectory_out.parent.mkdir(parents=True, exist_ok=True)
    args.trajectory_out.write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )

    for name, case in document["cases"].items():
        print(
            f"{name}: {case['achieved_rps_median']:.1f}/"
            f"{case['offered_rps']:g} rps, "
            f"p95 {case['p95_latency_ms_median']:.2f} ms, "
            f"max failure rate {case['failure_rate_max']:.4f}"
        )
    print(f"wrote {table_path}")
    print(f"wrote {args.trajectory_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
