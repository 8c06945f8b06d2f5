"""Sweep offered load past capacity and record the shed curve.

Usage:
    PYTHONPATH=src python scripts/bench_degradation.py [--output-dir DIR]
        [--trajectory-out FILE] [--quick]

Capacity is made *deterministic* instead of machine-dependent: the
daemon runs with 2 workers and an armed ``engine.resolve:*:hang:*``
fault (20 ms per resolve), so it can complete at most ~100 queries/s
no matter how fast the host is. The ``degrade`` scenario is then
driven at 0.5x, 1x, 1.5x and 2x that capacity; past saturation the
bounded admission queue must shed with ``overloaded`` (clients burn
their retry budget with jittered backoff) while the accepted requests
keep a sane p95 — graceful degradation, not collapse.

Artifacts:

* ``<output-dir>/run_table.csv`` + ``samples.jsonl`` — one row per
  load factor (see ``docs/loadtest.md`` for the shed taxonomy);
* ``benchmarks/trajectory/BENCH_pr7.json`` — the shed curve for the
  bench trajectory (commit this).

The committed ``benchmarks/baselines/degradation_gate.json``
thresholds were chosen from this script's 2x row — refresh both
together.
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
DEFAULT_OUTPUT_DIR = ROOT / "benchmarks" / "results" / "degradation"
DEFAULT_TRAJECTORY = ROOT / "benchmarks" / "trajectory" / "BENCH_pr7.json"

#: The planted smoke graph (same shape bench_loadtest.py drives).
GRAPH_ARGS = (3, 30, 4)
GRAPH_SEED = 7
TOPOLOGY = "planted-3x30-k4"

#: 2 daemon workers x 20 ms hang-calibrated resolve = ~100 queries/s,
#: independent of host speed (the hang dominates real service time).
DAEMON_WORKERS = 2
HANG_SECONDS = 0.02
CAPACITY_RPS = DAEMON_WORKERS / HANG_SECONDS
DAEMON_MAX_QUEUE = 8
DAEMON_ENV = {
    "REPRO_FAULT": "engine.resolve:*:hang:*",
    "REPRO_FAULT_HANG_SECONDS": str(HANG_SECONDS),
}

LOAD_FACTORS = (0.5, 1.0, 1.5, 2.0)


def _median(values) -> float:
    cleaned = [v for v in values if v == v]  # drop NaN
    return round(statistics.median(cleaned), 6) if cleaned else float("nan")


def summarise(rows_by_factor) -> dict:
    """Per-load-factor medians for the trajectory doc."""
    cases: dict[str, dict] = {}
    for factor, reps in sorted(rows_by_factor.items()):
        cases[f"serve-degrade/{factor:g}x"] = {
            "description": (
                f"degrade scenario at {factor:g}x hang-calibrated "
                f"capacity ({reps[0].offered_rps:g} rps offered vs "
                f"~{CAPACITY_RPS:g} rps servable), {reps[0].workers} "
                f"client workers, retry budget 3, daemon max-queue "
                f"{DAEMON_MAX_QUEUE}, {len(reps)} repetition(s)"
            ),
            "load_factor": factor,
            "offered_rps": reps[0].offered_rps,
            "achieved_rps_median": _median(r.achieved_rps for r in reps),
            "p50_latency_ms_median": _median(r.p50_latency_ms for r in reps),
            "p95_latency_ms_median": _median(r.p95_latency_ms for r in reps),
            "p99_latency_ms_median": _median(r.p99_latency_ms for r in reps),
            "failure_rate_max": max(r.failure_rate for r in reps),
            "shed_rate_median": _median(r.shed_rate for r in reps),
            "shed_requests_total": sum(r.shed_requests for r in reps),
            "retried_requests_total": sum(r.retried_requests for r in reps),
            "retries_total": sum(r.retries_total for r in reps),
            "serving_shed_total": sum(r.serving_shed for r in reps),
            "serving_internal_errors_total": sum(
                r.serving_internal_errors for r in reps
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
        "--quick",
        action="store_true",
        help="sweep only 0.5x and 2x (for a fast local check)",
    )
    args = parser.parse_args(argv)

    calibration_s = calibrate()
    args.output_dir.mkdir(parents=True, exist_ok=True)
    table_path = args.output_dir / "run_table.csv"
    samples_path = args.output_dir / "samples.jsonl"
    samples_path.write_text("", encoding="utf-8")

    factors = (0.5, 2.0) if args.quick else LOAD_FACTORS
    rows = []
    rows_by_factor: dict[float, list] = {}
    with tempfile.TemporaryDirectory(prefix="ripple-degrade-") as tmp:
        graph_path = Path(tmp) / "smoke.edges"
        write_edge_list(
            planted_kvcc_graph(*GRAPH_ARGS, seed=GRAPH_SEED), graph_path
        )
        for factor in factors:
            scenario = get_scenario("degrade").with_overrides(
                offered_rps=CAPACITY_RPS * factor
            )
            print(
                f"running {factor:g}x: {scenario.offered_rps:g} rps "
                f"offered vs ~{CAPACITY_RPS:g} rps hang-calibrated "
                f"capacity"
            )
            outcome = run_scenario(
                scenario,
                graph_path,
                topology=TOPOLOGY,
                daemon_workers=DAEMON_WORKERS,
                daemon_max_queue=DAEMON_MAX_QUEUE,
                daemon_env=DAEMON_ENV,
                calibration_s=calibration_s,
            )
            rows.extend(outcome.rows)
            rows_by_factor[factor] = list(outcome.rows)
            for repetition, samples in sorted(outcome.samples.items()):
                write_samples_jsonl(
                    samples_path, scenario.name, repetition, samples
                )

    write_run_table(table_path, rows)

    document = {
        "schema": "repro.bench-trajectory/1",
        "pr": 7,
        "date": datetime.date.today().isoformat(),
        "title": (
            "Graceful degradation: shed curve of ripple serve under "
            "admission control, swept past hang-calibrated capacity"
        ),
        "method": (
            "scripts/bench_degradation.py: the daemon runs 2 workers "
            "with an armed engine.resolve:*:hang:* fault (20 ms per "
            "resolve) so capacity is ~100 rps regardless of host "
            "speed; the degrade scenario (point-only, 16 client "
            "workers, retry budget 3) is offered 0.5x/1x/1.5x/2x that "
            "capacity open-loop; shed responses carry retry_after_ms "
            "and clients back off with seeded jitter; latency is "
            "measured from the scheduled arrival instant; warmup "
            "excluded; medians across repetitions."
        ),
        "calibration_s": round(calibration_s, 6),
        "topology": TOPOLOGY,
        "capacity_rps": CAPACITY_RPS,
        "daemon_max_queue": DAEMON_MAX_QUEUE,
        "cases": summarise(rows_by_factor),
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
            f"shed {case['shed_rate_median']:.4f}, "
            f"internal {case['serving_internal_errors_total']}, "
            f"max failure rate {case['failure_rate_max']:.4f}"
        )
    print(f"wrote {table_path}")
    print(f"wrote {args.trajectory_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
