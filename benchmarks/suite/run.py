"""The repository benchmark: four workloads, every metric, every check.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--quick]

Builds each workload's input from ``--seed``, runs the program the way
users run it (``ripple enumerate`` processes; a ``ripple serve`` daemon
over TCP), checks every output, prints every metric with its unit, and
ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Each workload takes ``--seconds`` (default: ``run_seconds`` of
``BENCHMARK.json``) from the start of its input generation: set-up,
oracle and checks count against it, and the measurement window fills
the rest. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics (a layer a
workload never reaches, or a value that is not finite, reads 0). The
exit code is 1 when any check failed. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: Default seed for runs that name none.
DEFAULT_SEED = 1


def _load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def build_parser(spec: dict, workload_names) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="RIPPLE repository benchmark (see benchmarks/suite/README.md)"
    )
    parser.add_argument(
        "--workload", action="append", choices=workload_names,
        help="workload to run; repeatable (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="seconds per workload, set-up included",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="0: end-to-end metrics; 1: per-layer metrics from traced runs",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced inputs and at most 6 s per workload (smoke test)",
    )
    parser.add_argument(
        "--out", type=Path, default=HERE / "out",
        help="artifact directory (run_table.csv, traces, inputs)",
    )
    return parser


def report(outcome, measured: dict, units: dict, gated: bool) -> dict:
    """The value of every metric in ``units``: 0 for one ``measured``
    lacks. A value that is not finite fails a check when the metric is
    gated (``gated``: the end-to-end metrics), and is reported absent
    otherwise: a per-layer serving metric reads infinite whenever its
    step failed, which above the knee is expected."""
    values = {}
    for metric in units:
        value = measured.get(metric, 0.0)
        if not math.isfinite(value):
            if gated:
                outcome.check(False, f"{metric} is not finite ({value})")
            else:
                outcome.qualifiers[metric] = f"absent ({value}) "
            value = 0.0
        values[metric] = value
    return values


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "cli.py").is_file() or not SPEC.is_file():
        print(
            f"error: no program to measure: {SRC / 'repro'} or {SPEC} is "
            "missing (run from a full checkout)",
            file=sys.stderr,
        )
        return 2
    spec = _load_spec()
    sys.path.insert(0, str(SRC))

    import enumeration
    import measure
    import serving
    from artifacts import write_run_table
    from workloads import ENUM_WORKLOADS, SERVE_WORKLOAD, WORKLOAD_NAMES

    from repro.bench.perfgate import calibrate
    from repro.graph.io import write_edge_list

    args = build_parser(spec, WORKLOAD_NAMES).parse_args(argv)
    names = args.workload or list(WORKLOAD_NAMES)
    seconds = min(args.seconds, 6.0) if args.quick else args.seconds
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}

    args.out.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    attempted = failed = 0
    reported: dict[str, dict] = {}
    raw: dict[str, dict] = {}
    with measure.Spawner() as spawner:
        for name in names:
            started = time.perf_counter()
            deadline = started + seconds
            directory = args.out / name
            shutil.rmtree(directory, ignore_errors=True)
            directory.mkdir(parents=True)
            serve = name == SERVE_WORKLOAD.name
            workload = SERVE_WORKLOAD if serve else ENUM_WORKLOADS[name]
            graph = workload.build(args.seed, args.quick)
            path = directory / "input.txt"
            write_edge_list(graph, path)
            gen_s = time.perf_counter() - started
            calibration_s = calibrate()
            if serve:
                # Each serving set-up builds the index (seconds), so it
                # repeats fewer times than the sub-second CLI import.
                outcome = serving.run(
                    workload, graph, path, directory,
                    seed=args.seed, seconds=seconds, deadline=deadline,
                    trace=bool(args.trace),
                    setup_repeats=2 if args.quick else 3, spawner=spawner,
                )
            else:
                outcome = enumeration.run(
                    workload, graph, path, directory,
                    deadline=deadline, trace=bool(args.trace),
                    setup_repeats=2 if args.quick else 10, spawner=spawner,
                )
            for row in outcome.rows:
                row.update(workload=name, seed=args.seed,
                           calibration_s=calibration_s, gen_s=gen_s)
            rows.extend(outcome.rows)

            measured = outcome.per_layer if args.trace else outcome.end_to_end
            unknown = set(measured) - set(units)
            if unknown:
                raise SystemExit(
                    f"{name} emitted metrics not in BENCHMARK.json: {unknown}"
                )
            values = report(outcome, measured, units, gated=not args.trace)
            raw[name] = {"measured": measured, "failures": outcome.failures}
            attempted += outcome.attempted
            failed += outcome.failed
            print(f"== {name} (seed {args.seed}, "
                  f"{time.perf_counter() - started:.1f} s) ==")
            for message in outcome.failures:
                print(f"  FAILED: {message}")
            checks = outcome.attempted
            print(f"  error_rate {outcome.failed / checks if checks else 0.0:.6f} "
                  f"ratio ({outcome.failed} of {checks} attempted)")
            for metric, value in values.items():
                print(f"  {metric} {outcome.qualifiers.get(metric, '')}"
                      f"{value:.6g} {units[metric]}")
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, value in values.items():
                reported[prefix + metric] = {"value": value, "unit": units[metric]}
    write_run_table(args.out / "run_table.csv", rows)
    # What each workload measured before zero-filling: the layers it
    # never reached are absent here.
    with open(args.out / "measured.json", "w", encoding="utf-8") as handle:
        json.dump({"trace": args.trace, "workloads": raw}, handle, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": reported,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
