"""Judge a load-test run table against a committed load gate.

Usage:
    python scripts/bench_compare.py --load-table run_table.csv \
        [--load-gate benchmarks/baselines/loadtest_gate.json]

Every row of the load-test run table (see ``docs/loadtest.md``) is
judged against the committed ``repro.loadgate/1`` thresholds —
failure_rate within the cap (0 by default), p95 latency under a
ceiling, achieved throughput over a floor, plus the shed-taxonomy
bounds when the gate sets them: ``max_shed_rate`` (collateral shedding
under nominal load), ``min_shed_rate`` (a degradation gate proving
overload actually shed instead of silently queueing), and
``max_internal_errors`` (the daemon's ``serving.errors.internal``
delta). Each row's busy-loop calibration (``calibration_s``) rescales
the latency/rps thresholds, so a slow CI runner does not flake the
gate; shed bounds are absolute rates and stay unscaled.

Exits 0 when every row passes, 1 when the gate trips, 2 on unreadable
or invalid inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench import perfgate  # noqa: E402

DEFAULT_LOAD_GATE = (
    Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "baselines"
    / "loadtest_gate.json"
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--load-table",
        type=Path,
        required=True,
        metavar="CSV",
        help="load-test run_table.csv to judge (see docs/loadtest.md)",
    )
    parser.add_argument(
        "--load-gate",
        type=Path,
        default=DEFAULT_LOAD_GATE,
        metavar="FILE",
        help=f"load-gate thresholds (default {DEFAULT_LOAD_GATE})",
    )
    args = parser.parse_args(argv)

    from repro.errors import ReproError
    from repro.loadtest.run_table import read_run_table

    try:
        gate = perfgate.load_gate_config(str(args.load_gate))
        rows = read_run_table(args.load_table)
    except (OSError, ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict = perfgate.compare_load_table(rows, gate)
    print(perfgate.render_load_report(verdict))
    return 0 if verdict["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
