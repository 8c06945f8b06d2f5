"""Run artifacts: one ``run_table.csv`` per invocation.

One row per measured unit: each set-up repetition, each ``ripple
enumerate`` process (traced or not) and each serving ladder step. The
column glossary lives in this directory's README and a test keeps the
two in step.
"""

from __future__ import annotations

import csv
from pathlib import Path

#: Column order of ``run_table.csv`` (glossary: README.md).
COLUMNS = (
    "workload",
    "seed",
    "kind",
    "index",
    "offered_rps",
    "wall_s",
    "cpu_s",
    "peak_rss_mb",
    "exit_code",
    "correct",
    "requests",
    "failed",
    "p50_ms",
    "p99_ms",
    "calibration_s",
    "gen_s",
)


def write_run_table(path: Path, rows: list[dict]) -> None:
    """Write ``rows`` (dicts keyed by :data:`COLUMNS`; missing cells
    stay empty) as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=COLUMNS)
        writer.writeheader()
        for row in rows:
            unknown = set(row) - set(COLUMNS)
            if unknown:
                raise ValueError(f"run-table row has unknown columns {unknown}")
            writer.writerow(row)
