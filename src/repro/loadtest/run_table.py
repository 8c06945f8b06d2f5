"""The run table: one flat, analyzable CSV row per (scenario, repetition).

The artifact shape follows the mubench replication's ``run_table.csv``
(one row per run×repetition, every column a plain scalar, all analysis
downstream of this one file) — see ``docs/loadtest.md`` for the column
glossary in the ``RUN_TABLE_COLUMNS_EXPLANATION.md`` style. The test
suite parses that glossary table and asserts it matches
:data:`COLUMNS` exactly, so the docs cannot drift from the writer.

Alongside the table, every run appends its raw per-request samples to
a JSONL file (one object per request: kind, scheduled offset, latency,
outcome) so percentiles can be recomputed and tails inspected without
re-running the load.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields
from typing import Iterable

from repro.errors import ParameterError

__all__ = [
    "COLUMNS",
    "OUTCOMES",
    "RunRow",
    "Sample",
    "aggregate",
    "percentile",
    "read_run_table",
    "write_run_table",
    "write_samples_jsonl",
]

#: Failure taxonomy: every sample lands in exactly one outcome.
#: ``ok`` includes *expected* error responses (an ``unknown`` probe
#: answered with ``unknown-vertex`` is the daemon behaving correctly).
#: ``shed`` is an ``overloaded`` response that survived the client's
#: retry budget — the daemon *choosing* to refuse work is load
#: shedding doing its job, so it is tracked in its own columns and
#: excluded from ``failure_rate`` (which keeps the CI
#: ``failure_rate == 0`` gate meaning "nothing actually broke").
OUTCOMES = ("ok", "deadline", "protocol-error", "connection-refused", "shed")

#: Column names, in file order. ``docs/loadtest.md`` documents each
#: one; ``tests/loadtest/test_run_table.py`` keeps the two in lockstep.
COLUMNS = (
    "scenario",
    "repetition",
    "topology",
    "workers",
    "offered_rps",
    "achieved_rps",
    "request_count",
    "failure_rate",
    "failures_deadline",
    "failures_protocol",
    "failures_connection",
    "shed_requests",
    "shed_rate",
    "retried_requests",
    "retries_total",
    "avg_latency_ms",
    "p50_latency_ms",
    "p95_latency_ms",
    "p99_latency_ms",
    "p95_from_send_ms",
    "cpu_usage_avg",
    "rss_peak_mb",
    "calibration_s",
    "serving_requests",
    "serving_queries",
    "serving_cache_hits",
    "serving_cache_misses",
    "serving_index_stale_rebuilds",
    "serving_errors",
    "serving_shed",
    "serving_internal_errors",
    "server_p95_ms",
    "server_shed",
)

#: run-table counter column -> obs counter folded into it.
COUNTER_COLUMNS = {
    "serving_requests": "serving.requests",
    "serving_queries": "serving.queries",
    "serving_cache_hits": "serving.cache.hits",
    "serving_cache_misses": "serving.cache.misses",
    "serving_index_stale_rebuilds": "serving.index.stale_rebuilds",
    "serving_errors": "serving.errors",
    "serving_shed": "serving.shed",
    "serving_internal_errors": "serving.errors.internal",
}


@dataclass(frozen=True)
class Sample:
    """One request's raw measurement (a JSONL line in the samples file).

    ``scheduled_s`` is the open-loop send time relative to run start;
    latency is measured from that *scheduled* instant, not from the
    actual send, so a generator running late charges its queueing delay
    to the service instead of silently omitting it (the classic
    coordinated-omission mistake closed-loop harnesses make).
    """

    kind: str
    scheduled_s: float
    latency_ms: float
    outcome: str
    code: str = ""
    warmup: bool = False
    #: Client-side retries this request consumed before its final
    #: outcome (0 = answered on the first attempt).
    retries: int = 0
    #: How far past ``scheduled_s`` the generator actually sent the
    #: request (a late wake-up, or a slow previous reply on the same
    #: connection). ``latency_ms`` includes it.
    send_late_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise ParameterError(
                f"sample outcome must be one of {OUTCOMES}, "
                f"got {self.outcome!r}"
            )
        if self.retries < 0:
            raise ParameterError(
                f"sample retries must be >= 0, got {self.retries}"
            )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "scheduled_s": round(self.scheduled_s, 6),
            "latency_ms": round(self.latency_ms, 3),
            "outcome": self.outcome,
            "code": self.code,
            "warmup": self.warmup,
            "retries": self.retries,
            "send_late_ms": round(self.send_late_ms, 3),
        }


@dataclass(frozen=True)
class RunRow:
    """One (scenario, repetition) line of ``run_table.csv``."""

    scenario: str
    repetition: int
    topology: str
    workers: int
    offered_rps: float
    achieved_rps: float
    request_count: int
    failure_rate: float
    failures_deadline: int
    failures_protocol: int
    failures_connection: int
    shed_requests: int
    shed_rate: float
    retried_requests: int
    retries_total: int
    avg_latency_ms: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    #: p95 of ``latency_ms - send_late_ms`` over ``ok`` samples: the
    #: client's figure without the generator's own send lateness, which
    #: the server's ``server_p95_ms`` never sees.
    p95_from_send_ms: float
    cpu_usage_avg: float
    rss_peak_mb: float
    calibration_s: float
    serving_requests: int
    serving_queries: int
    serving_cache_hits: int
    serving_cache_misses: int
    serving_index_stale_rebuilds: int
    serving_errors: int
    serving_shed: int
    serving_internal_errors: int
    #: Server-observed p95 handle time over the measurement window, in
    #: ms — from the daemon's ``serving.handle_seconds`` histograms
    #: (``stats`` op snapshot delta), so it cross-checks the
    #: client-side ``p95_latency_ms`` without the client's queueing
    #: delay. NaN when the harness could not capture the window.
    server_p95_ms: float
    #: Sheds the *server* counted inside the measurement window (the
    #: ``serving.shed`` counter delta from the warmup boundary), unlike
    #: ``serving_shed`` which spans the whole run including warmup.
    server_shed: int

# Fixed per-column formatting keeps the CSV byte-stable for identical
# inputs: rates and seconds at 6 decimals, latencies at 3 (µs grain),
# resource figures at 2. NaN (resource monitor unavailable on this
# platform) serialises as an empty cell.
_PRECISION = {
    "offered_rps": 6,
    "achieved_rps": 6,
    "failure_rate": 6,
    "shed_rate": 6,
    "calibration_s": 6,
    "avg_latency_ms": 3,
    "p50_latency_ms": 3,
    "p95_latency_ms": 3,
    "p99_latency_ms": 3,
    "p95_from_send_ms": 3,
    "server_p95_ms": 3,
    "cpu_usage_avg": 2,
    "rss_peak_mb": 2,
}


def _row_fields() -> dict:
    return {field.name: field.type for field in fields(RunRow)}


def write_run_table(path: str | os.PathLike, rows: Iterable[RunRow]) -> None:
    """Write header + rows; column order is exactly :data:`COLUMNS`."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(COLUMNS)
        for row in rows:
            cells = []
            for name in COLUMNS:
                value = getattr(row, name)
                if name in _FLOAT_COLUMNS:
                    if math.isnan(value):
                        cells.append("")
                    else:
                        cells.append(f"{value:.{_PRECISION.get(name, 6)}f}")
                else:
                    cells.append(str(value))
            writer.writerow(cells)


def read_run_table(path: str | os.PathLike) -> list[RunRow]:
    """Read a run table back into typed rows (the gate's input)."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        header = tuple(reader.fieldnames or ())
        if header != COLUMNS:
            raise ParameterError(
                f"{os.fspath(path)}: unexpected run-table header "
                f"{header!r} (expected {COLUMNS!r})"
            )
        rows = []
        for record in reader:
            kwargs = {}
            for name in COLUMNS:
                raw = record[name]
                if name in _INT_COLUMNS:
                    kwargs[name] = int(raw)
                elif name in _FLOAT_COLUMNS:
                    kwargs[name] = float(raw) if raw else float("nan")
                else:
                    kwargs[name] = raw
            rows.append(RunRow(**kwargs))
        return rows


_INT_COLUMNS = frozenset(
    name
    for name, kind in _row_fields().items()
    if kind in (int, "int")
)
_FLOAT_COLUMNS = frozenset(
    name
    for name, kind in _row_fields().items()
    if kind in (float, "float")
)


def write_samples_jsonl(
    path: str | os.PathLike,
    scenario: str,
    repetition: int,
    samples: Iterable[Sample],
) -> None:
    """Append one JSON object per raw sample (warmup included)."""
    with open(path, "a", encoding="utf-8") as handle:
        for sample in samples:
            record = {"scenario": scenario, "repetition": repetition}
            record.update(sample.to_json())
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted values (0 < q <= 1)."""
    if not sorted_values:
        return float("nan")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def aggregate(
    *,
    scenario: str,
    repetition: int,
    topology: str,
    workers: int,
    offered_rps: float,
    samples: list[Sample],
    measure_window_s: float,
    cpu_usage_avg: float = float("nan"),
    rss_peak_mb: float = float("nan"),
    calibration_s: float = float("nan"),
    counters: dict | None = None,
    server_p95_ms: float = float("nan"),
    server_shed: int = 0,
) -> RunRow:
    """Fold one repetition's raw samples into a run-table row.

    Warmup samples are excluded from every aggregate (they exist only
    in the raw JSONL). ``counters`` is the delta of the daemon's
    ``serving.*`` obs counters over the whole run (from the protocol's
    ``stats`` op before/after); ``server_p95_ms``/``server_shed`` are
    the measurement-window server-side cross-checks (histogram and
    counter deltas from the warmup boundary — see the harness).

    ``shed`` samples are intentional refusals, not failures: they get
    their own ``shed_requests``/``shed_rate`` columns and stay out of
    ``failure_rate`` and out of the accepted-latency percentiles.
    """
    measured = [s for s in samples if not s.warmup]
    failures = {
        "deadline": 0,
        "protocol-error": 0,
        "connection-refused": 0,
    }
    latencies = []
    from_send = []
    shed = 0
    retried = 0
    retries_total = 0
    for sample in measured:
        if sample.retries:
            retried += 1
            retries_total += sample.retries
        if sample.outcome == "ok":
            latencies.append(sample.latency_ms)
            from_send.append(sample.latency_ms - sample.send_late_ms)
        elif sample.outcome == "shed":
            shed += 1
        else:
            failures[sample.outcome] += 1
    latencies.sort()
    count = len(measured)
    failed = sum(failures.values())
    window = max(measure_window_s, 1e-9)
    counters = counters or {}
    return RunRow(
        scenario=scenario,
        repetition=repetition,
        topology=topology,
        workers=workers,
        offered_rps=offered_rps,
        achieved_rps=len(latencies) / window,
        request_count=count,
        failure_rate=(failed / count) if count else 0.0,
        failures_deadline=failures["deadline"],
        failures_protocol=failures["protocol-error"],
        failures_connection=failures["connection-refused"],
        shed_requests=shed,
        shed_rate=(shed / count) if count else 0.0,
        retried_requests=retried,
        retries_total=retries_total,
        avg_latency_ms=(
            sum(latencies) / len(latencies) if latencies else float("nan")
        ),
        p50_latency_ms=percentile(latencies, 0.50),
        p95_latency_ms=percentile(latencies, 0.95),
        p99_latency_ms=percentile(latencies, 0.99),
        p95_from_send_ms=percentile(sorted(from_send), 0.95),
        cpu_usage_avg=cpu_usage_avg,
        rss_peak_mb=rss_peak_mb,
        calibration_s=calibration_s,
        server_p95_ms=server_p95_ms,
        server_shed=server_shed,
        **{
            column: int(counters.get(counter, 0))
            for column, counter in COUNTER_COLUMNS.items()
        },
    )
