"""Host-speed calibration and the serving load gate.

:func:`calibrate` times a fixed pure-Python busy loop: a measure of the
host's single-core interpreter speed at that moment. Load-test run
tables record it per row (``calibration_s``) and the load gate below
rescales its latency and throughput thresholds by it; the repository
benchmark (``benchmarks/suite``) records it as host-speed context.

Timing regressions of the program are judged by the repository
benchmark's paired A/B (``benchmarks/suite/sets.py``), not here.
"""

from __future__ import annotations

import json
import time

__all__ = [
    "LOAD_GATE_SCHEMA",
    "calibrate",
    "compare_load_table",
    "load_gate_config",
    "render_load_report",
]

LOAD_GATE_SCHEMA = "repro.loadgate/1"


def calibrate(rounds: int = 3) -> float:
    """Best-of-``rounds`` wall seconds for a fixed integer busy loop.

    A pure-Python LCG over 200k iterations: deterministic work whose
    wall time scales with single-core interpreter speed.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 1
        for i in range(200_000):
            acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return best


# -- load-test gate ----------------------------------------------------
#
# The serving tier's capacity gate: a committed ``repro.loadgate/1``
# document fixes a p95-latency ceiling, a throughput floor, and a
# failure-rate cap for one load-test scenario, *at the calibration
# speed of the machine the thresholds were chosen on*. Every run-table
# row carries the busy-loop calibration of the machine that produced
# it, so the gate rescales before judging: a runner half as fast gets
# twice the latency ceiling and half the throughput floor, and the
# gate stops flaking on runner lotteries while still catching real
# regressions.


#: Thresholds a gate document may set; each must be a number when set.
_OPTIONAL_THRESHOLDS = (
    "max_failure_rate",
    "max_shed_rate",
    "min_shed_rate",
    "max_internal_errors",
    "server_p95_tolerance",
    "server_p95_slack_ms",
)


def load_gate_config(path: str) -> dict:
    """Read and validate a committed load-gate document."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != LOAD_GATE_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {LOAD_GATE_SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    for key in ("calibration_s", "p95_ceiling_ms", "rps_floor"):
        if not isinstance(document.get(key), (int, float)):
            raise ValueError(f"{path}: missing or non-numeric {key!r}")
    for key in _OPTIONAL_THRESHOLDS:
        if key in document and not isinstance(document[key], (int, float)):
            raise ValueError(f"{path}: non-numeric {key!r}")
    return document


def compare_load_table(rows, gate: dict) -> dict:
    """Judge run-table rows against a load-gate document.

    ``rows`` are :class:`repro.loadtest.run_table.RunRow` objects (or
    anything with the same attributes). Rows are filtered to the
    gate's ``scenario`` when it names one; every surviving row must
    individually satisfy the calibrated thresholds — one bad
    repetition fails the gate.
    """
    scenario = gate.get("scenario")
    max_failure_rate = float(gate.get("max_failure_rate", 0.0))
    max_shed_rate = gate.get("max_shed_rate")
    min_shed_rate = gate.get("min_shed_rate")
    max_internal_errors = gate.get("max_internal_errors")
    server_p95_tolerance = gate.get("server_p95_tolerance")
    server_p95_slack_ms = float(gate.get("server_p95_slack_ms", 0.0))
    judged = [
        row
        for row in rows
        if scenario is None or row.scenario == scenario
    ]
    failures: list[str] = []
    report_rows: list[list] = []
    if not judged:
        failures.append(
            f"no run-table rows matched gate scenario {scenario!r}"
        )
    for row in judged:
        label = f"{row.scenario}#{row.repetition}"
        calibration = getattr(row, "calibration_s", float("nan"))
        if not calibration or calibration != calibration:  # 0 or NaN
            failures.append(
                f"{label}: row carries no calibration_s; cannot "
                f"normalise across machines"
            )
            continue
        slowness = calibration / gate["calibration_s"]
        allowed_p95 = gate["p95_ceiling_ms"] * slowness
        required_rps = gate["rps_floor"] / slowness
        verdict = "ok"
        if row.failure_rate > max_failure_rate:
            verdict = "FAILURES"
            failures.append(
                f"{label}: failure_rate {row.failure_rate:.4f} > "
                f"{max_failure_rate:.4f} (deadline "
                f"{row.failures_deadline}, protocol "
                f"{row.failures_protocol}, connection "
                f"{row.failures_connection})"
            )
        if row.p95_latency_ms > allowed_p95:
            verdict = "P95" if verdict == "ok" else verdict + "+P95"
            failures.append(
                f"{label}: p95 {row.p95_latency_ms:.3f}ms > ceiling "
                f"{allowed_p95:.3f}ms ({gate['p95_ceiling_ms']}ms at "
                f"reference speed × {slowness:.2f} slowness)"
            )
        if row.achieved_rps < required_rps:
            verdict = "RPS" if verdict == "ok" else verdict + "+RPS"
            failures.append(
                f"{label}: achieved {row.achieved_rps:.2f} rps < floor "
                f"{required_rps:.2f} ({gate['rps_floor']} at reference "
                f"speed ÷ {slowness:.2f} slowness)"
            )
        # Shed bounds are absolute rates, not latency-shaped, so they
        # need no calibration scaling. max_shed_rate bounds collateral
        # shedding under nominal load; min_shed_rate (degradation
        # gates) proves the daemon actually shed past saturation
        # instead of silently queueing.
        shed_rate = getattr(row, "shed_rate", 0.0)
        if max_shed_rate is not None and shed_rate > float(max_shed_rate):
            verdict = "SHED" if verdict == "ok" else verdict + "+SHED"
            failures.append(
                f"{label}: shed_rate {shed_rate:.4f} > "
                f"{float(max_shed_rate):.4f} "
                f"({getattr(row, 'shed_requests', 0)} shed)"
            )
        if min_shed_rate is not None and shed_rate < float(min_shed_rate):
            verdict = "NOSHED" if verdict == "ok" else verdict + "+NOSHED"
            failures.append(
                f"{label}: shed_rate {shed_rate:.4f} < required "
                f"{float(min_shed_rate):.4f} — overload did not shed "
                f"(silent queueing?)"
            )
        # The telemetry cross-check: the daemon's own
        # serving.handle_seconds histogram p95 over the measurement
        # window must agree with the client-observed p95 measured from
        # the actual send (the generator's own send lateness is a
        # client-side delay the server never sees). Relative tolerance
        # covers histogram bucket granularity (bucket edges are a fixed
        # 2^(1/4) ratio apart) plus the round trip; the absolute slack
        # is latency-shaped, so it scales with the row's calibration
        # like the p95 ceiling does.
        server_p95 = getattr(row, "server_p95_ms", float("nan"))
        client_p95 = row.p95_from_send_ms
        if server_p95_tolerance is not None:
            allowed_gap = (
                client_p95 * float(server_p95_tolerance)
                + server_p95_slack_ms * slowness
            )
            if server_p95 != server_p95:  # NaN: window never captured
                verdict = (
                    "SERVERP95" if verdict == "ok"
                    else verdict + "+SERVERP95"
                )
                failures.append(
                    f"{label}: server_p95_ms missing — daemon stats "
                    f"histograms were not captured, so the telemetry "
                    f"cross-check cannot run"
                )
            elif abs(server_p95 - client_p95) > allowed_gap:
                verdict = (
                    "SERVERP95" if verdict == "ok"
                    else verdict + "+SERVERP95"
                )
                failures.append(
                    f"{label}: server p95 {server_p95:.3f}ms vs client "
                    f"p95 from send {client_p95:.3f}ms — gap exceeds "
                    f"{float(server_p95_tolerance):.0%} + "
                    f"{server_p95_slack_ms * slowness:.3f}ms slack"
                )
        internal = getattr(row, "serving_internal_errors", 0)
        if (
            max_internal_errors is not None
            and internal > int(max_internal_errors)
        ):
            verdict = "INTERNAL" if verdict == "ok" else verdict + "+INTERNAL"
            failures.append(
                f"{label}: {internal} internal error(s) > allowed "
                f"{int(max_internal_errors)}"
            )
        report_rows.append(
            [
                label,
                f"{row.achieved_rps:.1f}/{required_rps:.1f}",
                f"{row.p95_latency_ms:.2f}/{allowed_p95:.2f}",
                "-" if server_p95 != server_p95 else f"{server_p95:.2f}",
                f"{row.failure_rate:.4f}",
                f"{shed_rate:.4f}",
                f"{slowness:.2f}x",
                verdict,
            ]
        )
    return {"ok": not failures, "failures": failures, "rows": report_rows}


def render_load_report(verdict: dict) -> str:
    """Human-readable load-gate report."""
    from repro.bench.reporting import render_table

    sections = [
        render_table(
            "Load gate: achieved/floor rps, p95/ceiling ms "
            "(calibration-adjusted)",
            ["run", "rps", "p95 ms", "srv p95", "fail rate", "shed rate",
             "slowness", "verdict"],
            verdict["rows"],
        )
    ]
    if verdict["failures"]:
        sections.append(
            "FAILURES:\n" + "\n".join(
                f"  - {line}" for line in verdict["failures"]
            )
        )
    else:
        sections.append("load gate passed")
    return "\n\n".join(sections)
