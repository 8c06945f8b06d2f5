"""Perf-regression gate: benchmark cases, baselines, and comparison.

The gate guards the hot paths the paper's speedups live in (seeding,
merging, expansion) against silent slowdowns. A *baseline* document
(``benchmarks/baselines/*.json``, committed) records, per case, the
median uninstrumented wall time, the peak traced memory, and the
per-span wall totals of one instrumented run. ``scripts/bench_compare``
re-measures the same cases and fails when wall time regresses more
than :data:`WALL_TOLERANCE` or peak memory more than
:data:`MEM_TOLERANCE`.

Machines differ, so raw seconds are never compared across hosts:
every measurement document carries a *calibration* — the best-of-N
wall time of a fixed integer busy loop — and candidate wall times are
normalised by ``baseline_calibration / candidate_calibration`` before
the tolerance check. Memory is machine-speed independent and is
compared raw.

Span totals are informational: on failure the comparison report
includes a per-span delta table so the regression can be localised
(did ``merge.test`` get slower, or ``seeding.cliques``?) without
re-running under a profiler.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.bench.memory import measure_peak_memory
from repro.obs.spans import span_totals

__all__ = [
    "LOAD_GATE_SCHEMA",
    "MEM_TOLERANCE",
    "SCHEMA",
    "WALL_TOLERANCE",
    "BenchCase",
    "builtin_cases",
    "calibrate",
    "compare",
    "compare_load_table",
    "load_gate_config",
    "render_load_report",
    "render_report",
    "run_case",
    "run_suite",
]

SCHEMA = "repro.perfgate/1"

LOAD_GATE_SCHEMA = "repro.loadgate/1"

#: Wall-clock regression tolerance (calibration-normalised).
WALL_TOLERANCE = 0.30

#: Peak traced-memory regression tolerance.
MEM_TOLERANCE = 0.20


@dataclass(frozen=True)
class BenchCase:
    """One gated benchmark: a setup factory returning the timed call.

    ``setup`` builds the inputs (graph construction is *not* timed) and
    returns a zero-argument callable running the measured algorithm.
    """

    name: str
    description: str
    setup: Callable[[], Callable[[], object]]


def _ripple_case(communities: int, size: int, k: int):
    def setup() -> Callable[[], object]:
        from repro.core.ripple import ripple
        from repro.graph.generators import planted_kvcc_graph

        graph = planted_kvcc_graph(communities, size, k, seed=0)
        return lambda: ripple(graph, k)

    return setup


def _ripple_me_case(communities: int, size: int, k: int):
    def setup() -> Callable[[], object]:
        from repro.core.ripple import ripple_me
        from repro.graph.generators import planted_kvcc_graph

        graph = planted_kvcc_graph(communities, size, k, seed=0)
        return lambda: ripple_me(graph, k)

    return setup


def _vcce_td_case(communities: int, size: int, k: int):
    def setup() -> Callable[[], object]:
        from repro.core.vcce_td import vcce_td
        from repro.graph.generators import planted_kvcc_graph

        graph = planted_kvcc_graph(communities, size, k, seed=0)
        return lambda: vcce_td(graph, k)

    return setup


def builtin_cases() -> dict[str, BenchCase]:
    """The gated smoke cases (fast, deterministic planted graphs)."""
    cases = [
        BenchCase(
            "ripple/planted-3x30-k4",
            "RIPPLE (RME) on 3 planted 4-VCCs of 30 vertices",
            _ripple_case(3, 30, 4),
        ),
        BenchCase(
            "ripple-me/planted-3x30-k4",
            "RIPPLE-ME on the same planted graph",
            _ripple_me_case(3, 30, 4),
        ),
        BenchCase(
            "vcce-td/planted-2x30-k3",
            "top-down baseline on 2 planted 3-VCCs of 30 vertices",
            _vcce_td_case(2, 30, 3),
        ),
    ]
    return {case.name: case for case in cases}


def calibrate(rounds: int = 3) -> float:
    """Best-of-``rounds`` wall seconds for a fixed integer busy loop.

    A pure-Python LCG over 200k iterations: deterministic work whose
    wall time scales with single-core interpreter speed, the same
    resource the gated cases consume.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 1
        for i in range(200_000):
            acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return best


def run_case(case: BenchCase, repeats: int = 5) -> dict:
    """Measure one case: median wall, peak memory, span totals.

    Wall time is the median of ``repeats`` *uninstrumented* runs (no
    collector installed — the gate times what users run). Memory and
    span totals come from one extra instrumented run under a
    span-enabled collector with tracemalloc active.
    """
    action = case.setup()
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        walls.append(time.perf_counter() - start)

    collector = obs.Collector()
    collector.enable_spans()
    with obs.collecting(collector):
        _, mem_peak = measure_peak_memory(action)
    recorder = collector.spans
    spans = {
        name: round(total["wall"], 6)
        for name, total in span_totals(recorder.roots).items()
    }
    return {
        "description": case.description,
        "wall_s": round(statistics.median(walls), 6),
        "mem_peak_bytes": mem_peak,
        "spans": spans,
    }


def run_suite(
    repeats: int = 5, cases: dict[str, BenchCase] | None = None
) -> dict:
    """Measure every case and return a gate document (see module doc)."""
    if cases is None:
        cases = builtin_cases()
    return {
        "schema": SCHEMA,
        "calibration_s": round(calibrate(), 6),
        "repeats": repeats,
        "cases": {
            name: run_case(case, repeats) for name, case in cases.items()
        },
    }


def load_document(path: str) -> dict:
    """Read and minimally validate a gate document."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: expected schema {SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    if "cases" not in document or "calibration_s" not in document:
        raise ValueError(f"{path}: missing 'cases' or 'calibration_s'")
    return document


def compare(
    baseline: dict,
    candidate: dict,
    wall_tolerance: float = WALL_TOLERANCE,
    mem_tolerance: float = MEM_TOLERANCE,
) -> dict:
    """Judge ``candidate`` against ``baseline``.

    Returns ``{"ok": bool, "failures": [...], "rows": [...],
    "span_rows": [...]}`` where ``rows`` is one summary row per case
    and ``span_rows`` the per-span wall deltas (both normalised).
    """
    scale = baseline["calibration_s"] / max(
        candidate["calibration_s"], 1e-9
    )
    failures: list[str] = []
    rows: list[list] = []
    span_rows: list[list] = []
    for name, base in sorted(baseline["cases"].items()):
        cand = candidate["cases"].get(name)
        if cand is None:
            failures.append(f"{name}: case missing from candidate run")
            continue
        wall_adj = cand["wall_s"] * scale
        wall_rel = (
            (wall_adj - base["wall_s"]) / base["wall_s"]
            if base["wall_s"]
            else 0.0
        )
        mem_rel = (
            (cand["mem_peak_bytes"] - base["mem_peak_bytes"])
            / base["mem_peak_bytes"]
            if base["mem_peak_bytes"]
            else 0.0
        )
        verdict = "ok"
        if wall_rel > wall_tolerance:
            verdict = "WALL REGRESSION"
            failures.append(
                f"{name}: wall {base['wall_s']:.6f}s -> "
                f"{wall_adj:.6f}s (adj, {wall_rel:+.1%} > "
                f"{wall_tolerance:+.0%})"
            )
        if mem_rel > mem_tolerance:
            verdict = (
                "MEM REGRESSION" if verdict == "ok" else "WALL+MEM"
            )
            failures.append(
                f"{name}: mem {base['mem_peak_bytes']} -> "
                f"{cand['mem_peak_bytes']} bytes ({mem_rel:+.1%} > "
                f"{mem_tolerance:+.0%})"
            )
        rows.append(
            [
                name,
                f"{base['wall_s']:.6f}",
                f"{wall_adj:.6f}",
                f"{wall_rel:+.1%}",
                f"{mem_rel:+.1%}",
                verdict,
            ]
        )
        base_spans = base.get("spans", {})
        cand_spans = cand.get("spans", {})
        for span in sorted(set(base_spans) | set(cand_spans)):
            b = base_spans.get(span, 0.0)
            c = cand_spans.get(span, 0.0) * scale
            delta = f"{(c - b) / b:+.1%}" if b else "new"
            span_rows.append(
                [name, span, f"{b:.6f}", f"{c:.6f}", delta]
            )
    for name in sorted(set(candidate["cases"]) - set(baseline["cases"])):
        rows.append([name, "-", "-", "-", "-", "new case (not gated)"])
    return {
        "ok": not failures,
        "failures": failures,
        "rows": rows,
        "span_rows": span_rows,
    }


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
    return document


def compare_load_table(rows, gate: dict) -> dict:
    """Judge run-table rows against a load-gate document.

    ``rows`` are :class:`repro.loadtest.run_table.RunRow` objects (or
    anything with the same attributes). Rows are filtered to the
    gate's ``scenario`` when it names one; every surviving row must
    individually satisfy the calibrated thresholds — one bad
    repetition fails the gate, exactly like one bad case fails the
    perf gate.
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


def render_report(verdict: dict, verbose_spans: bool = False) -> str:
    """Human-readable comparison report (spans shown on failure)."""
    from repro.bench.reporting import render_table

    sections = [
        render_table(
            "Perf gate: wall (calibration-adjusted) and peak memory",
            ["case", "base s", "cand s", "wall", "mem", "verdict"],
            verdict["rows"],
        )
    ]
    if (not verdict["ok"] or verbose_spans) and verdict["span_rows"]:
        sections.append(
            render_table(
                "Per-span wall deltas (candidate adjusted)",
                ["case", "span", "base s", "cand s", "delta"],
                verdict["span_rows"],
            )
        )
    if verdict["failures"]:
        sections.append(
            "FAILURES:\n" + "\n".join(
                f"  - {line}" for line in verdict["failures"]
            )
        )
    else:
        sections.append("perf gate passed")
    return "\n\n".join(sections)
