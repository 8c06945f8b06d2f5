"""Enumeration workloads: ``ripple enumerate`` timed from outside.

One run of a workload, inside the ``deadline`` it was given:

1. the oracle, computed in this process and never timed;
2. set-up: ``python -c "import repro.cli"`` spawned several times, the
   cost every CLI run pays before it reads a byte of input;
3. one traced run (``traced_enumerate.py``), whose counters feed
   the workload's checks — so every run asserts that the layer it
   exists to exercise did work;
4. the measurement window: untraced ``ripple enumerate`` processes back
   to back until the deadline (at least one). With ``--trace 1`` traced
   and untraced processes alternate, so tracing overhead is the ratio
   of two medians taken under the same host conditions.

A control process (``hostspeed.py``) runs just before every measured
one, and each process's timings are read against its own control's
wall. Every process's output is compared with the oracle.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import hostspeed
import measure
from measure import Outcome
from workloads import EnumWorkload, audit_components

from repro.graph.adjacency import Graph


def _read_components(path: Path) -> tuple[str, set[frozenset]]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload["status"], {frozenset(c) for c in payload["components"]}


def run(
    workload: EnumWorkload,
    graph: Graph,
    graph_path: Path,
    out: Path,
    *,
    deadline: float,
    trace: bool,
    setup_repeats: int,
    spawner: measure.Spawner,
) -> Outcome:
    outcome = Outcome()
    expected = workload.oracle(graph)
    if workload.audit_components:
        broken = audit_components(graph, expected, workload.k)
        outcome.check(
            broken == 0, f"{broken} planted components not {workload.k}-connected"
        )

    imports = measure.import_seconds(spawner, setup_repeats, out)
    for index, wall_s in enumerate(imports):
        outcome.rows.append({"kind": "setup", "index": index, "wall_s": wall_s})
    import_s = measure.median(imports)

    result_path = out / "result.json"
    args = [
        "enumerate", str(graph_path), "-k", str(workload.k),
        *workload.cli_args, "--format", "snap", "--quiet",
        "--json", str(result_path),
    ]

    def invoke(
        kind: str, index: int
    ) -> tuple[measure.ProcessRun, float, dict | None]:
        summary_path = out / f"traced-{index}.summary.json"
        argv = (
            measure.traced_argv(args, summary_path, out / f"traced-{index}.trace.json")
            if kind == "traced"
            else measure.cli_argv(args)
        )
        if result_path.exists():
            result_path.unlink()
        control_s = outcome.add_control(measure.control_run(spawner, out))
        process = spawner.run(argv, out / "stderr.txt")
        correct = process.exit_code == 0 and result_path.exists()
        if correct:
            status, components = _read_components(result_path)
            correct = status == "completed" and components == expected
        outcome.check(
            correct,
            f"{kind} run {index}: exit {process.exit_code}, output "
            + ("matches" if correct else "differs from the oracle"),
        )
        outcome.rows.append(
            {
                "kind": kind,
                "index": index,
                "wall_s": process.wall_s,
                "cpu_s": process.cpu_s,
                "peak_rss_mb": process.peak_rss_mb,
                "exit_code": process.exit_code,
                "correct": int(correct),
            }
        )
        summary = None
        if kind == "traced" and process.exit_code == 0:
            summary = measure.load_summary(summary_path)
            for description, holds in workload.checks:
                outcome.check(
                    holds(summary["counters"]),
                    f"traced run {index}: counter check failed: {description}",
                )
        return process, control_s, summary

    traced: list[tuple[measure.ProcessRun, dict]] = []
    untraced: list[measure.ProcessRun] = []
    controls: list[float] = []
    first, _, summary = invoke("traced", 0)
    if summary is not None:
        traced.append((first, summary))
    index = 0
    while time.perf_counter() < deadline or not untraced:
        kind = "traced" if trace and index % 2 else "run"
        process, control_s, summary = invoke(kind, index + 1)
        if kind == "run":
            untraced.append(process)
            controls.append(control_s)
        elif summary is not None:
            traced.append((process, summary))
        index += 1

    walls = [p.wall_s for p in untraced]
    outcome.end_to_end = {
        "setup_s": import_s * hostspeed.scale(outcome.controls),
        "latency_ms": hostspeed.paired(walls, controls) * 1000.0,
        "cpu_ms_per_op": hostspeed.paired([p.cpu_s for p in untraced], controls)
        * 1000.0,
        "peak_rss_mb": measure.median([p.peak_rss_mb for p in untraced]),
    }
    outcome.per_layer["host.control_ms"] = measure.median(outcome.controls) * 1000.0
    if traced:
        layers = measure.median_metrics(
            [measure.layer_metrics(s, p.wall_s, import_s) for p, s in traced]
        )
        traced_wall = measure.median([p.wall_s - s["write_s"] for p, s in traced])
        layers["trace.overhead"] = traced_wall / measure.median(walls) - 1.0
        outcome.per_layer.update(layers)
    return outcome
