"""Tests of the benchmark itself: ``PYTHONPATH=src pytest benchmarks/suite -q``.

* the metric glossary in BENCHMARK.json and what the workloads emit
  agree in both directions, and the file obeys its format limits;
* the ladder's step-failure and capacity rules, and that a step
  failing above the knee is reported, not counted as a failed check;
* the host-speed scaling and pairing rules, that the serving stand-in
  answers every kind of request the traffic sends, and that a child
  reports its own peak RSS, not the benchmark's;
* every callable the traced run wraps still exists;
* the run-table glossary in README.md matches the writer;
* a ``--quick`` end-to-end run of all four workloads passes its checks.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import artifacts
import hostspeed
import ladder
import measure
import run
import serving
import standin
import tracing
import workloads
from ladder import StepResult

from repro.loadtest.workload import build_schedule

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_obeys_its_format():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert _UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) <= 64 * 1024


def _step(rate, p99=2.0, failed=0, shed=0, completion=1.0):
    return StepResult(rate, p99, failed, shed, completion)


def test_step_failure_rules():
    assert ladder.failure_reason(_step(500)) is None
    assert ladder.failure_reason(_step(500, p99=ladder.SLO_P99_MS)) is None
    assert ladder.failure_reason(_step(500, p99=25.1)) == "latency"
    assert ladder.failure_reason(_step(500, failed=1)) == "errors"
    assert ladder.failure_reason(_step(500, shed=1, p99=90.0)) == "errors"
    assert ladder.failure_reason(_step(500, completion=0.94)) == "backlog"
    assert ladder.failure_reason(_step(500, p99=math.inf)) == "latency"


def test_capacity_interpolates_log_log_between_the_bracket():
    steps = [_step(2000, p99=5.0), _step(4000, p99=125.0)]
    # p99 grows as rate^k with 2^k = 25, so 25 ms is at 2000 * 2^0.5.
    assert ladder.capacity(steps).rps == pytest.approx(2000 * math.sqrt(2))
    assert not ladder.capacity(steps).censored
    backlogged = [_step(2000, p99=5.0), _step(4000, p99=125.0, completion=0.5)]
    assert ladder.capacity(backlogged) == ladder.capacity(steps)


def test_capacity_without_a_latency_crossing_is_the_last_pass():
    assert ladder.capacity([_step(1000), _step(2000, failed=3)]).rps == 1000
    assert ladder.capacity([_step(1000), _step(2000, completion=0.5)]).rps == 1000
    assert ladder.capacity([_step(1000), _step(2000, p99=math.inf)]).rps == 1000


def test_capacity_edges():
    assert ladder.capacity([_step(500), _step(1000)]) == ladder.Capacity(
        1000, censored=True
    )
    assert ladder.capacity([_step(500, p99=40.0)]).rps == 0.0
    # A step below the reference rate may fail while later ones pass:
    # the bracket is the first failure and the last pass below it.
    steps = [_step(500), _step(1000, p99=30.0), _step(2000, p99=20.0),
             _step(2500, p99=50.0)]
    lo, hi = ladder.bracket(steps)
    assert (lo.rate, hi.rate) == (500, 1000)
    assert 500 < ladder.capacity(steps).rps < 1000


def test_a_reference_step_failed_on_errors_is_reported_not_failed():
    # The reference step lost 60 requests on a slow host: failed requests
    # count as infinitely slow, so its p99 is infinite and it fails on
    # errors.
    steps = [_step(100), _step(200), _step(400, p99=math.inf, failed=60)]
    assert ladder.failure_reason(steps[-1]) == "errors"
    lo, hi = ladder.bracket(steps)
    assert (lo.rate, hi.rate) == (200, 400)
    assert ladder.capacity(steps).rps == 200
    # Above the knee the step's metrics are reported, never a failure.
    outcome = measure.Outcome()
    units = {"loadtest.lat_p99_ms.r400": "ms", "loadtest.capacity_rps": "1/s"}
    values = run.report(
        outcome,
        {"loadtest.lat_p99_ms.r400": math.inf, "loadtest.capacity_rps": 200.0},
        units,
        gated=False,
    )
    assert values == {"loadtest.lat_p99_ms.r400": 0.0,
                      "loadtest.capacity_rps": 200.0}
    assert outcome.failed == 0
    assert outcome.qualifiers["loadtest.lat_p99_ms.r400"].startswith("absent")
    # A gated metric that is not finite is a broken measurement.
    run.report(outcome, {"latency_ms": math.nan}, {"latency_ms": "ms"}, gated=True)
    assert outcome.failed == 1


def test_standin_answers_the_smoke_traffic_as_expected(tmp_path):
    # Every kind of the smoke mix (point, batch, scan, unknown-vertex
    # probe) must come back as the load client expects it, or the
    # stand-in's slices fail and the serving timings mean nothing.
    pairs = {1: [2, 1], 2: [2, 1], 3: [4, 3], 4: [4, 3]}
    vertices = sorted(pairs)
    table = tmp_path / "answers.json"
    table.write_text(json.dumps({
        f"{v} {k}": [[4, 3, 2, 1]] if k < 3 else [pairs[v]]
        for v in vertices for k in range(1, 5)
    }))
    process = subprocess.Popen(
        [sys.executable, str(HERE / "standin.py"), str(table)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        address = ("127.0.0.1", int(process.stdout.readline()))
        workload = workloads.SERVE_WORKLOAD
        scenario = serving._scenario(workload, 400, 0.5, 0.0, 1, seed=3)
        requests = build_schedule(scenario, vertices)
        assert {r.kind for r in requests} == {"point", "batch", "scan", "unknown"}
        driven = serving._drive(address, process.pid, requests, scenario)
    finally:
        process.terminate()
        process.wait()
    assert driven["failed"] == 0
    assert driven["requests"] == len(requests) and driven["cpu_s"] > 0
    assert standin.answer(
        {"1 3": [{2, 1}]}, {"op": "query", "v": 1, "k": 3}
    ) == {"ok": True, "v": 1, "k": 3, "components": [[1, 2]], "count": 1}


def test_scale_reads_timings_at_the_reference_speed():
    assert hostspeed.scale([hostspeed.REFERENCE_S] * 5) == pytest.approx(1.0)
    slow = [2 * hostspeed.REFERENCE_S] * 5
    assert hostspeed.scale(slow) == pytest.approx(0.5)


def test_paired_reads_each_process_against_its_own_control():
    ref = hostspeed.REFERENCE_S
    # The host slowed to half speed for the last two processes, and
    # their controls with it: every pair reads the same 2 s.
    walls = [2.0, 2.0, 2.0, 4.0, 4.0]
    controls = [ref, ref, ref, 2 * ref, 2 * ref]
    assert hostspeed.paired(walls, controls) == pytest.approx(2.0)
    # One process stalled on its own is one pair of five: the median
    # leaves it out.
    assert hostspeed.paired([2.0, 2.0, 9.0, 2.0, 2.0], [ref] * 5) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        hostspeed.paired([1.0, 2.0], [ref])


def test_spawned_child_reports_its_own_peak_rss(tmp_path):
    # 150 MB resident in this process: a child forked from it would
    # start its ru_maxrss here.
    ballast = b"x" * (150 << 20)
    with measure.Spawner() as spawner:
        run = spawner.run([sys.executable, "-c", "pass"], tmp_path / "err")
    assert len(ballast) and run.exit_code == 0
    assert 0 < run.peak_rss_mb < 100


@pytest.mark.parametrize("target", tracing.TARGETS, ids=lambda t: t[0] + ":" + t[3])
def test_every_wrapped_callable_exists(target):
    _, module, owner, attribute = target
    _, original = tracing.resolve(module, owner, attribute)
    assert callable(getattr(original, "__func__", original))


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("flow.max_flow", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        inner()

    tracer.wrap("merging", outer_body)()
    layers = tracer.summary()["layers"]
    assert layers["flow.max_flow"]["calls"] == 2
    assert layers["merging"]["self_s"] < layers["flow.max_flow"]["self_s"] / 2


def test_run_table_glossary_matches_the_writer():
    readme = (HERE / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Run table columns", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([a-z0-9_]+)` \|", section, re.MULTILINE)
    assert tuple(documented) == artifacts.COLUMNS


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_passes_and_emits_exactly_the_glossary(tmp_path, trace):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", str(trace),
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert time.perf_counter() - started < 60
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert set(result["metrics"]) == {
        f"{w}.{m}" for w in workloads for m in wanted
    }
    measured = json.loads((tmp_path / "measured.json").read_text())
    emitted = {
        name
        for entry in measured["workloads"].values()
        for name in entry["measured"]
    }
    assert emitted == wanted
    if not trace:
        for name in workloads:
            run = measured["workloads"][name]["measured"]
            assert all(run[m] > 0 for m in wanted), (name, run)
    assert (tmp_path / "run_table.csv").read_text().startswith(
        ",".join(artifacts.COLUMNS)
    )
