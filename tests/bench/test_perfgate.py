"""Tests for the load gate and calibration (repro.bench.perfgate) and
for the scripts built on them: bench_compare.py (the load gate) and
bench_baseline.py (the counter gate's stats baselines)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import perfgate

REPO = Path(__file__).resolve().parents[2]
SCRIPTS = REPO / "scripts"


class TestSuite:
    def test_calibration_is_positive_and_stable(self):
        assert perfgate.calibrate(rounds=1) > 0


def _run(script, *argv):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        capture_output=True,
        text=True,
        cwd=str(REPO),
    )


@pytest.fixture(scope="module")
def baselines(tmp_path_factory):
    """The directory of one bench_baseline.py run."""
    out = tmp_path_factory.mktemp("baselines")
    written = _run("bench_baseline.py", "--output-dir", str(out))
    assert written.returncode == 0, written.stderr
    assert sorted(path.name for path in out.iterdir()) == [
        "index_stats.json",
        "seeding_stats.json",
        "smoke_stats.json",
    ]
    return out


def _counters(directory, name):
    document = json.loads((directory / name).read_text(encoding="utf-8"))
    assert document["schema"] == "repro.obs/1"
    return document["counters"]


class TestScripts:
    """bench_baseline.py writes the counter gate's stats baselines;
    bench_compare.py reads the committed load-gate baseline."""

    def test_baseline_writes_seeding_stats_that_reach_lkvcs(self, baselines):
        counters = _counters(baselines, "seeding_stats.json")
        # The smoke case never reaches the LkVCS fallback; this run must.
        assert counters["seeding.fallback_seeds"] > 0
        assert counters["seeding.lkvcs_enumerations"] > 0

    def test_baseline_writes_index_stats_of_the_hierarchy(self, baselines):
        # CI's index diff reads this file: the hierarchy must both search
        # for cuts and carry components up unchanged.
        counters = _counters(baselines, "index_stats.json")
        assert counters["vcce_td.cut_searches"] > 0
        assert counters["hierarchy.carried"] > 0

    def test_baseline_refuses_overwrite_without_refresh(self, tmp_path):
        target = tmp_path / "seeding_stats.json"
        target.write_text("{}", encoding="utf-8")
        refused = _run("bench_baseline.py", "--output-dir", str(tmp_path))
        assert refused.returncode == 2
        assert "--refresh" in refused.stderr
        assert target.read_text(encoding="utf-8") == "{}"

    def test_compare_reports_missing_baseline(self, tmp_path):
        table = _write_table(tmp_path, [_load_row()])
        missing = _run(
            "bench_compare.py", "--load-table", str(table),
            "--load-gate", str(tmp_path / "none.json"),
        )
        assert missing.returncode == 2
        assert "error" in missing.stderr


def _load_row(**overrides):
    from repro.loadtest import Sample
    from repro.loadtest.run_table import aggregate

    kwargs = dict(
        scenario="smoke",
        repetition=1,
        topology="toy",
        workers=2,
        offered_rps=40.0,
        samples=[Sample("point", 0.5, 2.0, "ok")] * 10,
        measure_window_s=1.0,
        calibration_s=0.02,
    )
    kwargs.update(overrides)
    return aggregate(**kwargs)


def _write_table(tmp_path, rows):
    from repro.loadtest.run_table import write_run_table

    path = tmp_path / "run_table.csv"
    write_run_table(path, rows)
    return path


def _load_gate(**overrides):
    gate = {
        "schema": perfgate.LOAD_GATE_SCHEMA,
        "scenario": "smoke",
        "calibration_s": 0.02,
        "p95_ceiling_ms": 10.0,
        "rps_floor": 5.0,
        "max_failure_rate": 0.0,
    }
    gate.update(overrides)
    return gate


class TestLoadGate:
    def test_clean_rows_pass(self):
        verdict = perfgate.compare_load_table([_load_row()], _load_gate())
        assert verdict["ok"] and not verdict["failures"]

    def test_gate_scenario_filters_rows(self):
        other = _load_row(scenario="storm")
        verdict = perfgate.compare_load_table([other], _load_gate())
        assert not verdict["ok"]
        assert "no run-table rows matched" in verdict["failures"][0]

    def test_failure_rate_over_cap_fails(self):
        from repro.loadtest import Sample

        samples = [Sample("point", 0.5, 2.0, "ok")] * 9 + [
            Sample("point", 0.6, 0.0, "deadline", code="client-timeout")
        ]
        verdict = perfgate.compare_load_table(
            [_load_row(samples=samples)], _load_gate()
        )
        assert not verdict["ok"]
        assert any("failure_rate" in f for f in verdict["failures"])

    def test_slowness_rescales_both_thresholds(self):
        from repro.loadtest import Sample

        # A 10x slower machine: p95 ceiling stretches 10x, floor
        # shrinks 10x — the same row passes where raw thresholds fail.
        slow_samples = [Sample("point", 0.5, 50.0, "ok")] * 6
        raw = _load_gate(p95_ceiling_ms=10.0, rps_floor=5.0)
        slow_row = _load_row(calibration_s=0.2, samples=slow_samples)
        assert perfgate.compare_load_table([slow_row], raw)["ok"]
        reference_speed = _load_row(samples=slow_samples)
        assert not perfgate.compare_load_table([reference_speed], raw)["ok"]

    def test_server_p95_cross_check_leaves_out_send_lateness(self):
        from repro.loadtest import Sample

        # The generator woke 4.5 ms late for one request in ten: the
        # client's scheduled-instant p95 carries that lateness, the
        # daemon never saw it, and the cross-check compares the figure
        # measured from the actual send.
        samples = [Sample("point", 0.5, 0.4, "ok")] * 9 + [
            Sample("point", 0.6, 4.9, "ok", send_late_ms=4.5)
        ]
        row = _load_row(samples=samples, server_p95_ms=0.4)
        assert row.p95_latency_ms == 4.9
        assert row.p95_from_send_ms == pytest.approx(0.4)
        gate = _load_gate(server_p95_tolerance=0.2, server_p95_slack_ms=0.0)
        verdict = perfgate.compare_load_table([row], gate)
        assert verdict["ok"], verdict["failures"]

    def test_row_without_calibration_fails(self):
        verdict = perfgate.compare_load_table(
            [_load_row(calibration_s=float("nan"))], _load_gate()
        )
        assert not verdict["ok"]
        assert any("calibration" in f for f in verdict["failures"])

    def test_config_rejects_wrong_schema_and_types(self, tmp_path):
        wrong = tmp_path / "gate.json"
        wrong.write_text(json.dumps({"schema": "nope"}), encoding="utf-8")
        with pytest.raises(ValueError, match="schema"):
            perfgate.load_gate_config(str(wrong))
        untyped = tmp_path / "untyped.json"
        untyped.write_text(
            json.dumps(dict(_load_gate(), rps_floor="fast")),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="rps_floor"):
            perfgate.load_gate_config(str(untyped))
        optional = tmp_path / "optional.json"
        optional.write_text(
            json.dumps(dict(_load_gate(), max_shed_rate="high")),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="max_shed_rate"):
            perfgate.load_gate_config(str(optional))

    def test_render_load_report_lists_failures(self):
        verdict = perfgate.compare_load_table(
            [_load_row(calibration_s=float("nan"))], _load_gate()
        )
        report = perfgate.render_load_report(verdict)
        assert "Load gate" in report
        assert "FAILURES" in report


class TestLoadGateScript:
    def test_load_table_mode_passes_and_trips(self, tmp_path):
        gate_path = tmp_path / "gate.json"
        gate_path.write_text(json.dumps(_load_gate()), encoding="utf-8")
        table = _write_table(tmp_path, [_load_row()])
        clean = _run(
            "bench_compare.py", "--load-table", str(table),
            "--load-gate", str(gate_path),
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        assert "load gate passed" in clean.stdout

        strict = tmp_path / "strict.json"
        strict.write_text(
            json.dumps(_load_gate(p95_ceiling_ms=0.000001)),
            encoding="utf-8",
        )
        tripped = _run(
            "bench_compare.py", "--load-table", str(table),
            "--load-gate", str(strict),
        )
        assert tripped.returncode == 1
        assert "p95" in tripped.stdout

    def test_load_table_mode_reports_bad_inputs(self, tmp_path):
        gate_path = tmp_path / "gate.json"
        gate_path.write_text(json.dumps(_load_gate()), encoding="utf-8")
        missing = _run(
            "bench_compare.py", "--load-table", str(tmp_path / "no.csv"),
            "--load-gate", str(gate_path),
        )
        assert missing.returncode == 2
        assert "error" in missing.stderr

    def test_load_table_mode_rejects_non_numeric_threshold(self, tmp_path):
        gate_path = tmp_path / "gate.json"
        gate_path.write_text(
            json.dumps(_load_gate(max_shed_rate="high")), encoding="utf-8"
        )
        table = _write_table(tmp_path, [_load_row()])
        invalid = _run(
            "bench_compare.py",
            "--load-table",
            str(table),
            "--load-gate",
            str(gate_path),
        )
        assert invalid.returncode == 2
        assert "max_shed_rate" in invalid.stderr
        assert "Traceback" not in invalid.stderr

    def test_load_table_is_required(self):
        usage = _run("bench_compare.py")
        assert usage.returncode == 2
        assert "--load-table" in usage.stderr
