"""Tests for the perf-regression gate (repro.bench.perfgate + scripts)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import perfgate
from repro.bench.perfgate import BenchCase

REPO = Path(__file__).resolve().parents[2]
SCRIPTS = REPO / "scripts"


def _tiny_cases() -> dict[str, BenchCase]:
    def setup():
        return lambda: sum(range(500))

    return {"tiny/sum": BenchCase("tiny/sum", "trivial case", setup)}


def _doc(calibration=0.01, wall=0.1, mem=1000, spans=None):
    return {
        "schema": perfgate.SCHEMA,
        "calibration_s": calibration,
        "repeats": 3,
        "cases": {
            "c": {
                "description": "synthetic",
                "wall_s": wall,
                "mem_peak_bytes": mem,
                "spans": spans or {},
            }
        },
    }


class TestSuite:
    def test_run_suite_document_shape(self):
        document = perfgate.run_suite(repeats=1, cases=_tiny_cases())
        assert document["schema"] == perfgate.SCHEMA
        assert document["calibration_s"] > 0
        case = document["cases"]["tiny/sum"]
        assert case["wall_s"] >= 0
        assert case["mem_peak_bytes"] >= 0
        assert isinstance(case["spans"], dict)

    def test_builtin_cases_record_pipeline_spans(self):
        cases = perfgate.builtin_cases()
        case = cases["ripple/planted-3x30-k4"]
        measured = perfgate.run_case(case, repeats=1)
        assert measured["wall_s"] > 0
        assert measured["mem_peak_bytes"] > 0
        assert "pipeline.run" in measured["spans"]
        assert "phase.merging" in measured["spans"]

    def test_calibration_is_positive_and_stable(self):
        first = perfgate.calibrate(rounds=1)
        assert first > 0

    def test_load_document_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/1"}), encoding="utf-8")
        with pytest.raises(ValueError):
            perfgate.load_document(str(bad))


class TestCompare:
    def test_within_tolerance_passes(self):
        verdict = perfgate.compare(_doc(wall=0.1), _doc(wall=0.11))
        assert verdict["ok"] and not verdict["failures"]

    def test_wall_regression_fails(self):
        verdict = perfgate.compare(_doc(wall=0.1), _doc(wall=0.2))
        assert not verdict["ok"]
        assert any("wall" in line for line in verdict["failures"])

    def test_mem_regression_fails(self):
        verdict = perfgate.compare(_doc(mem=1000), _doc(mem=1300))
        assert not verdict["ok"]
        assert any("mem" in line for line in verdict["failures"])

    def test_calibration_normalises_slow_machines(self):
        # Candidate took 2x the wall time on a machine whose busy loop
        # is also 2x slower: no regression after normalisation.
        baseline = _doc(calibration=0.01, wall=0.1)
        candidate = _doc(calibration=0.02, wall=0.2)
        assert perfgate.compare(baseline, candidate)["ok"]

    def test_missing_case_fails(self):
        candidate = _doc()
        candidate["cases"] = {}
        verdict = perfgate.compare(_doc(), candidate)
        assert not verdict["ok"]
        assert "missing" in verdict["failures"][0]

    def test_new_case_is_reported_not_gated(self):
        baseline = _doc()
        candidate = _doc()
        candidate["cases"]["extra"] = candidate["cases"]["c"].copy()
        verdict = perfgate.compare(baseline, candidate)
        assert verdict["ok"]
        assert any("new case" in row[-1] for row in verdict["rows"])

    def test_span_delta_rows(self):
        baseline = _doc(spans={"merge.test": 0.05})
        candidate = _doc(wall=0.2, spans={"merge.test": 0.15})
        verdict = perfgate.compare(baseline, candidate)
        assert ["c", "merge.test", "0.050000", "0.150000", "+200.0%"] in (
            verdict["span_rows"]
        )

    def test_render_report_shows_spans_on_failure(self):
        baseline = _doc(spans={"merge.test": 0.05})
        candidate = _doc(wall=0.5, spans={"merge.test": 0.4})
        report = perfgate.render_report(
            perfgate.compare(baseline, candidate)
        )
        assert "FAILURES" in report
        assert "Per-span wall deltas" in report
        report_ok = perfgate.render_report(
            perfgate.compare(baseline, _doc(spans={"merge.test": 0.05}))
        )
        assert "perf gate passed" in report_ok
        assert "Per-span wall deltas" not in report_ok


class TestScripts:
    """End to end: the acceptance criterion for the gate scripts."""

    def _run(self, script, *argv):
        return subprocess.run(
            [sys.executable, str(SCRIPTS / script), *argv],
            capture_output=True,
            text=True,
            cwd=str(REPO),
        )

    def test_baseline_then_compare_clean_and_injected(self, tmp_path):
        baseline = tmp_path / "base.json"
        written = self._run(
            "bench_baseline.py", "--output", str(baseline),
            "--repeats", "3",
        )
        assert written.returncode == 0, written.stderr
        document = json.loads(baseline.read_text(encoding="utf-8"))
        assert document["schema"] == perfgate.SCHEMA

        # A widened tolerance keeps machine-load noise from flaking the
        # clean run; the injected 2x slowdown (+100%) still trips it.
        clean = self._run(
            "bench_compare.py", str(baseline), "--repeats", "3",
            "--wall-tolerance", "0.8",
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        assert "perf gate passed" in clean.stdout

        slowed = self._run(
            "bench_compare.py", str(baseline), "--repeats", "3",
            "--wall-tolerance", "0.5",
            "--inject-slowdown", "ripple/planted-3x30-k4:2.0",
        )
        assert slowed.returncode == 1, slowed.stdout + slowed.stderr
        assert "WALL REGRESSION" in slowed.stdout
        assert "Per-span wall deltas" in slowed.stdout

    def test_baseline_writes_seeding_stats_that_reach_lkvcs(self, tmp_path):
        written = self._run(
            "bench_baseline.py", "--output", str(tmp_path / "base.json"),
            "--repeats", "1",
        )
        assert written.returncode == 0, written.stderr
        document = json.loads(
            (tmp_path / "seeding_stats.json").read_text(encoding="utf-8")
        )
        assert document["schema"] == "repro.obs/1"
        # The smoke case never reaches the LkVCS fallback; this run must.
        assert document["counters"]["seeding.fallback_seeds"] > 0
        assert document["counters"]["seeding.lkvcs_enumerations"] > 0

    def test_baseline_refuses_overwrite_without_refresh(self, tmp_path):
        target = tmp_path / "base.json"
        target.write_text("{}", encoding="utf-8")
        refused = self._run(
            "bench_baseline.py", "--output", str(target), "--repeats", "1"
        )
        assert refused.returncode == 2
        assert "--refresh" in refused.stderr

    def test_compare_reports_missing_baseline(self, tmp_path):
        missing = self._run(
            "bench_compare.py", str(tmp_path / "none.json"),
            "--repeats", "1",
        )
        assert missing.returncode == 2
        assert "error" in missing.stderr

    def test_compare_save_current_artifact(self, tmp_path):
        baseline = tmp_path / "base.json"
        assert self._run(
            "bench_baseline.py", "--output", str(baseline),
            "--repeats", "1",
        ).returncode == 0
        current = tmp_path / "current.json"
        run = self._run(
            "bench_compare.py", str(baseline), "--repeats", "1",
            # Generous tolerance: this test checks the artifact, not the
            # gate, and single-repeat walls are noisy under suite load.
            "--wall-tolerance", "5.0",
            "--save-current", str(current),
        )
        assert run.returncode == 0, run.stdout + run.stderr
        saved = json.loads(current.read_text(encoding="utf-8"))
        assert saved["schema"] == perfgate.SCHEMA


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

    def test_render_load_report_lists_failures(self):
        verdict = perfgate.compare_load_table(
            [_load_row(calibration_s=float("nan"))], _load_gate()
        )
        report = perfgate.render_load_report(verdict)
        assert "Load gate" in report
        assert "FAILURES" in report


class TestLoadGateScript:
    _run = TestScripts._run

    def _table(self, tmp_path, rows):
        from repro.loadtest.run_table import write_run_table

        path = tmp_path / "run_table.csv"
        write_run_table(path, rows)
        return path

    def test_load_table_mode_passes_and_trips(self, tmp_path):
        gate_path = tmp_path / "gate.json"
        gate_path.write_text(json.dumps(_load_gate()), encoding="utf-8")
        table = self._table(tmp_path, [_load_row()])
        clean = self._run(
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
        tripped = self._run(
            "bench_compare.py", "--load-table", str(table),
            "--load-gate", str(strict),
        )
        assert tripped.returncode == 1
        assert "p95" in tripped.stdout

    def test_load_table_mode_reports_bad_inputs(self, tmp_path):
        gate_path = tmp_path / "gate.json"
        gate_path.write_text(json.dumps(_load_gate()), encoding="utf-8")
        missing = self._run(
            "bench_compare.py", "--load-table", str(tmp_path / "no.csv"),
            "--load-gate", str(gate_path),
        )
        assert missing.returncode == 2
        assert "error" in missing.stderr
