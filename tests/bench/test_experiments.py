"""Tests for the experiment harness (small slices, not full runs)."""

from repro.bench import (
    fig7_series,
    fig8_rows,
    fig9_rows,
    render_series,
    render_table,
    table3_rows,
    table6_rows,
)
from repro.bench.memory import measure_peak_memory


class TestMemoryProbe:
    def test_returns_result_and_positive_peak(self):
        result, peak = measure_peak_memory(lambda: [0] * 100_000)
        assert len(result) == 100_000
        assert peak > 100_000  # at least the list buffer

    def test_sequential_measurements_independent(self):
        _, big = measure_peak_memory(lambda: [0] * 500_000)
        _, small = measure_peak_memory(lambda: [0] * 1_000)
        assert small < big


class TestRendering:
    def test_table_alignment(self):
        text = render_table(
            "Title", ["a", "long_header"], [[1, 2.5], ["xy", None]]
        )
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert lines[1] == "====="
        assert "long_header" in lines[2]
        assert "2.50" in text
        assert "-" in lines[-1]  # None renders as '-'

    def test_empty_table(self):
        text = render_table("T", ["x"], [])
        assert "x" in text

    def test_series(self):
        text = render_series(
            "Fig", "k", [3, 4], {"TD": [1.0, 2.0], "RP": [0.5, 0.25]}
        )
        assert "k" in text
        assert "0.25" in text


class TestExperimentSlices:
    def test_table3_single_dataset(self):
        rows = table3_rows(names=["uk-2005"])
        assert len(rows) == 3  # three k values
        for row in rows:
            name, k, rp_f, bu_f, rp_j, bu_j = row
            assert name == "uk-2005"
            assert 0 <= rp_f <= 100 and 0 <= bu_f <= 100
            # the headline claim, at row granularity
            assert rp_f >= bu_f - 0.01
            assert rp_j >= bu_j - 0.01

    def test_fig7_series_shape(self):
        ks, times = fig7_series("uk-2005")
        assert ks == [6, 7, 8]
        assert set(times) == {"VCCE-TD", "VCCE-BU", "RIPPLE"}
        assert all(len(v) == len(ks) for v in times.values())

    def test_fig8_rows(self):
        rows = fig8_rows(names=["uk-2005"])
        assert len(rows) == 1
        _, _, td_kib, bu_kib, rp_kib = rows[0]
        assert td_kib > 0 and bu_kib > 0 and rp_kib > 0

    def test_fig9_shares_sum_to_hundred(self):
        rows = fig9_rows(names=["uk-2005"])
        for row in rows:
            assert abs(sum(row[2:]) - 100.0) < 1.5  # rounding slack

    def test_table6_coverage_bounds(self):
        rows = table6_rows(names=["uk-2005"])
        for row in rows:
            _, _, kbfs, clique, total, speedup = row
            assert 0 <= kbfs <= 100
            assert 0 <= clique <= 100
            assert total >= max(kbfs, clique) - 0.01
            assert speedup > 0


class TestSanityCheck:
    def test_ripple_outputs_verify_on_dataset(self):
        from repro.core import ripple
        from repro.datasets import DATASETS
        from repro.flow import is_k_vertex_connected

        graph = DATASETS["uk-2005"].graph()
        components = ripple(graph, 7).components
        assert components
        for component in components:
            assert is_k_vertex_connected(graph.subgraph(component), 7)
