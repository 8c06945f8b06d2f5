"""Benchmark harness: experiment runners, memory probe, table rendering."""

from repro.bench.ascii_chart import bar_chart, grouped_bar_chart
from repro.bench.experiments import (
    fig7_series,
    fig8_rows,
    fig9_rows,
    fig10_rows,
    run_with_stats,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
    table6_rows,
)
from repro.bench.memory import measure_peak_memory
from repro.bench.reporting import format_value, render_series, render_table

__all__ = [
    "bar_chart",
    "fig10_rows",
    "fig7_series",
    "fig8_rows",
    "fig9_rows",
    "format_value",
    "grouped_bar_chart",
    "measure_peak_memory",
    "render_series",
    "render_table",
    "run_with_stats",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "table6_rows",
]
