"""Benchmark harness: experiment runners, memory probe, table rendering."""

from repro._lazy import lazy_exports

#: Re-exported name → its module, imported on first access (repro._lazy).
_EXPORTS = {
    "bar_chart": "repro.bench.ascii_chart",
    "grouped_bar_chart": "repro.bench.ascii_chart",
    "fig7_series": "repro.bench.experiments",
    "fig8_rows": "repro.bench.experiments",
    "fig9_rows": "repro.bench.experiments",
    "fig10_rows": "repro.bench.experiments",
    "table2_rows": "repro.bench.experiments",
    "table3_rows": "repro.bench.experiments",
    "table4_rows": "repro.bench.experiments",
    "table5_rows": "repro.bench.experiments",
    "table6_rows": "repro.bench.experiments",
    "measure_peak_memory": "repro.bench.memory",
    "format_value": "repro.bench.reporting",
    "render_series": "repro.bench.reporting",
    "render_table": "repro.bench.reporting",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

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
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "table6_rows",
]
