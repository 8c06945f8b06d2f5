"""Run one ``ripple`` CLI command with layer spans recorded.

Usage::

    python benchmarks/suite/traced_enumerate.py SUMMARY.json TRACE.json \
        enumerate graph.txt -k 4 --format snap --quiet --json out.json

Everything after the two output paths is handed to ``repro.cli.main``
unchanged, so the traced process does exactly what the untraced
``python -m repro.cli …`` run does, plus the shims of ``tracing.py``
and an ``obs.collecting()`` scope whose counters ride along. At exit
it writes SUMMARY.json (import seconds, per-layer self time, counters)
and TRACE.json (Chrome trace events), then exits with the CLI's code.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import repro.cli  # noqa: E402

IMPORTED = time.perf_counter()

from repro import obs  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    summary_path, trace_path, *argv = sys.argv[1:]
    tracer = tracing.Tracer()
    tracer.install()
    with obs.collecting() as collector:
        code = repro.cli.main(argv)
    finished = time.perf_counter()
    summary = tracer.summary()
    summary.update(
        import_s=IMPORTED - STARTED,
        main_s=finished - IMPORTED,
        exit_code=code,
        counters=dict(collector.counters),
    )
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.chrome_trace(STARTED), handle)
    # Writing the dump is the tracer's own cost, not the program's; the
    # parent subtracts it from the process wall.
    summary["write_s"] = time.perf_counter() - finished
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
