"""Run the full reproduction and assemble a single REPORT.md.

Orchestrates what `pytest benchmarks/ --benchmark-only` does, but
without pytest: every experiment runner executes in-process, the
rendered tables are collected, and the output is one markdown report
with the measured tables inline — handy for CI artifacts or for a
quick "did my change move any number?" diff. Each table is the one
`ripple bench <experiment>` prints.

Usage:  python scripts/reproduce.py [output.md]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro import __version__
from repro.cli import _BENCHES

#: The report's section order (`ripple bench` experiment names).
SECTIONS = (
    "table2",
    "table3",
    "fig7",
    "fig8",
    "table4",
    "table5",
    "table6",
    "fig9",
    "fig10",
)


def _block(title: str, text: str) -> str:
    return f"## {title}\n\n```\n{text}\n```\n"


def main() -> None:
    from repro.bench import experiments

    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("REPORT.md")
    started = time.perf_counter()
    sections: list[str] = [
        "# Reproduction report",
        "",
        f"Library version {__version__}. Regenerates every table and "
        "figure of the paper's evaluation on the synthetic stand-in "
        "datasets; see EXPERIMENTS.md for the paper-vs-measured "
        "interpretation of each exhibit.",
        "",
    ]
    for name in SECTIONS:
        print(f"running: {name} …", flush=True)
        text = _BENCHES[name](experiments)
        sections.append(_block(text.splitlines()[0], text))

    elapsed = time.perf_counter() - started
    sections.append(f"_Total reproduction time: {elapsed:.1f}s._\n")
    target.write_text("\n".join(sections), encoding="utf-8")
    print(f"report written to {target} ({elapsed:.1f}s)")


if __name__ == "__main__":
    main()
