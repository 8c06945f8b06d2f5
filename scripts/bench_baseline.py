"""Write the committed ``repro.obs/1`` counter baselines of the CI counter gate.

Usage:
    python scripts/bench_baseline.py --refresh [--output-dir DIR]

CI's perf-gate job exports the stats documents of three runs and fails
unless ``ripple stats diff`` against each committed baseline prints
``counters: identical``. This script writes those baselines into
``--output-dir`` (default ``benchmarks/baselines``):

- ``smoke_stats.json``: RIPPLE on 3 planted 4-VCCs of 30 vertices;
- ``seeding_stats.json``: RIPPLE on the ``cit-patent`` stand-in at
  k=4, which makes 42 LkVCS enumerations and 4 fallback seeds (the
  planted graph never reaches the LkVCS fallback);
- ``index_stats.json``: ``ripple index build`` on the ``sc-shipsec``
  stand-in, the counters of the k-VCC hierarchy.

Counters are deterministic, so a change that moves one refreshes the
baselines in the same commit. Refusing to overwrite without
``--refresh`` keeps an accidental local run from silently moving them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

DEFAULT_OUTPUT_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=DEFAULT_OUTPUT_DIR,
        help=f"directory to write the baselines into (default {DEFAULT_OUTPUT_DIR})",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="required to overwrite existing baseline files",
    )
    args = parser.parse_args(argv)

    writers = {
        "smoke_stats.json": _smoke_stats_baseline,
        "seeding_stats.json": _seeding_stats_baseline,
        "index_stats.json": _index_stats_baseline,
    }
    targets = {args.output_dir / name: write for name, write in writers.items()}
    if not args.refresh:
        for existing in targets:
            if existing.exists():
                print(
                    f"error: {existing} exists; pass --refresh to overwrite",
                    file=sys.stderr,
                )
                return 2

    args.output_dir.mkdir(parents=True, exist_ok=True)
    for path, write in targets.items():
        write(path)
        print(f"stats baseline written to {path}")
    return 0


def _smoke_stats_baseline(path: Path) -> None:
    """Write the stats document of one instrumented RIPPLE run on the
    planted smoke graph (the graph of the CI export's ``stats.json``)."""
    from repro import obs
    from repro.core.ripple import ripple
    from repro.graph.generators import planted_kvcc_graph

    graph = planted_kvcc_graph(3, 30, 4, seed=0)
    collector = obs.Collector()
    collector.enable_spans()
    with obs.collecting(collector):
        ripple(graph, 4)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(json.loads(collector.to_json()), handle, indent=2)
        handle.write("\n")


def _seeding_stats_baseline(path: Path) -> None:
    """Write the stats document of the CI seeding run.

    RIPPLE on the ``cit-patent`` stand-in at k=4, run through the same
    ``ripple generate`` / ``ripple enumerate --stats-json`` commands as
    the CI step: a graph loaded from its edge list inserts vertices in
    another order than the generator does, which moves flow counters.
    """
    with tempfile.TemporaryDirectory() as tmp:
        edges = str(Path(tmp) / "cit-patent.edges")
        _ripple(["generate", "cit-patent", "-o", edges])
        _ripple(
            ["enumerate", edges, "-k", "4", "--quiet", "--stats-json", str(path)]
        )


def _index_stats_baseline(path: Path) -> None:
    """Write the stats document of the CI index build: the k-VCC
    hierarchy of the ``sc-shipsec`` stand-in, through the same
    ``ripple generate`` / ``ripple --stats-json FILE index build``
    commands as the CI step."""
    with tempfile.TemporaryDirectory() as tmp:
        edges = str(Path(tmp) / "sc-shipsec.edges")
        index = str(Path(tmp) / "sc-shipsec.index.json")
        _ripple(["generate", "sc-shipsec", "-o", edges])
        _ripple(["--stats-json", str(path), "index", "build", edges, "-o", index])


def _ripple(argv: list[str]) -> None:
    """Run one ``ripple`` command in-process, quietly; exit on failure."""
    from repro import cli

    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise SystemExit(f"ripple {' '.join(argv)} exited with {status}")


if __name__ == "__main__":
    sys.exit(main())
