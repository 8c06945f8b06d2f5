"""Measure the perf-gate cases and write a committed baseline document.

Usage:
    python scripts/bench_baseline.py --refresh [--output FILE]

Baselines are committed (``benchmarks/baselines/smoke.json``) so CI
can gate pull requests without a trusted previous run; the document
embeds a busy-loop calibration so the comparison normalises away
machine-speed differences (see ``repro.bench.perfgate``). Refusing to
overwrite without ``--refresh`` keeps an accidental local run from
silently moving the goalposts.

Three ``repro.obs/1`` stats baselines are written next to it for the
CI perf-gate job's ``ripple stats diff``: ``smoke_stats.json`` (the
planted smoke case), ``seeding_stats.json`` (RIPPLE on the
``cit-patent`` stand-in at k=4) and ``index_stats.json`` (``ripple
index build`` on the ``sc-shipsec`` stand-in). The smoke graph never
reaches the LkVCS fallback; the stand-in makes 42 LkVCS enumerations
and 4 fallback seeds, so seeding drift shows in the second diff, and
k-VCC hierarchy drift in the third.
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

from repro.bench import perfgate  # noqa: E402

DEFAULT_OUTPUT = (
    Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "baselines"
    / "smoke.json"
)

DEFAULT_STATS_OUTPUT = DEFAULT_OUTPUT.with_name("smoke_stats.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"baseline file to write (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="uninstrumented wall-time repeats per case (default 5)",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="required to overwrite an existing baseline file",
    )
    parser.add_argument(
        "--stats-output",
        type=Path,
        default=None,
        help=(
            "repro.obs/1 stats baseline to write alongside (default: "
            "<output>_stats.json next to --output, i.e. "
            f"{DEFAULT_STATS_OUTPUT}); CI diffs each run against it "
            "with `ripple stats diff`"
        ),
    )
    args = parser.parse_args(argv)
    if args.stats_output is None:
        args.stats_output = args.output.with_name(
            args.output.stem + "_stats.json"
        )

    seeding_stats_output = args.output.with_name("seeding_stats.json")
    index_stats_output = args.output.with_name("index_stats.json")

    if not args.refresh:
        for existing in (
            args.output,
            args.stats_output,
            seeding_stats_output,
            index_stats_output,
        ):
            if existing.exists():
                print(
                    f"error: {existing} exists; pass --refresh to overwrite",
                    file=sys.stderr,
                )
                return 2

    document = perfgate.run_suite(repeats=args.repeats)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"baseline written to {args.output}")
    for name, case in sorted(document["cases"].items()):
        print(
            f"  {name}: wall {case['wall_s']:.6f}s, "
            f"peak {case['mem_peak_bytes']} bytes"
        )
    print(f"  calibration: {document['calibration_s']:.6f}s")

    # Sibling repro.obs/1 baseline: one instrumented run of the first
    # smoke case, saved so the CI perf-gate job can upload a
    # `ripple stats diff` of the committed counters vs the current
    # run's (counters are deterministic; the timing rows are
    # informational only and never gated).
    stats_doc = json.loads(_stats_baseline().to_json())
    with open(args.stats_output, "w", encoding="utf-8") as handle:
        json.dump(stats_doc, handle, indent=2)
        handle.write("\n")
    print(f"stats baseline written to {args.stats_output}")
    _seeding_stats_baseline(seeding_stats_output)
    print(f"seeding stats baseline written to {seeding_stats_output}")
    _index_stats_baseline(index_stats_output)
    print(f"index stats baseline written to {index_stats_output}")
    return 0


def _stats_baseline() -> "obs.Collector":
    """Collect one instrumented RIPPLE run of the CI smoke case."""
    from repro import obs
    from repro.core.ripple import ripple
    from repro.graph.generators import planted_kvcc_graph

    graph = planted_kvcc_graph(3, 30, 4, seed=0)
    collector = obs.Collector()
    collector.enable_spans()
    with obs.collecting(collector):
        ripple(graph, 4)
    return collector


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
