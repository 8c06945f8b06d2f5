"""Collect sets of benchmark runs and compare them.

Collect ten seeds of every workload (seeds outer, workloads inner, so
host drift spreads over all workloads)::

    python3 benchmarks/suite/sets.py collect a.jsonl --seeds 1-10

Compare a parent checkout with a change in alternating pairs (the side
that runs first alternates with the seed)::

    python3 benchmarks/suite/sets.py collect pairs.jsonl --seeds 1-10 \
        --checkout parent=../parent --checkout change=.

Summarise: per workload and metric, the median, quartiles and spread
(interquartile distance over the median) of each side, the second
side's change against the first, and how often it won a paired seed::

    python3 benchmarks/suite/sets.py summarize a.jsonl b.jsonl
    python3 benchmarks/suite/sets.py summarize pairs.jsonl

Each JSONL record is one run: side, workload, seed, trace, and the
run's final JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def collect(args: argparse.Namespace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = [
        tuple(item.split("=", 1)) if "=" in item else (item, item)
        for item in (args.checkout or ["."])
    ]
    failures = 0
    with open(args.output, "a", encoding="utf-8") as sink:
        for position, seed in enumerate(args.seeds):
            for workload in workloads:
                # Alternate which side runs first, pair by pair.
                ordered = sides if position % 2 == 0 else sides[::-1]
                for label, checkout in ordered:
                    command = [
                        sys.executable, "benchmarks/suite/run.py",
                        "--workload", workload, "--seed", str(seed),
                        "--trace", str(args.trace),
                    ]
                    done = subprocess.run(
                        command, cwd=checkout, capture_output=True, text=True,
                        timeout=600,
                    )
                    lines = done.stdout.strip().splitlines()
                    result = json.loads(lines[-1]) if lines else None
                    if done.returncode != 0:
                        failures += 1
                        print(done.stdout[-2000:], done.stderr[-2000:],
                              file=sys.stderr)
                    record = {
                        "side": label, "workload": workload, "seed": seed,
                        "trace": args.trace, "exit_code": done.returncode,
                        "result": result,
                    }
                    sink.write(json.dumps(record) + "\n")
                    sink.flush()
                    print(f"{label} {workload} seed {seed}: exit "
                          f"{done.returncode}", file=sys.stderr)
    return 1 if failures else 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(args: argparse.Namespace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides: dict[str, dict] = {}
    for path in args.files:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record["result"] is None:
                continue
            side = record["side"] if len(args.files) == 1 else path
            per = sides.setdefault(side, defaultdict(dict))
            for name, entry in record["result"]["metrics"].items():
                per[(record["workload"], name)][record["seed"]] = entry["value"]
    names = list(sides)
    header = ["workload", "metric"]
    for name in names:
        header += [f"{name} median", "q1", "q3", "spread"]
    if len(names) == 2:
        header += ["change", "bound", "verdict", "wins"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    keys = sorted(set().union(*(set(s) for s in sides.values())))
    worst = 0
    for workload, metric in keys:
        spec_metric = metrics.get(metric, {})
        cells = [workload, metric]
        medians = []
        for name in names:
            values = list(sides[name].get((workload, metric), {}).values())
            if not values:
                cells += ["-"] * 4
                medians.append(None)
                continue
            q1, mid, q3 = _quartiles(values)
            spread = (q3 - q1) / mid if mid else 0.0
            cells += [f"{mid:.6g}", f"{q1:.6g}", f"{q3:.6g}", f"{spread:.3f}"]
            medians.append(mid)
        if len(names) == 2 and None not in medians and "bound" in spec_metric:
            base, cand = medians
            sign = 1.0 if spec_metric["better"] == "lower" else -1.0
            change = sign * (cand - base) / base if base else 0.0
            bound = spec_metric["bound"]
            paired = [
                (sides[names[0]][(workload, metric)][seed], value)
                for seed, value in sides[names[1]][(workload, metric)].items()
                if seed in sides[names[0]][(workload, metric)]
            ]
            wins = sum(1 for b, c in paired if sign * (c - b) < 0)
            verdict = "ok" if change <= bound else "WORSE"
            worst += verdict != "ok"
            cells += [f"{change:+.3f}", f"{bound}", verdict,
                      f"{wins}/{len(paired)}"]
        elif len(names) == 2:
            cells += ["", "", "", ""]
        print("| " + " | ".join(cells) + " |")
    return 1 if worst else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("collect", help="run seeds x workloads, append JSONL")
    run.add_argument("output")
    run.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    run.add_argument("--workload", action="append")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument(
        "--checkout", action="append", metavar="[LABEL=]DIR",
        help="checkout to run from; repeat for alternating pairs "
        "(default: this one)",
    )
    table = sub.add_parser("summarize", help="markdown table of one or two sides")
    table.add_argument("files", nargs="+")
    args = parser.parse_args()
    if args.command == "collect":
        return collect(args)
    return summarize(args)


if __name__ == "__main__":
    sys.exit(main())
