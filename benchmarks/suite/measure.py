"""Shared measurement plumbing: timed child processes, traced runs, and
the per-layer metrics a traced run's summary reduces to."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
TRACED = HERE / "traced_enumerate.py"
HELPER = HERE / "spawn_helper.py"
CONTROL = HERE / "hostspeed.py"

#: A child process slower than this is killed and counted as failed,
#: keeping every invocation of the benchmark inside its time limit.
PROCESS_TIMEOUT_S = 120.0


def child_env() -> dict[str, str]:
    """The environment every program process gets: the checkout's
    ``src`` on the path and no ``REPRO_*`` switch inherited from the
    caller, so the program runs on its defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass(frozen=True)
class ProcessRun:
    """One child process, timed spawn to exit from the outside."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


class Spawner:
    """Runs every measured child through ``spawn_helper.py``.

    On Linux a child's ``ru_maxrss`` starts at the peak RSS of the
    address space it was forked from, so a child started by the
    benchmark process (which holds inputs and oracles) would report the
    benchmark's peak whenever its own is smaller. The helper is a bare
    interpreter of about 12 MB, far below any child measured, so
    children started from it report their own.
    """

    def __init__(self) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, str(HELPER)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], stderr_path: Path) -> ProcessRun:
        """Spawn ``argv``, wait for it, and read its rusage; stdout is
        discarded and stderr kept in ``stderr_path`` for diagnosis."""
        request = {
            "argv": argv, "env": child_env(), "stderr": str(stderr_path),
            "timeout_s": PROCESS_TIMEOUT_S,
        }
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawn helper exited ({self._helper.wait()})")
        return ProcessRun(**json.loads(reply))

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.stdout.close()
        self._helper.wait(timeout=PROCESS_TIMEOUT_S + 10.0)

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def import_seconds(spawner: Spawner, repeats: int, directory: Path) -> list[float]:
    """Spawn-to-exit walls of ``python -c "import repro.cli"``: process
    start, the import every CLI run pays, and exit."""
    return [
        spawner.run(
            [sys.executable, "-c", "import repro.cli"],
            directory / "import.stderr",
        ).wall_s
        for _ in range(repeats)
    ]


def control_run(spawner: Spawner, directory: Path) -> ProcessRun:
    """One run of the host-speed control process (``hostspeed.py``)."""
    return spawner.run([sys.executable, str(CONTROL)], directory / "control.stderr")


def cli_argv(args: list[str]) -> list[str]:
    """An untraced ``ripple`` command, run as users run it."""
    return [sys.executable, "-m", "repro.cli", *args]


def traced_argv(args: list[str], summary: Path, trace: Path) -> list[str]:
    """The same command under ``traced_enumerate.py``."""
    return [sys.executable, str(TRACED), str(summary), str(trace), *args]


@dataclass
class Outcome:
    """What one workload run reports."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    #: Spawn-to-exit walls of the run's control processes.
    controls: list[float] = field(default_factory=list)
    #: Metric name → a qualifier printed before its value (``>=`` for a
    #: capacity no ladder step bounded from above).
    qualifiers: dict[str, str] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        """Count one attempted check; record ``message`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)
        return ok

    def add_control(self, run: ProcessRun) -> float:
        """Record one control process (``control_run``); returns its wall."""
        self.controls.append(run.wall_s)
        self.rows.append(
            {"kind": "control", "index": len(self.controls) - 1,
             "wall_s": run.wall_s, "cpu_s": run.cpu_s,
             "exit_code": run.exit_code}
        )
        return run.wall_s


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def load_summary(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def layer_metrics(summary: dict, wall_s: float, import_s: float) -> dict:
    """Per-layer metrics of one traced process.

    ``wall_s`` is the traced process's spawn-to-exit wall; the seconds
    it spent writing its own trace are taken off first. ``import_s`` is
    the untraced process-start-plus-import wall, so coverage counts
    interpreter start-up as the import layer's, not as unattributed.
    """
    layers = summary["layers"]
    counters = summary["counters"]

    def self_s(*names: str) -> float:
        return sum(layers.get(name, {}).get("self_s", 0.0) for name in names)

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    lkvcs = layers.get("seeding.lkvcs", {})
    tests = counters.get("merge.tests_attempted", 0)
    effective_s = wall_s - summary["write_s"]
    attributed_s = import_s + summary["roots_s"]
    return {
        "graph.ingest_s": self_s("graph.ingest"),
        "graph.to_graph_s": self_s("graph.to_graph"),
        "graph.kcore_s": self_s("graph.kcore"),
        "core.seeding.cliques_s": self_s("seeding.cliques"),
        "core.seeding.kbfs_s": self_s("seeding.kbfs"),
        "core.seeding.fallback_s": self_s("seeding.fallback", "seeding.lkvcs"),
        "core.seeding.dedupe_s": self_s("seeding.qkvcs"),
        "core.seeding.lkvcs_calls": calls("seeding.lkvcs"),
        "core.seeding.lkvcs_yield": ratio(
            lkvcs.get("hits", 0), lkvcs.get("calls", 0)
        ),
        "core.seeding.seeds": counters.get("seeding.seeds", 0),
        "core.expansion_s": self_s("expansion"),
        "core.expansion.calls": calls("expansion"),
        "core.expansion.absorbed": sum(
            counters.get(f"expansion.{kind}.absorbed", 0)
            for kind in ("ue", "rme", "me")
        ),
        "core.merging_s": self_s("merging", "merging.fbm"),
        "core.merging.tests": tests,
        "core.merging.flow_tests": summary["fbm_flow_tests"],
        "core.merging.accept_ratio": ratio(
            counters.get("merge.tests_accepted", 0), tests
        ),
        "core.pipeline_s": self_s("core.pipeline"),
        "core.vcce_td_s": self_s("core.vcce_td"),
        "flow.max_flow_s": self_s("flow.max_flow"),
        "flow.max_flow_calls": calls("flow.max_flow"),
        "flow.network_build_s": self_s("flow.network_build"),
        "flow.network_builds": calls("flow.network_build"),
        "flow.augmentations": counters.get("flow.dinic.augmentations", 0),
        "cli.import_s": import_s,
        "cli.output_s": self_s("cli.output"),
        "cli.unattributed_s": effective_s - attributed_s,
        "trace.coverage": ratio(attributed_s, effective_s),
    }


def median_metrics(samples: list[dict]) -> dict:
    """Metric-wise median over several traced runs."""
    return {name: median([s[name] for s in samples]) for name in samples[0]}
