"""The capacity harness: spawn the daemon, drive it, write the table.

One :func:`run_scenario` call is one run: per repetition it

1. restores the served graph file (storm mutations must not leak
   across repetitions), spawns a fresh ``ripple serve --tcp`` daemon
   subprocess, and waits for its "listening on" line to learn the
   ephemeral port;
2. snapshots the daemon's ``serving.*`` counters and histograms
   (``stats`` op), starts the ``/proc`` resource monitor, and fires
   the scenario's precomputed open-loop schedule at it — taking one
   more ``stats`` snapshot mid-run at the warmup boundary so the
   server-side view of the *measurement window* can be isolated;
3. snapshots stats again, folds samples + counter deltas + CPU/RSS +
   the server-observed handle-time p95 (``serving.handle_seconds``
   histogram delta over the measurement window) into one
   :class:`~repro.loadtest.run_table.RunRow`, and appends the raw
   samples to the run's JSONL;
4. tears the daemon down — cooperatively on a clean run, immediately
   when the harness :class:`~repro.resilience.Deadline` expires.

Repetition r reseeds the scenario with ``seed + r`` so repetitions are
independent draws of the same traffic shape, yet every rerun of the
harness reproduces them exactly.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.graph.io import read_edge_list
from repro.obs.histogram import Histogram, subtract_snapshots
from repro.loadtest import client as loadclient
from repro.loadtest.monitor import ResourceMonitor
from repro.loadtest.run_table import RunRow, Sample, aggregate
from repro.loadtest.scenario import Scenario
from repro.loadtest.workload import build_schedule
from repro.resilience import Deadline

__all__ = ["DaemonProcess", "LoadTestError", "RunOutcome", "run_scenario"]

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")
_METRICS = re.compile(r"metrics on http://([0-9.]+):(\d+)")


class LoadTestError(ReproError):
    """The harness could not complete a run (daemon died, no port, …)."""


class DaemonProcess:
    """A managed ``ripple serve --tcp`` subprocess.

    The daemon binds an ephemeral port (``--tcp 127.0.0.1:0``) and
    announces it on stderr; :meth:`start` parses that line. stderr is
    drained continuously afterwards (a full pipe would wedge the
    daemon) and kept for diagnostics.
    """

    def __init__(
        self,
        graph_path: str | os.PathLike,
        *,
        index_path: str | os.PathLike | None = None,
        workers: int = 4,
        request_timeout: float | None = None,
        cache_size: int = 1024,
        max_queue: int | None = None,
        access_log: str | os.PathLike | None = None,
        metrics_port: int | None = None,
        extra_env: dict[str, str] | None = None,
    ) -> None:
        self.graph_path = os.fspath(graph_path)
        self.index_path = (
            os.fspath(index_path) if index_path is not None else None
        )
        self.workers = workers
        self.request_timeout = request_timeout
        self.cache_size = cache_size
        self.max_queue = max_queue
        self.access_log = (
            os.fspath(access_log) if access_log is not None else None
        )
        self.metrics_port = metrics_port
        #: Extra environment for the daemon subprocess — e.g. a
        #: ``REPRO_FAULT`` plan arming serving-stage chaos in the
        #: daemon only, not the harness (the subprocess otherwise
        #: inherits the caller's whole environment).
        self.extra_env = dict(extra_env) if extra_env else {}
        self.address: tuple[str, int] | None = None
        #: The daemon's ``/metrics`` listener address, parsed from its
        #: announce line (None until announced / without
        #: ``metrics_port``).
        self.metrics_address: tuple[str, int] | None = None
        self.stderr_lines: list[str] = []
        self._process: subprocess.Popen | None = None
        self._drain: threading.Thread | None = None
        self._ready = threading.Event()

    @property
    def pid(self) -> int | None:
        return self._process.pid if self._process is not None else None

    def poll(self) -> int | None:
        """The daemon's exit code, or None while it is still alive."""
        return self._process.poll() if self._process is not None else None

    def _command(self) -> list[str]:
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--graph",
            self.graph_path,
            "--tcp",
            "127.0.0.1:0",
            "--workers",
            str(self.workers),
            "--cache-size",
            str(self.cache_size),
        ]
        if self.index_path is not None:
            command += ["--index", self.index_path]
        if self.request_timeout is not None:
            command += ["--request-timeout", str(self.request_timeout)]
        if self.max_queue is not None:
            command += ["--max-queue", str(self.max_queue)]
        if self.access_log is not None:
            command += ["--access-log", self.access_log]
        if self.metrics_port is not None:
            command += ["--metrics-port", str(self.metrics_port)]
        return command

    def start(self, timeout_s: float = 30.0) -> tuple[str, int]:
        """Spawn and block until the daemon announces its port."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src if not existing else src + os.pathsep + existing
        )
        env.update(self.extra_env)
        self._process = subprocess.Popen(
            self._command(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        # One thread drains stderr for the daemon's whole life (a full
        # pipe would wedge it) and flags the announce line when it
        # scrolls past — so a daemon that dies or hangs before binding
        # can't block start() beyond the timeout.
        self._drain = threading.Thread(
            target=self._drain_stderr, name="loadtest-daemon-stderr",
            daemon=True,
        )
        self._drain.start()
        if not self._ready.wait(timeout=timeout_s) or self.address is None:
            self.stop()
            raise LoadTestError(
                "daemon never announced a listening address; stderr: "
                + " | ".join(self.stderr_lines[-5:])
            )
        return self.address

    def _drain_stderr(self) -> None:
        assert self._process is not None and self._process.stderr is not None
        for line in self._process.stderr:
            self.stderr_lines.append(line.rstrip("\n"))
            if self.metrics_address is None:
                match = _METRICS.search(line)
                if match:
                    self.metrics_address = (
                        match.group(1),
                        int(match.group(2)),
                    )
            if self.address is None:
                match = _LISTENING.search(line)
                if match:
                    self.address = (match.group(1), int(match.group(2)))
                    self._ready.set()
        self._ready.set()  # EOF: unblock start() even without a match

    def stop(self, grace_s: float = 5.0) -> None:
        """Terminate (SIGTERM, then SIGKILL past the grace period)."""
        if self._process is None:
            return
        if self._process.poll() is None:
            self._process.terminate()
            try:
                self._process.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait(timeout=grace_s)
        if self._drain is not None:
            self._drain.join(timeout=2)
        if self._process.stderr is not None:
            self._process.stderr.close()

    def __enter__(self) -> "DaemonProcess":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def ask(address: tuple[str, int], payload: dict, timeout_s: float = 10.0):
    """One request, one response, over a throwaway connection."""
    with socket.create_connection(address, timeout=timeout_s) as sock:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        stream.write(json.dumps(payload, separators=(",", ":")) + "\n")
        stream.flush()
        return json.loads(stream.readline())


def _serving_stats(address: tuple[str, int]) -> dict:
    """One full ``stats`` response (counters + histogram snapshots)."""
    return ask(address, {"op": "stats"})


def _counter_delta(before: dict, after: dict) -> dict:
    return {
        name: after.get(name, 0) - before.get(name, 0)
        for name in set(before) | set(after)
    }


#: Histogram family backing the ``server_p95_ms`` cross-check column.
_HANDLE_FAMILY = "serving.handle_seconds"


def _merged_handle(stats: dict) -> Histogram:
    """Merge the per-class handle-time histograms of one stats snapshot.

    The ``control`` class (stats/reload/shutdown ops — including the
    harness's own snapshot requests) is excluded: the client-side p95
    this column cross-checks only ever measures scheduled workload
    requests.
    """
    merged = Histogram()
    prefix = _HANDLE_FAMILY + "."
    for name, snapshot in (stats.get("histograms") or {}).items():
        if name == _HANDLE_FAMILY or (
            name.startswith(prefix) and name != prefix + "control"
        ):
            merged.merge(snapshot)
    return merged


def _server_window(window_start: dict, after: dict) -> tuple[float, int]:
    """``(server_p95_ms, server_shed)`` between two stats snapshots."""
    handle = subtract_snapshots(
        _merged_handle(after).to_snapshot(),
        _merged_handle(window_start).to_snapshot(),
    )
    p95_ms = (
        handle.quantile(0.95) * 1000.0
        if not handle.is_empty()
        else float("nan")
    )
    shed = _counter_delta(
        window_start.get("counters", {}) or {},
        after.get("counters", {}) or {},
    ).get("serving.shed", 0)
    return p95_ms, max(0, shed)


@dataclass
class RunOutcome:
    """Everything one scenario run produced."""

    rows: list[RunRow] = field(default_factory=list)
    samples: dict[int, list[Sample]] = field(default_factory=dict)
    #: ``completed`` or ``deadline`` (harness budget ran out mid-run).
    status: str = "completed"


def run_scenario(
    scenario: Scenario,
    graph_path: str | os.PathLike,
    *,
    topology: str | None = None,
    index_path: str | os.PathLike | None = None,
    daemon_workers: int = 4,
    request_timeout: float | None = None,
    calibration_s: float | None = None,
    deadline: Deadline | None = None,
    address: tuple[str, int] | None = None,
    monitor_pid: int | None = None,
    daemon_max_queue: int | None = None,
    daemon_access_log: str | os.PathLike | None = None,
    daemon_metrics_port: int | None = None,
    daemon_env: dict[str, str] | None = None,
) -> RunOutcome:
    """Run every repetition of one scenario; returns rows + raw samples.

    By default each repetition gets a **fresh daemon subprocess** (no
    cross-repetition cache warmth, no leaked storm mutations — the
    graph file is restored between repetitions). Passing ``address``
    instead drives an already-running daemon (tests, remote targets);
    pair it with ``monitor_pid`` to keep CPU/RSS columns (use
    ``os.getpid()`` for an in-process ``serve_tcp``).

    ``daemon_max_queue`` forwards to the spawned daemon's admission
    controller; ``daemon_access_log`` and
    ``daemon_metrics_port`` forward the telemetry flags (the access
    log is opened in append mode, so every repetition's fresh daemon
    extends the same JSONL; both are ignored when driving an external
    ``address``); ``daemon_env`` adds environment for
    the daemon subprocess only (e.g. a ``REPRO_FAULT`` chaos plan —
    each repetition's fresh daemon re-arms the plan from scratch). A
    spawned daemon that *dies* mid-run raises :class:`LoadTestError`
    with its stderr tail: a crashed daemon is never reported as an
    ordinary slow run.
    """
    graph_path = os.fspath(graph_path)
    if calibration_s is None:
        from repro.bench.perfgate import calibrate

        calibration_s = calibrate()
    topology = topology or Path(graph_path).stem
    vertices = sorted(
        read_edge_list(graph_path, allow_self_loops=True).vertices(),
        key=lambda v: (str(type(v)), str(v)),
    )
    pristine = Path(graph_path).read_bytes()
    outcome = RunOutcome()
    for repetition in range(1, scenario.repetitions + 1):
        if deadline is not None and deadline.expired():
            outcome.status = "deadline"
            break
        Path(graph_path).write_bytes(pristine)  # undo storm mutations
        reseeded = scenario.with_overrides(
            seed=scenario.seed + repetition - 1
        )
        schedule = build_schedule(reseeded, vertices)
        daemon: DaemonProcess | None = None
        try:
            if address is None:
                daemon = DaemonProcess(
                    graph_path,
                    index_path=index_path,
                    workers=daemon_workers,
                    request_timeout=request_timeout,
                    max_queue=daemon_max_queue,
                    access_log=daemon_access_log,
                    metrics_port=daemon_metrics_port,
                    extra_env=daemon_env,
                )
                target = daemon.start()
                pid = daemon.pid
            else:
                target = address
                pid = monitor_pid
            stats_before = _serving_stats(target)
            monitor = (
                ResourceMonitor(pid).start() if pid is not None else None
            )
            # One extra stats snapshot fires mid-run at the warmup
            # boundary so server-side aggregates can be windowed to
            # the measurement interval, matching what the client-side
            # percentiles measure. Best-effort: a snapshot lost to an
            # injected fault or a saturated daemon falls back to the
            # pre-run snapshot (the window then includes warmup).
            window_snapshot: dict = {}

            def _snap_window() -> None:
                try:
                    window_snapshot.update(_serving_stats(target))
                except (OSError, ValueError):
                    pass

            window_timer = threading.Timer(
                reseeded.warmup_s, _snap_window
            )
            window_timer.daemon = True
            window_timer.start()
            try:
                samples, start = loadclient.drive(
                    target,
                    schedule,
                    reseeded,
                    graph_path=graph_path,
                    deadline=deadline,
                )
            finally:
                window_timer.cancel()
                window_timer.join(timeout=5.0)
            if monitor is not None:
                monitor.stop()
            if daemon is not None and daemon.poll() is not None:
                raise LoadTestError(
                    f"daemon died mid-run (exit code {daemon.poll()}) "
                    f"during {scenario.name!r} repetition {repetition}; "
                    "stderr: " + " | ".join(daemon.stderr_lines[-5:])
                )
            stats_after = _serving_stats(target)
            server_p95_ms, server_shed = _server_window(
                window_snapshot or stats_before, stats_after
            )
            cpu, rss = (
                monitor.summary(
                    start + reseeded.warmup_s,
                    start + reseeded.duration_s,
                )
                if monitor is not None
                else (float("nan"), float("nan"))
            )
            outcome.rows.append(
                aggregate(
                    scenario=scenario.name,
                    repetition=repetition,
                    topology=topology,
                    workers=reseeded.workers,
                    offered_rps=reseeded.offered_rps,
                    samples=samples,
                    measure_window_s=reseeded.measure_window_s,
                    cpu_usage_avg=cpu,
                    rss_peak_mb=rss,
                    calibration_s=calibration_s,
                    counters=_counter_delta(
                        stats_before.get("counters", {}) or {},
                        stats_after.get("counters", {}) or {},
                    ),
                    server_p95_ms=server_p95_ms,
                    server_shed=server_shed,
                )
            )
            outcome.samples[repetition] = samples
        finally:
            if daemon is not None:
                daemon.stop()
            Path(graph_path).write_bytes(pristine)
        if deadline is not None and deadline.expired():
            outcome.status = "deadline"
            break
    return outcome
