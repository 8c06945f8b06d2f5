"""serve-ladder: ``ripple serve`` driven open-loop over TCP.

One run, inside the ``deadline`` the run was given:

1. set-up, repeated: ``ripple index build`` (a subprocess), a daemon
   started on the CLI defaults and waited for until it listens, and the
   first query answered — which pays the engine's lazy fingerprint
   check. The last repetition's daemon serves the rest of the run;
2. a correctness batch of sampled keys, compared with the saved index
   read back in this process; then the stand-in (``standin.py``) is
   started on a table of that index's answers;
3. with ``--trace 1``, one traced ``ripple index build``;
4. a short warm-up, then the ladder: one open-loop step per offered
   rate, each sending the repository's ``smoke`` scenario traffic
   (``repro.loadtest.workload.build_schedule``) at that rate over
   ``connections`` client connections of this one process, up to the
   first failing step at or above the reference rate. A short paired
   slice at the low rate runs before every step after the first;
5. more paired slices until the deadline. The gated timings come from
   the paired slices, spread over the whole run.

A paired slice sends one low-rate schedule to the daemon and, half a
mean gap later, the same requests to the stand-in, at once, over one
connection each. The gated latency and CPU per request are the median
over the run's slices of the daemon's value over the stand-in's, times
the stand-in's at the reference host: the host's speed and its
scheduling delays of each moment reach both servers, and the ratio
leaves them out. A control process (``hostspeed.py``) runs before every set-up,
and the set-up time is scaled by it. Layer numbers are read from
outside the daemon: its ``stats`` op at each ladder step boundary
(histogram sums and counters), its CPU clock and ``/proc`` peak RSS,
and this process's own CPU for the load generator.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import ladder
import measure
import standin
from ladder import StepResult
from measure import Outcome
from workloads import ServeWorkload

from repro.graph.adjacency import Graph
from repro.loadtest import client as loadclient
from repro.loadtest.harness import DaemonProcess, ask
from repro.loadtest.run_table import percentile
from repro.loadtest.scenario import get_scenario
from repro.loadtest.workload import build_schedule
from repro.serving.index import KvccIndex

#: One ladder time unit as a share of the run's ``seconds`` (0.9 s of
#: 30): a step lasts one unit (the reference rate's two), a paired
#: slice 0.4.
UNIT_SHARE = 0.03

STANDIN = Path(__file__).resolve().parent / "standin.py"


class DefaultDaemon(DaemonProcess):
    """``ripple serve`` with nothing but the graph, the index and an
    ephemeral port: every other setting is the CLI's default, so a
    change to a default shows up in the metrics."""

    def _command(self) -> list[str]:
        return [
            sys.executable, "-m", "repro", "serve",
            "--graph", self.graph_path,
            "--index", self.index_path,
            "--tcp", "127.0.0.1:0",
        ]


def _process_cpu_s(pid: int) -> float:
    """A server process's user+system CPU seconds, every thread
    included, at nanosecond resolution: Linux's process CPU clock of
    ``pid`` (``CPUCLOCK_SCHED`` of the whole thread group, as
    ``clock_getcpuclockid`` builds it). ``/proc/<pid>/stat`` counts in
    10 ms ticks, a few per low-rate slice."""
    return time.clock_gettime((~pid << 3) | 2)


def _daemon_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def _own_cpu_s() -> float:
    times = os.times()
    return times.user + times.system


def _window(before: dict, after: dict) -> dict:
    """Server-side means and counter deltas between two ``stats``."""

    def family(prefix: str, skip: str = "") -> tuple[int, float]:
        count, total = 0, 0.0
        for name, snapshot in after["histograms"].items():
            if not name.startswith(prefix) or (skip and name.endswith(skip)):
                continue
            earlier = before["histograms"].get(name, {"count": 0, "sum": 0.0})
            count += snapshot["count"] - earlier["count"]
            total += snapshot["sum"] - earlier["sum"]
        return count, total

    def mean_us(prefix: str, skip: str = "") -> float:
        count, total = family(prefix, skip)
        return total / count * 1e6 if count else 0.0

    def delta(name: str) -> int:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    hits = delta("serving.cache.hits")
    lookups = hits + delta("serving.cache.misses")
    return {
        "handle_us": mean_us("serving.handle_seconds.", skip=".control"),
        "queue_wait_us": mean_us("serving.queue_wait_seconds."),
        "service_us": mean_us("serving.service_seconds."),
        "resolve_index_us": mean_us("serving.resolve_seconds.index"),
        "resolve_cache_us": mean_us("serving.resolve_seconds.cache"),
        "cache_hit_ratio": hits / lookups if lookups else 0.0,
        "cache_hits": hits,
        "cache_lookups": lookups,
        "shed": delta("serving.shed"),
    }


def _scenario(
    workload: ServeWorkload, rate: float, duration_s: float, head_s: float,
    connections: int, seed: int,
):
    """The workload's scenario with only its rate, length, discarded
    head, connection count and seed replaced."""
    return get_scenario(workload.scenario).with_overrides(
        offered_rps=rate,
        duration_s=duration_s,
        warmup_s=head_s,
        workers=connections,
        repetitions=1,
        seed=seed,
    )


def _drive(address, pid: int, requests: list, scenario) -> dict:
    """Send ``requests`` open loop to the server at ``address``.

    Every request counts towards ``failed`` (shed ones too, and any the
    client never got back); ``latencies`` (sorted, failed requests as
    infinite) come from the part after the discarded head; ``cpu_s`` is
    the CPU the server process ``pid`` spent meanwhile.
    """
    cpu_before = _process_cpu_s(pid)
    started = time.perf_counter()
    samples, _ = loadclient.drive(address, requests, scenario)
    measured = [s for s in samples if not s.warmup]
    return {
        "measured": measured,
        "latencies": sorted(
            s.latency_ms if s.outcome == "ok" else math.inf for s in measured
        ),
        "failed": sum(1 for s in samples if s.outcome != "ok")
        + len(requests) - len(samples),
        "requests": len(samples),
        "wall_s": time.perf_counter() - started,
        "cpu_s": _process_cpu_s(pid) - cpu_before,
    }


def _paired_slice(
    daemon_address, daemon_pid: int, standin_address, standin_pid: int,
    workload: ServeWorkload, vertices: list, duration_s: float, seed: int,
) -> tuple[dict, dict]:
    """One low-rate schedule sent to the daemon and to the stand-in at
    once, over one connection each (two in all). The stand-in gets each
    request half a mean gap after the daemon, so the two seldom answer
    at the same instant."""
    rate = ladder.LOW_RATE
    scenario = _scenario(workload, rate, duration_s, 0.0, 1, seed)
    requests = build_schedule(scenario, vertices)
    shifted = [
        dataclasses.replace(r, offset_s=r.offset_s + 0.5 / rate) for r in requests
    ]
    sides: dict[str, dict] = {}
    thread = threading.Thread(
        target=lambda: sides.update(
            standin=_drive(standin_address, standin_pid, shifted, scenario)
        )
    )
    thread.start()
    try:
        sides["daemon"] = _drive(daemon_address, daemon_pid, requests, scenario)
    finally:
        thread.join()
    return sides["daemon"], sides["standin"]


def _start_standin(
    index: KvccIndex, vertices: list, max_k: int, out: Path
) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Write every (vertex, k) answer the traffic can ask for and start
    ``standin.py`` on them; returns the process and its address."""
    table = out / "standin.answers.json"
    with open(table, "w", encoding="utf-8") as handle:
        json.dump(
            {
                f"{v} {k}": [sorted(c) for c in index.containing(v, k)]
                for v in vertices
                for k in range(1, max_k + 1)
            },
            handle,
        )
    process = subprocess.Popen(
        [sys.executable, str(STANDIN), str(table)],
        stdout=subprocess.PIPE, text=True,
    )
    port = process.stdout.readline()
    if not port.strip():
        process.wait()
        raise RuntimeError(f"stand-in exited ({process.returncode})")
    return process, ("127.0.0.1", int(port))


def _step(
    address, pid: int, workload: ServeWorkload, vertices: list,
    rate: float, duration_s: float, head_s: float, seed: int,
) -> dict:
    """Drive one open-loop ladder step of the workload's scenario at
    ``rate`` and summarise it."""
    scenario = _scenario(
        workload, rate, duration_s, head_s, workload.connections, seed
    )
    requests = build_schedule(scenario, vertices)
    lateness: list[float] = []
    send = loadclient.request_once

    def late_aware_send(connection, request, scheduled_at):
        lateness.append(time.monotonic() - scheduled_at)
        return send(connection, request, scheduled_at)

    stats_before = ask(address, {"op": "stats"})
    own_before = _own_cpu_s()
    loadclient.request_once = late_aware_send
    try:
        driven = _drive(address, pid, requests, scenario)
    finally:
        loadclient.request_once = send
    elapsed = driven["wall_s"]
    daemon_cpu = driven["cpu_s"]
    own_cpu = _own_cpu_s() - own_before
    server = _window(stats_before, ask(address, {"op": "stats"}))

    measured, requested = driven["measured"], driven["requests"]
    failed, latencies = driven["failed"], driven["latencies"]
    on_time = sum(
        1
        for s in measured
        if s.outcome == "ok"
        and s.scheduled_s + s.latency_ms / 1000.0 <= duration_s
    )
    cpu_ms_per_req = daemon_cpu * 1000.0 / requested if requested else 0.0
    p99_ms = percentile(latencies, 0.99)
    return {
        "rate": rate,
        "result": StepResult(
            rate=rate,
            p99_ms=p99_ms,
            failed=failed,
            shed=server["shed"],
            completion_ratio=on_time / len(measured) if measured else 0.0,
        ),
        "wall_s": elapsed,
        "daemon_cpu_s": daemon_cpu,
        "requests": requested,
        "measured": len(measured),
        "failed": failed,
        "p50_ms": percentile(latencies, 0.50),
        "p99_ms": p99_ms,
        "daemon_util": daemon_cpu / elapsed,
        "gen_util": own_cpu / elapsed,
        "send_late_p99_ms": percentile(sorted(lateness), 0.99) * 1000.0,
        "outside_handle_us": cpu_ms_per_req * 1000.0 - server["handle_us"],
        **server,
    }


_STEP_LAYERS = (
    ("serving.handle_us", "handle_us"),
    ("serving.outside_handle_us", "outside_handle_us"),
    ("serving.daemon_util", "daemon_util"),
    ("serving.queue_wait_us", "queue_wait_us"),
    ("serving.service_us", "service_us"),
    ("serving.resolve_index_us", "resolve_index_us"),
    ("serving.resolve_cache_us", "resolve_cache_us"),
    ("serving.cache_hit_ratio", "cache_hit_ratio"),
    ("loadtest.gen_util", "gen_util"),
    ("loadtest.send_late_p99_ms", "send_late_p99_ms"),
)


def _check_answers(
    outcome: Outcome, address, index_path: Path, keys
) -> KvccIndex:
    """One batch of sampled keys must match the saved index exactly;
    returns the index."""
    index = KvccIndex.load(index_path)
    response = ask(
        address,
        {"op": "batch", "queries": [{"v": v, "k": k} for v, k in keys]},
        timeout_s=60.0,
    )
    results = response.get("results") or []
    for position, (v, k) in enumerate(keys):
        answered = (
            {frozenset(c) for c in results[position]["components"]}
            if position < len(results)
            else None
        )
        outcome.check(
            answered == set(index.containing(v, k)),
            f"check batch: answer for (v={v}, k={k}) differs from the index",
        )
    return index


def run(
    workload: ServeWorkload,
    graph: Graph,
    graph_path: Path,
    out: Path,
    *,
    seed: int,
    seconds: float,
    deadline: float,
    trace: bool,
    setup_repeats: int,
    spawner: measure.Spawner,
) -> Outcome:
    outcome = Outcome()
    vertices = sorted(graph.vertices())
    rng = random.Random(seed)
    max_k = get_scenario(workload.scenario).max_k
    check_keys = [
        (rng.choice(vertices), rng.randint(1, max_k))
        for _ in range(workload.check_keys)
    ]
    index_path = out / "serve.index.json"
    builds: list[float] = []
    readies: list[float] = []
    setups: list[float] = []
    daemon: DefaultDaemon | None = None
    stand_in: subprocess.Popen | None = None
    try:
        for repeat in range(setup_repeats):
            if daemon is not None:
                daemon.stop()
            outcome.add_control(measure.control_run(spawner, out))
            build = spawner.run(
                measure.cli_argv(
                    ["index", "build", str(graph_path), "-o", str(index_path)]
                ),
                out / "build.stderr",
            )
            outcome.check(
                build.exit_code == 0,
                f"index build {repeat}: exit {build.exit_code}",
            )
            daemon = DefaultDaemon(graph_path, index_path=index_path)
            started = time.perf_counter()
            address = daemon.start(timeout_s=60.0)
            ready_s = time.perf_counter() - started
            v, k = check_keys[0]
            started = time.perf_counter()
            first = ask(address, {"op": "query", "v": v, "k": k})
            first_s = time.perf_counter() - started
            outcome.check(bool(first.get("ok")), f"set-up {repeat}: first query failed")
            builds.append(build.wall_s)
            readies.append(ready_s)
            setups.append(build.wall_s + ready_s + first_s)
            outcome.rows.append(
                {"kind": "setup", "index": repeat, "wall_s": setups[-1],
                 "cpu_s": build.cpu_s, "exit_code": build.exit_code}
            )

        index = _check_answers(outcome, address, index_path, check_keys)
        stand_in, standin_address = _start_standin(index, vertices, max_k, out)
        if trace:
            outcome.per_layer.update(
                _traced_build(outcome, spawner, graph_path, out, builds,
                              setup_repeats)
            )

        unit = seconds * UNIT_SHARE
        head = 0.25 * unit
        steps: dict[float, dict] = {}
        attempts: list[dict] = []
        # The gated timings come from the low rate only: near 6% daemon
        # load there is no queue to amplify a slow host. The slices
        # between and after the ladder's steps spread them over the
        # whole run; the first one warms both servers up and is not
        # timed.
        pairs: list[tuple[dict, dict]] = []

        def paired_slice(length: float) -> None:
            pair = _paired_slice(
                address, daemon.pid, standin_address, stand_in.pid, workload,
                vertices, length * unit, seed=seed * 1_000_003 + len(pairs),
            )
            for kind, side in zip(("slice", "standin"), pair):
                outcome.rows.append(
                    {"kind": kind, "index": len(pairs),
                     "offered_rps": ladder.LOW_RATE, "wall_s": side["wall_s"],
                     "cpu_s": side["cpu_s"], "requests": side["requests"],
                     "failed": side["failed"],
                     "p50_ms": percentile(side["latencies"], 0.50),
                     "p99_ms": percentile(side["latencies"], 0.99)}
                )
            # Every daemon request at the low rate is an attempt; the
            # stand-in is the benchmark's own, so each slice of it is
            # one check.
            outcome.attempted += pair[0]["requests"]
            outcome.failed += pair[0]["failed"]
            outcome.check(
                pair[1]["failed"] == 0,
                f"stand-in slice {len(pairs)}: {pair[1]['failed']} requests failed",
            )
            pairs.append(pair)

        def attempt(rate: float, length: float) -> dict:
            step = _step(address, daemon.pid, workload, vertices, rate,
                         length * unit, head,
                         seed=seed * 2_000_003 + len(attempts))
            attempts.append(step)
            outcome.rows.append(
                {"kind": "step", "index": len(attempts),
                 "offered_rps": rate, "wall_s": step["wall_s"],
                 "cpu_s": step["daemon_cpu_s"],
                 "requests": step["measured"], "failed": step["failed"],
                 "p50_ms": step["p50_ms"], "p99_ms": step["p99_ms"]}
            )
            return step

        paired_slice(0.5)
        for rate in ladder.RATES:
            if rate != ladder.LOW_RATE:
                paired_slice(0.4)
            length = 2.0 if rate == ladder.REFERENCE_RATE else 1.0
            step = steps[rate] = attempt(rate, length)
            failed = ladder.failure_reason(step["result"]) is not None
            if failed and rate >= ladder.REFERENCE_RATE:
                break
        while time.perf_counter() < deadline:
            paired_slice(0.4)
        peak_rss_mb = _daemon_peak_rss_mb(daemon.pid)
    finally:
        if daemon is not None:
            daemon.stop()
        if stand_in is not None:
            stand_in.terminate()
            stand_in.wait()
            stand_in.stdout.close()

    results = [s["result"] for s in steps.values()]
    verdict = ladder.capacity(results)
    lo, _ = ladder.bracket(results)
    knee_rate = lo.rate if lo is not None else 0.0
    # Request errors count at every step up to and including the last
    # passing one; the steps past the knee are expected to fail. Latency
    # is no check: with a few hundred requests per step, one host stall
    # of 25 ms fails a step's p99, and it has failed even the lowest ones.
    for step in attempts:
        if step["rate"] <= max(knee_rate, ladder.LOW_RATE):
            outcome.attempted += step["requests"]
            outcome.failed += step["failed"]
    passing = [
        s for s in steps.values()
        if ladder.failure_reason(s["result"]) is None and s["rate"] <= knee_rate
    ]
    # Pooled over every step: each sends the same traffic, and one short
    # step holds too few lookups for its own ratio to mean much.
    lookups = sum(s["cache_lookups"] for s in attempts)
    hit_ratio = sum(s["cache_hits"] for s in attempts) / lookups if lookups else 0.0
    outcome.check(
        0.2 < hit_ratio < 0.9,
        f"cache hit ratio {hit_ratio:.3f} over the ladder outside (0.2, 0.9)",
    )
    for step in passing:
        rate = round(step["rate"])
        outcome.check(
            step["gen_util"] < 0.6,
            f"r{rate}: load generator used {step['gen_util']:.2f} of a core",
        )

    # Each timed slice is read against the stand-in's side of it, as
    # each enumeration process is read against its control: the same
    # requests at the same moments of the host. A slice the Poisson
    # draw left empty has nothing to compare.
    timed = [(d, s) for d, s in pairs[1:] if d["requests"] and s["requests"]]
    daemons, standins = [d for d, _ in timed], [s for _, s in timed]

    def latencies(sides: list[dict]) -> list[float]:
        return sorted(x for s in sides for x in s["latencies"])

    def p50_ms(sides: list[dict]) -> float:
        return percentile(latencies(sides), 0.50)

    def cpu_ms(sides: list[dict]) -> float:
        return 1000.0 * sum(s["cpu_s"] for s in sides) / sum(
            s["requests"] for s in sides
        )

    low = steps[ladder.LOW_RATE]
    reference = steps[ladder.REFERENCE_RATE]
    knee = steps.get(knee_rate, low)
    if verdict.censored:
        outcome.qualifiers["loadtest.capacity_rps"] = ">="
    outcome.end_to_end = {
        "setup_s": measure.median(setups) * hostspeed.scale(outcome.controls),
        "latency_ms": hostspeed.paired(
            [p50_ms([d]) for d in daemons], [p50_ms([s]) for s in standins],
            standin.REFERENCE_P50_MS,
        ),
        "cpu_ms_per_op": hostspeed.paired(
            [cpu_ms([d]) for d in daemons], [cpu_ms([s]) for s in standins],
            standin.REFERENCE_CPU_MS,
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    low_tag, ref_tag = f"r{ladder.LOW_RATE}", f"r{ladder.REFERENCE_RATE}"
    layers = {
        "host.control_ms": measure.median(outcome.controls) * 1000.0,
        # The raw values, pooled over the timed slices.
        "host.standin_p50_ms": p50_ms(standins),
        "host.standin_cpu_ms": cpu_ms(standins),
        "serving.index.build_s": measure.median(builds),
        "serving.daemon.ready_s": measure.median(readies),
        "serving.shed": sum(step["shed"] for step in steps.values()),
        f"serving.cpu_ms_per_req.{low_tag}": cpu_ms(daemons),
        f"loadtest.lat_p50_ms.{low_tag}": p50_ms(daemons),
        f"loadtest.lat_p99_ms.{low_tag}": percentile(latencies(daemons), 0.99),
        f"loadtest.lat_p50_ms.{ref_tag}": reference["p50_ms"],
        f"loadtest.lat_p99_ms.{ref_tag}": reference["p99_ms"],
        "loadtest.capacity_rps": verdict.rps,
        "loadtest.knee_rps": knee_rate,
    }
    for tag, step in ((low_tag, low), (ref_tag, reference), ("knee", knee)):
        for metric, key in _STEP_LAYERS:
            layers[f"{metric}.{tag}"] = step[key]
    outcome.per_layer.update(layers)
    return outcome


def _traced_build(
    outcome: Outcome, spawner: measure.Spawner, graph_path: Path, out: Path,
    builds: list[float], repeats: int,
) -> dict:
    """Per-layer split of ``ripple index build`` (VCCE-TD at every
    level), traced the same way as the enumeration workloads."""
    import_s = measure.median(measure.import_seconds(spawner, repeats, out))
    summary_path = out / "traced-build.summary.json"
    process = spawner.run(
        measure.traced_argv(
            ["index", "build", str(graph_path), "-o",
             str(out / "traced-build.index.json")],
            summary_path,
            out / "traced-build.trace.json",
        ),
        out / "traced-build.stderr",
    )
    if not outcome.check(
        process.exit_code == 0,
        f"traced index build: exit {process.exit_code}",
    ):
        return {}
    summary = measure.load_summary(summary_path)
    layers = measure.layer_metrics(summary, process.wall_s, import_s)
    layers["trace.overhead"] = (
        (process.wall_s - summary["write_s"]) / measure.median(builds) - 1.0
    )
    return layers
