"""``ripple top``: a polling console view of a live serve daemon.

Connects to a running ``ripple serve --tcp`` daemon, polls the
``stats`` protocol op at a fixed interval, and renders the *rate*
view an operator actually wants — requests/s, shed/s, error/s, live
queue depths, and the p50/p95/p99 handle-time tail of the *last
interval* (computed by subtracting successive histogram snapshots,
which the mergeable fixed-layout histograms make exact).

Pure functions (:func:`poll_stats`, :func:`delta_frame`,
:func:`render_frame`) do the work so tests can drive them without a
terminal; :func:`run_top` is the CLI loop.
"""

from __future__ import annotations

import json
import socket
import sys
import time

from repro.errors import ParseError
from repro.obs.histogram import Histogram, subtract_snapshots

__all__ = ["delta_frame", "poll_stats", "render_frame", "run_top"]

#: Histogram family whose delta-window tail the frame displays.
_HANDLE_FAMILY = "serving.handle_seconds"


def poll_stats(address: tuple[str, int], timeout: float = 5.0) -> dict:
    """One ``stats`` round trip to the daemon at ``address``."""
    with socket.create_connection(address, timeout=timeout) as conn:
        conn.sendall(b'{"op":"stats"}\n')
        reader = conn.makefile("r", encoding="utf-8")
        line = reader.readline()
    if not line:
        raise ParseError(f"no stats response from {address}")
    response = json.loads(line)
    if not response.get("ok"):
        raise ParseError(
            f"stats failed: {response.get('error', 'unknown error')}"
        )
    return response


def _merged_family(histograms: dict, family: str) -> Histogram:
    merged = Histogram()
    prefix = family + "."
    for name, snapshot in histograms.items():
        if name == family or name.startswith(prefix):
            merged.merge(snapshot)
    return merged


def _family_delta(
    current: dict, previous: dict, family: str
) -> Histogram:
    merged_now = _merged_family(current, family)
    merged_before = _merged_family(previous, family)
    return subtract_snapshots(
        merged_now.to_snapshot(), merged_before.to_snapshot()
    )


def delta_frame(
    previous: dict | None, current: dict, interval_s: float
) -> dict:
    """The displayable rates/tails between two ``stats`` responses.

    ``previous=None`` (the first poll) yields lifetime-so-far numbers
    over the daemon's uptime instead of an interval window.
    """
    counters_now = current.get("counters", {})
    counters_before = (
        previous.get("counters", {}) if previous is not None else {}
    )
    window_s = max(interval_s, 1e-9)
    if previous is None:
        window_s = max(current.get("uptime_s", interval_s), 1e-9)

    def rate(name: str) -> float:
        delta = counters_now.get(name, 0) - counters_before.get(name, 0)
        return max(0, delta) / window_s

    histograms_now = current.get("histograms", {})
    histograms_before = (
        previous.get("histograms", {}) if previous is not None else {}
    )
    handle = _family_delta(histograms_now, histograms_before, _HANDLE_FAMILY)
    frame = {
        "uptime_s": current.get("uptime_s"),
        "generation": current.get("generation"),
        "window_s": round(window_s, 3),
        "rps": round(rate("serving.requests"), 1),
        "shed_per_s": round(rate("serving.shed"), 1),
        "errors_per_s": round(rate("serving.errors"), 1),
        "queue_depth": dict(
            current.get("gauges", {}).get("queue_depth", {})
        ),
        "in_service": dict(
            current.get("gauges", {}).get("in_service", {})
        ),
        "handled": handle.count,
    }
    if not handle.is_empty():
        frame["handle_p50_ms"] = round(handle.quantile(0.50) * 1000.0, 3)
        frame["handle_p95_ms"] = round(handle.quantile(0.95) * 1000.0, 3)
        frame["handle_p99_ms"] = round(handle.quantile(0.99) * 1000.0, 3)
    return frame


def render_frame(frame: dict, address: tuple[str, int]) -> str:
    """One console frame (a few lines; no terminal control codes)."""
    host, port = address
    depth = sum(frame["queue_depth"].values())
    busy = sum(frame["in_service"].values())
    lines = [
        f"ripple top — {host}:{port}"
        f"  up {frame.get('uptime_s', '?')}s"
        f"  gen {frame.get('generation', '?')}"
        f"  window {frame['window_s']}s",
        f"  rps {frame['rps']:>8.1f}   shed/s {frame['shed_per_s']:>6.1f}"
        f"   err/s {frame['errors_per_s']:>6.1f}"
        f"   queued {depth}   busy {busy}",
    ]
    if "handle_p50_ms" in frame:
        lines.append(
            f"  handle ms  p50 {frame['handle_p50_ms']:>8.3f}"
            f"   p95 {frame['handle_p95_ms']:>8.3f}"
            f"   p99 {frame['handle_p99_ms']:>8.3f}"
            f"   ({frame['handled']} reqs)"
        )
    else:
        lines.append("  handle ms  (no requests in window)")
    per_class = ", ".join(
        f"{klass}={count}"
        for klass, count in sorted(frame["queue_depth"].items())
        if count
    )
    lines.append(f"  queue depth by class: {per_class or '(all idle)'}")
    return "\n".join(lines)


def run_top(
    address: tuple[str, int],
    *,
    interval: float = 2.0,
    count: int | None = None,
    out=None,
) -> int:
    """Poll ``address`` every ``interval`` seconds and print frames.

    ``count`` bounds the number of frames (None = until interrupted);
    returns 0, or 1 when the daemon is unreachable on the first poll.
    """
    out = out if out is not None else sys.stdout
    previous = None
    frames = 0
    try:
        while count is None or frames < count:
            try:
                current = poll_stats(address)
            except (OSError, ValueError, ParseError) as exc:
                print(f"ripple top: {exc}", file=out)
                return 1 if previous is None else 0
            frame = delta_frame(previous, current, interval)
            print(render_frame(frame, address), file=out, flush=True)
            previous = current
            frames += 1
            if count is not None and frames >= count:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0
