"""The control process: the yardstick the gated timings are read against.

The reference host is a shared 2-vCPU virtual machine whose speed moves
with its neighbours in two ways. Single processes are hit at random:
identical one-second ``ripple enumerate`` runs took anywhere from 1.0 to
1.8 s within one minute. And the whole machine slows for minutes at a
time: the same runs, and everything else, took 1.4-1.6 times as long
for a quarter of an hour. CPU time moved with wall time each time, so
this is the machine's speed, not scheduling, and no statistic of one
run's own samples can see a slow quarter of an hour.

So the benchmark also times this file, run as a process of its own
just before every measured ``ripple enumerate`` process and every
serving set-up: a fixed pure-Python job (a
random graph held as sets, then a k-core peel) of the kind of work
``ripple enumerate`` does. It is the benchmark's code, so no change to
the program moves it. A gated enumeration timing is ``REFERENCE_S``
times the median, over the run's processes, of each process's wall over
the wall of the control just before it: the time it would have taken
with the host at its reference speed, read against the host's speed of
that moment. Over six seeds in an hour when a run's 10th-percentile
control wall ranged from 0.24 to 0.46 s, the interquartile spread of
the raw 10th percentile wall was 0.32-0.46 of its median on the three
enumeration workloads, that of the 10th percentile scaled by the run's
controls 0.02-0.11, and that of the paired median 0.04-0.08.

The serving daemon's costs do not follow the control. In the same
hour, over eight seeds, the interquartile spread of its CPU per
request was 0.02 while the control's was 0.33, and scaling by the
control widened the spread of both serving timings (CPU per request
from 0.02 to 0.26, latency from 0.08 to 0.21). Serving timings are
therefore read against a control of their own kind, run at the same
moments (``standin.py``); only the serving set-up, an index build of
pure-Python flow code, is scaled by this one.

Run as ``python hostspeed.py``; prints nothing.
"""

from __future__ import annotations

import random
import statistics

#: The control's spawn-to-exit wall on the reference host (2 vCPU,
#: CPython 3.11). A scaled timing is in reference-host seconds.
REFERENCE_S = 0.34


def paired(
    values: list[float], controls: list[float], reference: float = REFERENCE_S
) -> float:
    """``reference`` times the median of ``value / control`` over the
    pairs: each measurement read against the control run with it (by
    default, a process against the control process run just before
    it, ``reference`` being the control's wall on the reference host)."""
    return reference * statistics.median(
        value / control for value, control in zip(values, controls, strict=True)
    )


def scale(control_walls: list[float]) -> float:
    """The factor that turns a median timing of this run into a
    reference-host timing: above 1 when the host ran fast, below 1 when
    it ran slow."""
    return REFERENCE_S / statistics.median(control_walls)


def control_job() -> int:
    """Build a fixed random graph as a list of sets and peel its 8-core;
    returns the core's size."""
    vertices, edges, k = 30_000, 150_000, 8
    rng = random.Random(11)
    adjacency: list[set[int]] = [set() for _ in range(vertices)]
    for _ in range(edges):
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    degree = [len(neighbours) for neighbours in adjacency]
    stack = [v for v in range(vertices) if degree[v] < k]
    removed = set(stack)
    while stack:
        for u in adjacency[stack.pop()]:
            if u not in removed:
                degree[u] -= 1
                if degree[u] < k:
                    removed.add(u)
                    stack.append(u)
    return vertices - len(removed)


if __name__ == "__main__":
    control_job()
