"""Vertex-connectivity answers do not move with ``PYTHONHASHSEED``.

`VertexSplitNetwork` searches augmenting paths in set iteration order,
which for str labels changes with the hash seed. The flow value and the
minimum cut closest to the source are unique, so they must not change;
`vertex_disjoint_paths` runs its flow on an int relabelling in
``label_key`` order, so the paths it returns must not change either.
This is what keeps saved results and stats documents comparable
between runs.
"""

import json
import os
import pathlib
import subprocess
import sys

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

_SNIPPET = """
import json
from repro.flow import VertexSplitNetwork, vertex_disjoint_paths
from repro.graph.generators import community_graph

graph = community_graph([9, 9], k=3, seed=7)
relabeled = type(graph).from_edges(  # str labels hash-randomise
    (str(u), str(v)) for u, v in graph.edges()
)
members = relabeled.vertex_set()
net = VertexSplitNetwork(
    relabeled, members, virtual_sources={"s": [str(v) for v in range(3)]}
)
pairs = [
    (u, v)
    for u in sorted(members)
    for v in sorted(members)
    if u < v and not relabeled.has_edge(u, v)
]
print(json.dumps({
    "flows": [net.max_flow(u, v) for u, v in pairs],
    "cutoff_flows": [net.max_flow(u, v, cutoff=2) for u, v in pairs],
    "cut": sorted(net.vertex_cut_if_below("8", "s", net.size)),
    "paths": vertex_disjoint_paths(relabeled, "0", "4"),
    "adjacent_paths": vertex_disjoint_paths(relabeled, "0", "8"),
}))
"""


def _run(hash_seed: str) -> dict:
    pythonpath = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
    )
    env = {
        "PYTHONHASHSEED": hash_seed,
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": pythonpath,
    }
    # Keep the caller's bytecode setting: a checkout run without
    # bytecode must not gain .pyc files from these subprocesses.
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    proc = subprocess.run(
        [sys.executable, "-c", _SNIPPET],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_flow_answers_stable_across_hash_seeds():
    first = _run("0")
    second = _run("424242")
    assert first["cut"]
    assert len(first["paths"]) > 1
    assert first == second
