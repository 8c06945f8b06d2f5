"""Cross-process determinism of the vertex-split network layout.

`VertexSplitNetwork` indexes members in a sorted, hash-independent
order and adds arcs in index order, so the Dinic arc arrays — and with
them every tie-break a max-flow run makes — are identical across
processes regardless of ``PYTHONHASHSEED``. This is what makes saved
stats documents and traces comparable between runs: the arc layout is
part of the observable behaviour (e.g. which minimum cut is reported).
"""

import json
import os
import pathlib
import subprocess
import sys

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

_SNIPPET = """
import json
from repro.flow.network import VertexSplitNetwork
from repro.graph.generators import community_graph

graph = community_graph([9, 9], k=3, seed=7)
members = {str(v) for v in graph.vertices()}  # str labels hash-randomise
relabeled = type(graph).from_edges(
    (str(u), str(v)) for u, v in graph.edges()
)
net = VertexSplitNetwork(
    relabeled, members, virtual_sources={"s": [str(v) for v in range(3)]}
)
dinic = net._dinic
print(json.dumps({
    "cap": dinic.cap,
    "to": dinic.to,
    "head": dinic.head,
    "cut": sorted(map(str, net.min_vertex_cut("8", "s"))),
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


def test_network_layout_stable_across_hash_seeds():
    first = _run("0")
    second = _run("424242")
    assert first == second
