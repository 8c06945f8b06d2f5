"""Cross-process determinism: results survive hash randomisation.

The algorithms iterate Python sets in several places, and set order
depends on PYTHONHASHSEED for str labels (int hashes ignore it). The
benchmark claims ("benches are deterministic") require that the
*outputs* — components and accuracy numbers — do not. This test runs
each enumerator on str-relabelled datasets in fresh subprocesses under
two hash seeds and compares the JSON results.
"""

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

_DATASETS = ("sc-shipsec", "ca-dblp")

_ALGORITHMS = ("ripple", "ripple_me", "ripple_no_qkvcs", "vcce_td", "vcce_bu")

_SNIPPET = """
import json
import sys

from repro import core
from repro.datasets import DATASETS
from repro.graph import Graph

datasets, algorithms = sys.argv[1].split(","), sys.argv[2].split(",")
out = {}
for name in datasets:
    dataset = DATASETS[name]
    graph = Graph.from_edges(
        (f"v{u}", f"v{v}") for u, v in dataset.graph().edges()
    )
    for label in algorithms:
        result = getattr(core, label)(graph, dataset.default_k)
        out[f"{name}/{label}"] = sorted(sorted(c) for c in result.components)
print(json.dumps(out))
"""


@functools.lru_cache(maxsize=None)
def _run(hash_seed: str) -> dict:
    # Minimal environment so only the hash seed varies between runs —
    # but PYTHONPATH must survive, or the subprocess cannot import
    # repro when the package is run from a source checkout.
    pythonpath = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _SNIPPET,
            ",".join(_DATASETS),
            ",".join(_ALGORITHMS),
        ],
        capture_output=True,
        text=True,
        env={
            "PYTHONHASHSEED": hash_seed,
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": pythonpath,
        },
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# (dataset, algorithm) pairs whose output is known to move with the
# hash seed. Each is checked on its own by a strict xfail test below,
# so fixing it makes that test fail until the entry is dropped here.
_KNOWN_UNSTABLE = {("ca-dblp", "vcce_bu")}


def _moved(pairs) -> list:
    first, second = _run("0"), _run("12345")
    keys = [f"{dataset}/{algorithm}" for dataset, algorithm in pairs]
    return [key for key in keys if first[key] != second[key]]


@pytest.mark.slow
def test_results_stable_across_hash_seeds():
    stable = [
        (dataset, algorithm)
        for dataset in _DATASETS
        for algorithm in _ALGORITHMS
        if (dataset, algorithm) not in _KNOWN_UNSTABLE
    ]
    assert _moved(stable) == []


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason=(
        "defect: VCCE-BU's ca-dblp components move with the hash seed; "
        "its LkVCS seeds follow set iteration order and Unitary "
        "Expansion, unlike RME, does not even them out"
    ),
)
def test_vcce_bu_ca_dblp_stable_across_hash_seeds():
    assert _moved([("ca-dblp", "vcce_bu")]) == []
