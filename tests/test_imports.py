"""Each ``ripple`` command loads only the modules it runs.

A fresh interpreter runs one command and reports what it imported.
``ripple enumerate`` calls nothing from the serving tier, the process
pools, the bench harness or the dataset generators, and ``ripple
serve`` opens no HTTP listener unless ``--metrics-port`` asks for one.
A new top-level import in ``repro/cli.py`` or in a package
``__init__`` that reaches one of these modules fails here: import it
inside the command or flag that uses it instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graph import community_graph, write_edge_list

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Unloaded after ``import repro.cli`` and after a whole enumerate run.
NOT_FOR_ENUMERATE = (
    "concurrent.futures",
    "http.server",
    "multiprocessing",
    "repro.bench.experiments",
    "repro.bench.perfgate",
    "repro.datasets",
    "repro.graph.generators",
    "repro.loadtest",
    "repro.parallel",
    "repro.resilience.supervisor",
    "repro.serving",
    "ssl",
    "tracemalloc",
)

#: Unloaded after a ``ripple serve`` session without ``--metrics-port``.
NOT_FOR_SERVE = (
    "http.server",
    "multiprocessing",
    "repro.parallel",
    "repro.serving.metrics",
)

#: Runs ``repro.cli.main(argv)`` (nothing for an empty argv) with
#: ``stdin_text`` as standard input, then prints the loaded module
#: names as the last line of standard output.
_PROBE = """
import io, json, sys
import repro.cli
argv, stdin_text = json.loads(sys.argv[1])
sys.stdin = io.StringIO(stdin_text)
code = repro.cli.main(argv) if argv else 0
print(json.dumps([code, sorted(sys.modules)]))
"""


def _loaded(argv: list[str], stdin_text: str = "") -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([argv, stdin_text])],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stdout + proc.stderr
    return set(modules)


@pytest.fixture(scope="module")
def snap_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "graph.txt"
    write_edge_list(community_graph([10, 10], k=3, seed=0), path)
    return str(path)


def test_import_cli_loads_no_command_modules():
    assert _loaded([]) & set(NOT_FOR_ENUMERATE) == set()


@pytest.mark.parametrize(
    "extra",
    [
        [],
        ["--algorithm", "ripple-me", "--deadline", "60"],
        ["--algorithm", "vcce-bu"],
        ["--algorithm", "vcce-td", "--stats"],
    ],
    ids=["ripple", "ripple-me", "vcce-bu", "vcce-td-stats"],
)
def test_enumerate_loads_only_what_it_runs(snap_file, tmp_path, extra):
    argv = [
        "enumerate", snap_file, "-k", "3", "--format", "snap", "--quiet",
        "--json", str(tmp_path / "result.json"), *extra,
    ]
    assert _loaded(argv) & set(NOT_FOR_ENUMERATE) == set()
    assert json.loads((tmp_path / "result.json").read_text())["components"]


def test_serve_opens_http_only_for_metrics_port(snap_file):
    requests = '{"op": "query", "v": 0, "k": 3}\n{"op": "stats"}\n'
    loaded = _loaded(["serve", "--graph", snap_file], requests)
    assert "repro.serving.daemon" in loaded
    assert loaded & set(NOT_FOR_SERVE) == set()
    served = _loaded(
        ["serve", "--graph", snap_file, "--metrics-port", "0"], requests
    )
    assert {"http.server", "repro.serving.metrics"} <= served
