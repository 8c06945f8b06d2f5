"""The streaming SNAP loader: format tolerance, hygiene counters, CLI."""

import gzip

import pytest

from repro import obs
from repro.datasets import (
    load_snap_edge_list,
    load_snap_graph,
    stream_snap_edges,
)
from repro.errors import GraphFormatError
from repro.graph import Graph

SNAP_TEXT = """\
# Directed graph (each unordered pair of nodes is saved once)
# Nodes: 4 Edges: 5
% network-repository style comment
# FromNodeId\tToNodeId
0\t1
1 2
2 0

1\t0
3 3
2 3 0.75
"""


def _write(tmp_path, text, name="graph.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestStreamSnapEdges:
    def test_comments_blanks_and_extra_columns(self):
        pairs = list(stream_snap_edges(SNAP_TEXT.splitlines()))
        assert pairs == [(0, 1), (1, 2), (2, 0), (1, 0), (3, 3), (2, 3)]

    def test_non_integer_labels_stay_strings(self):
        pairs = list(stream_snap_edges(["a b", "b 3"]))
        assert pairs == [("a", "b"), ("b", 3)]

    def test_only_ascii_integer_tokens_become_ints(self):
        pairs = list(stream_snap_edges(["1_0 10", "+3 \u0663", "-05 007"]))
        assert pairs == [("1_0", 10), ("+3", "\u0663"), (-5, 7)]

    def test_single_token_line_rejected_with_lineno(self):
        with pytest.raises(GraphFormatError) as excinfo:
            list(stream_snap_edges(["0 1", "lonely"], source="x.txt"))
        assert excinfo.value.lineno == 2
        assert "x.txt" in str(excinfo.value)


class TestLoadSnapEdgeList:
    def test_loads_with_hygiene_counters(self, tmp_path):
        path = _write(tmp_path, SNAP_TEXT)
        with obs.collecting() as collector:
            csr = load_snap_edge_list(path)
        # 4 distinct undirected edges; the 1-0 duplicate and the 3-3
        # self-loop are dropped but counted.
        assert csr.num_edges == 4
        assert collector.counter("graph.csr.stream_duplicates_dropped") == 1
        assert collector.counter("graph.csr.stream_selfloops_dropped") == 1
        assert csr.to_graph() == Graph.from_edges(
            [(0, 1), (1, 2), (0, 2), (2, 3)]
        )

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "graph.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(SNAP_TEXT)
        assert load_snap_edge_list(str(path)).num_edges == 4


class TestFixtureScript:
    def test_small_fixture_enumerates_planted_cliques(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        out = tmp_path / "fixture.txt"
        subprocess.run(
            [
                sys.executable,
                str(root / "scripts" / "make_snap_fixture.py"),
                "-o",
                str(out),
                "--cliques",
                "4",
                "--clique-size",
                "6",
                "--fringe",
                "300",
            ],
            check=True,
            capture_output=True,
        )
        graph = load_snap_graph(str(out))
        from repro.core.ripple import ripple

        result = ripple(graph, 3)
        sizes = sorted(len(c) for c in result.components)
        assert sizes == [6, 6, 6, 6]


class TestCli:
    def test_enumerate_format_snap(self, tmp_path, capsys):
        from repro.cli import main

        path = _write(tmp_path, SNAP_TEXT)
        assert main(["enumerate", path, "--format", "snap", "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "2-VCC" in out

    def test_default_format_unchanged(self, tmp_path, capsys):
        from repro.cli import main

        path = _write(tmp_path, "0 1\n1 2\n2 0\n")
        assert main(["enumerate", path, "-k", "2"]) == 0
        assert "2-VCC" in capsys.readouterr().out
