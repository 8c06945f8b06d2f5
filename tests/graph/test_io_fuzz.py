"""Property-based fuzzing of the edge-list parsers and writer."""

import re
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import stream_snap_edges
from repro.errors import GraphFormatError
from repro.graph import Graph, parse_edge_list, write_edge_list, read_edge_list
from repro.graph.io import coerce_label

label = st.one_of(
    st.integers(min_value=0, max_value=999),
    st.text(
        alphabet=string.ascii_letters + string.digits + "_.-",
        min_size=1,
        max_size=8,
        # tokens the parser reads as ints would come back as ints
    ).filter(lambda s: not isinstance(coerce_label(s), int)),
)

edge = st.tuples(label, label).filter(lambda e: str(e[0]) != str(e[1]))


@st.composite
def graphs(draw):
    edges = draw(st.lists(edge, max_size=40))
    isolated = draw(st.lists(label, max_size=5))
    g = Graph()
    for u in isolated:
        g.add_vertex(u)
    for u, v in edges:
        if u != v:
            g.add_edge(u, v)
    return g


class TestRoundTripFuzz:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_write_read_roundtrip(self, g):
        import os
        import tempfile

        handle, path = tempfile.mkstemp(suffix=".txt")
        os.close(handle)
        try:
            write_edge_list(g, path)
            back = read_edge_list(path)
        finally:
            os.unlink(path)
        # no label reads back as a different one, so the graphs match
        # exactly, label types included
        assert {frozenset(e) for e in g.edges()} == {
            frozenset(e) for e in back.edges()
        }
        assert set(g.vertices()) == set(back.vertices())


class TestParserRobustness:
    @given(st.text(max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_never_crashes_unexpectedly(self, blob):
        """Arbitrary text either parses or raises the library's errors."""
        from repro.errors import ReproError

        try:
            g = parse_edge_list(blob.splitlines(), allow_self_loops=True)
        except ReproError:
            return
        # whatever parsed is a consistent simple graph
        for u, v in g.edges():
            assert g.has_edge(v, u)
            assert u != v

    @given(st.lists(edge, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_duplicate_lines_idempotent(self, edges):
        lines = [f"{u} {v}" for u, v in edges]
        once = parse_edge_list(lines)
        twice = parse_edge_list(lines + lines)
        assert once == twice


#: Tokens a SNAP file may hold, including the ones int() would accept
#: but the parser must keep as strings.
snap_token = st.one_of(
    st.integers(min_value=-50, max_value=1000).map(str),
    st.sampled_from(["1_0", "+3", "\u0663", "\u00b2", "-05", "007", "-"]),
    st.text(
        alphabet=st.characters(blacklist_categories=("Zs", "Cc")),
        min_size=1,
        max_size=6,
    ),
)

snap_line = st.one_of(
    st.sampled_from(["", "   ", "# FromNodeId ToNodeId", "% comment"]),
    st.lists(snap_token, min_size=1, max_size=4).map(" ".join),
    st.lists(snap_token, min_size=2, max_size=3).map("\t".join),
    st.text(max_size=20),
)

_ASCII_INT = re.compile(r"-?[0-9]+")


class TestSnapStreamFuzz:
    @given(st.lists(snap_line, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_yields_pairs_or_raises_with_the_line_number(self, lines):
        """Any lines either yield one pair per data line or raise
        GraphFormatError naming the first short line; nothing else."""
        expected = []
        bad_lineno = None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith(("#", "%")):
                continue
            tokens = line.split()
            if len(tokens) < 2:
                bad_lineno = lineno
                break
            expected.append(tuple(tokens[:2]))

        pairs = []
        try:
            for pair in stream_snap_edges(lines, source="fuzz.txt"):
                pairs.append(pair)
        except GraphFormatError as exc:
            assert exc.lineno == bad_lineno
            assert "fuzz.txt" in str(exc)
        else:
            assert bad_lineno is None
        assert len(pairs) == len(expected)
        for pair, tokens in zip(pairs, expected):
            for value, token in zip(pair, tokens):
                if _ASCII_INT.fullmatch(token):
                    assert value == int(token) and type(value) is int
                else:
                    assert value == token
