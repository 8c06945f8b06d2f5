"""Tests for edge-list parsing and round-tripping."""

import pytest

from repro.errors import GraphFormatError, ParseError
from repro.graph import (
    Graph,
    parse_edge_list,
    random_gnm,
    read_edge_list,
    write_edge_list,
)


class TestParse:
    def test_basic(self):
        g = parse_edge_list(["1 2", "2 3"])
        assert g.num_vertices == 3
        assert g.has_edge(1, 2)

    def test_comments_and_blanks_skipped(self):
        g = parse_edge_list(["# header", "", "% other", "1 2"])
        assert g.num_edges == 1

    def test_extra_columns_ignored(self):
        g = parse_edge_list(["1 2 0.5 whatever"])
        assert g.has_edge(1, 2)

    def test_string_labels(self):
        g = parse_edge_list(["alice bob"])
        assert g.has_edge("alice", "bob")

    def test_mixed_numeric_coercion(self):
        g = parse_edge_list(["007 42"])
        assert g.has_edge(7, 42)

    def test_only_ascii_integer_tokens_become_ints(self):
        # int() also takes "1_0", "+3" and non-ASCII digits; each of
        # those would merge with a distinct integer label.
        g = parse_edge_list(["1_0 10", "+3 3", "\u0663 -4"])
        assert g.num_vertices == 6
        assert g.has_edge("1_0", 10)
        assert g.has_edge("+3", 3)
        assert g.has_edge("\u0663", -4)

    def test_bare_label_declares_isolated_vertex(self):
        g = parse_edge_list(["1 2", "7"])
        assert g.has_vertex(7)
        assert g.degree(7) == 0

    def test_self_loop_rejected_by_default(self):
        with pytest.raises(ParseError):
            parse_edge_list(["3 3"])

    def test_self_loop_dropped_when_allowed(self):
        g = parse_edge_list(["3 3", "3 4"], allow_self_loops=True)
        assert g.num_edges == 1
        assert g.has_vertex(3)

    def test_parallel_edges_collapse(self):
        g = parse_edge_list(["1 2", "2 1", "1 2"])
        assert g.num_edges == 1


class TestFormatErrors:
    """Malformed input raises GraphFormatError locating the bad line."""

    def test_error_carries_line_number(self):
        with pytest.raises(GraphFormatError) as excinfo:
            parse_edge_list(["1 2", "3 3"])
        assert excinfo.value.lineno == 2
        assert excinfo.value.source is None
        assert "line 2" in str(excinfo.value)

    def test_comment_lines_still_counted(self):
        with pytest.raises(GraphFormatError) as excinfo:
            parse_edge_list(["# header", "", "5 5"])
        assert excinfo.value.lineno == 3

    def test_is_a_parse_error(self):
        assert issubclass(GraphFormatError, ParseError)

    def test_strict_rejects_extra_columns(self):
        with pytest.raises(GraphFormatError) as excinfo:
            parse_edge_list(["1 2", "1 2 0.5"], strict=True)
        assert "2 tokens" in str(excinfo.value)
        assert excinfo.value.lineno == 2

    def test_strict_rejects_truncated_lines(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list(["7"], strict=True)

    def test_strict_rejects_string_labels(self):
        with pytest.raises(GraphFormatError) as excinfo:
            parse_edge_list(["alice bob"], strict=True)
        assert "'alice'" in str(excinfo.value)

    def test_strict_accepts_clean_input(self):
        g = parse_edge_list(["1 2", "2 3"], strict=True)
        assert g.num_edges == 2

    def test_read_edge_list_names_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n3 3\n")
        with pytest.raises(GraphFormatError) as excinfo:
            read_edge_list(path)
        assert excinfo.value.source == str(path)
        assert excinfo.value.lineno == 2
        assert "bad.txt" in str(excinfo.value)
        assert "line 2" in str(excinfo.value)

    def test_read_edge_list_strict(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("1 2 0.9\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path, strict=True)
        assert read_edge_list(path).has_edge(1, 2)


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        g = random_gnm(20, 40, seed=9)
        path = tmp_path / "graph.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back == g

    def test_underscore_label_stays_distinct_after_roundtrip(
        self, tmp_path
    ):
        g = Graph.from_edges([("1_0", 1), (10, 2)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.num_vertices == 4
        assert back.has_edge("1_0", 1) and back.has_edge(10, 2)

    def test_isolated_vertices_roundtrip(self, tmp_path):
        g = Graph.from_edges([(1, 2)], vertices=[9, "lonely"])
        path = tmp_path / "iso.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_labels_written_in_numeric_order(self, tmp_path):
        # Negative ints order by value, not magnitude, and ints of 10**20
        # or more by value, not as digit strings; strs follow the ints.
        big, bigger = 9 * 10**19, 10**20
        g = Graph.from_edges(
            [(-1, -2), (bigger, big)], vertices=[-3, -10, bigger + 1, "x"]
        )
        path = tmp_path / "order.txt"
        write_edge_list(g, path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert lines == [
            "-10", "-3", str(bigger + 1), "x", "-2 -1", f"{big} {bigger}",
        ]
        assert read_edge_list(path) == g

    def test_write_is_stable(self, tmp_path):
        g = random_gnm(15, 30, seed=1)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_edge_list(g, p1)
        write_edge_list(g, p2)
        assert p1.read_text() == p2.read_text()

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_edge_list(Graph(), path)
        assert read_edge_list(path).num_vertices == 0
