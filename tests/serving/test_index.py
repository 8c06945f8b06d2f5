"""KvccIndex: fingerprints, build, round-trip, staleness, versioning."""

import json

import pytest

from repro.core.hierarchy import kvcc_hierarchy, membership_levels
from repro.errors import IndexCorruptionError, ParameterError, ParseError
from repro.graph import Graph
from repro.graph.generators import (
    community_graph,
    overlapping_cliques_graph,
    planted_kvcc_graph,
)
from repro.serving import INDEX_SCHEMA, KvccIndex, graph_fingerprint
from repro.serving.index import ordered_members


@pytest.fixture(scope="module")
def planted():
    return planted_kvcc_graph(3, 18, 4, seed=2)


#: One int-only and one str-only graph with the fingerprint and saved
#: index document they had before the label order became numeric for
#: negative ints (pinned literals): such graphs keep both, so an index
#: saved for one of them never turns stale.
PINNED = {
    "ints": (
        Graph.from_edges(
            [(1, 2), (2, 3), (3, 1), (3, 10), (10, 1), (9, 10), (9, 1),
             (10, 2)],
            vertices=[7, 100],
        ),
        "5d5d59af0bb9b010500ce4bc69cb590586ac737785beaf377517e2b915b47886",
        '{"schema":"repro.kvcc-index/1","checksum":"8dc51a97a8f44c9ca29d590c'
        '4663c1e02ebfa2997528427783f42be14862a938","fingerprint":"5d5d59af0b'
        'b9b010500ce4bc69cb590586ac737785beaf377517e2b915b47886","max_k":nul'
        'l,"ceiling":3,"complete":true,"num_vertices":7,"num_edges":8,"vert'
        'ices":[1,2,3,7,9,10,100],"levels":{"1":[[1,2,3,9,10]],"2":[[1,2,3,'
        '9,10]],"3":[[1,2,3,10]]}}',
    ),
    "strs": (
        Graph.from_edges(
            [("a", "b"), ("b", "c"), ("c", "a"), ("c", "B"), ("B", "a"),
             ("10", "B"), ("9", "10"), ("9", "a"), ("B", "b")],
            vertices=["\u00e9"],
        ),
        "f6745e4fc0c4203184f8f8fb1f5263ca45158e6a24beb7a3f7fc7b947f961396",
        '{"schema":"repro.kvcc-index/1","checksum":"668612d8be46507ebcf75383'
        '358996b6ec7f83333d59103dc68fcbcaf84cf176","fingerprint":"f6745e4fc0'
        'c4203184f8f8fb1f5263ca45158e6a24beb7a3f7fc7b947f961396","max_k":nul'
        'l,"ceiling":3,"complete":true,"num_vertices":7,"num_edges":9,"vert'
        'ices":["10","9","B","a","b","c","\\u00e9"],"levels":{"1":[["10","9'
        '","B","a","b","c"]],"2":[["10","9","B","a","b","c"]],"3":[["B","a"'
        ',"b","c"]]}}',
    ),
}

#: The "ints" graph's index as written with a ``max_k=2`` cap, which
#: index builds no longer take: a checksum-valid document that lacks
#: level 3 and says so with ``"max_k":2`` and ``"complete":false``.
CAPPED = (
    '{"schema":"repro.kvcc-index/1","checksum":"952408e41e483f7e3cda4c77'
    '8224f8e6cabd26723232685c0ccf7f0e0bb7b2bf","fingerprint":"5d5d59af0b'
    'b9b010500ce4bc69cb590586ac737785beaf377517e2b915b47886","max_k":2,"'
    'ceiling":2,"complete":false,"num_vertices":7,"num_edges":8,"vertice'
    's":[1,2,3,7,9,10,100],"levels":{"1":[[1,2,3,9,10]],"2":[[1,2,3,9,10'
    ']]}}'
)

#: Mixed int and str labels in one graph (a 3-VCC on five vertices).
MIXED_EDGES = [
    (1, 2), (2, 3), (3, 1), (1, "a"), ("a", 2), ("a", "b"), ("b", 1),
    ("b", 2), (3, "a"),
]


class TestFingerprint:
    def test_deterministic_across_insertion_orders(self):
        a = Graph.from_edges([(1, 2), (2, 3), (3, 1)])
        b = Graph.from_edges([(3, 1), (2, 3), (2, 1)])
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_sensitive_to_edges_and_isolated_vertices(self):
        base = Graph.from_edges([(1, 2), (2, 3)])
        extra_edge = Graph.from_edges([(1, 2), (2, 3), (3, 1)])
        extra_vertex = Graph.from_edges([(1, 2), (2, 3)], vertices=[9])
        assert graph_fingerprint(base) != graph_fingerprint(extra_edge)
        assert graph_fingerprint(base) != graph_fingerprint(extra_vertex)

    def test_distinguishes_int_from_str_labels(self):
        ints = Graph.from_edges([(1, 2)])
        strs = Graph.from_edges([("1", "2")])
        assert graph_fingerprint(ints) != graph_fingerprint(strs)

    def test_rejects_unserialisable_labels(self):
        g = Graph.from_edges([((1, 2), (3, 4))])
        with pytest.raises(ParameterError):
            graph_fingerprint(g)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_int_only_and_str_only_fingerprints_are_pinned(self, name):
        graph, fingerprint, _ = PINNED[name]
        assert graph_fingerprint(graph) == fingerprint

    def test_mixed_int_and_str_labels(self):
        forward = Graph.from_edges(MIXED_EDGES)
        backward = Graph.from_edges((v, u) for u, v in reversed(MIXED_EDGES))
        assert graph_fingerprint(forward) == graph_fingerprint(backward)
        fewer = Graph.from_edges(MIXED_EDGES[:-1])
        assert graph_fingerprint(forward) != graph_fingerprint(fewer)


class TestLabelOrder:
    def test_ints_numerically_then_strs_by_code_point(self):
        # Negative ints and ints of 10**24 and beyond included.
        labels = [3, -10, 10**24, "b", -1, 9 * 10**23, "B", 0, "a", -5]
        expected = [-10, -5, -1, 0, 3, 9 * 10**23, 10**24, "B", "a", "b"]
        assert list(ordered_members(frozenset(labels))) == expected

    def test_negative_labels_are_saved_numerically(self):
        labels = [3, -10, 10**24, -1, 9 * 10**23, 0, -5]
        expected = [-10, -5, -1, 0, 3, 9 * 10**23, 10**24]
        graph = Graph.from_edges(
            (u, v) for i, u in enumerate(labels) for v in labels[i + 1:]
        )
        document = json.loads(KvccIndex.build(graph).to_json())
        assert document["vertices"] == expected
        assert len(document["levels"]) == 6
        for components in document["levels"].values():
            assert components == [expected]


class TestBuild:
    def test_levels_match_hierarchy_exactly(self, planted):
        index = KvccIndex.build(planted)
        assert index.levels == {
            k: tuple(components)
            for k, components in kvcc_hierarchy(planted).items()
        }
        document = json.loads(index.to_json())
        assert document["max_k"] is None
        assert document["complete"] is True

    def test_membership_levels_match_live(self, planted):
        index = KvccIndex.build(planted)
        assert index.membership_levels() == membership_levels(planted)

    def test_containing_reports_overlaps(self):
        # Two K5s sharing 2 vertices: the shared pair belongs to both
        # 3-VCCs, everyone else to exactly one.
        g = overlapping_cliques_graph(2, 5, overlap=2, seed=0)
        index = KvccIndex.build(g)
        shared = [v for v in g.vertices() if len(index.containing(v, 3)) == 2]
        assert len(shared) == 2
        solo = [v for v in g.vertices() if len(index.containing(v, 3)) == 1]
        assert len(solo) == g.num_vertices - 2

    def test_unknown_vertex_and_uncovered_k_raise(self, planted):
        # k < 1 is the only level the index does not cover.
        index = KvccIndex.build(planted)
        with pytest.raises(ParameterError):
            index.containing("nope", 2)
        with pytest.raises(ParameterError):
            index.lookup(0, 0)
        # Above the ceiling there is no k-VCC: an empty answer.
        assert index.lookup(0, index.ceiling + 1) == ((), ())


class TestRoundTrip:
    GRAPHS = {
        "planted": planted_kvcc_graph(3, 18, 4, seed=2),
        "community": community_graph([14, 12], k=3, seed=5),
        "overlap": overlapping_cliques_graph(4, 6, overlap=2, seed=3),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_save_load_byte_identical(self, name, tmp_path):
        graph = self.GRAPHS[name]
        index = KvccIndex.build(graph)
        path = tmp_path / f"{name}.idx.json"
        index.save(path)
        first = path.read_bytes()
        reloaded = KvccIndex.load(path)
        reloaded.save(path)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_reload_answers_identically(self, name, tmp_path):
        graph = self.GRAPHS[name]
        index = KvccIndex.build(graph)
        path = tmp_path / f"{name}.idx.json"
        index.save(path)
        reloaded = KvccIndex.load(path)
        assert reloaded.levels == index.levels
        assert reloaded.vertices == index.vertices
        assert reloaded.fingerprint == index.fingerprint
        for vertex in graph.vertices():
            for k in range(1, index.ceiling + 1):
                assert reloaded.containing(vertex, k) == index.containing(
                    vertex, k
                )

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_documents_keep_their_bytes_and_stay_fresh(self, name):
        graph, _, document = PINNED[name]
        assert KvccIndex.build(graph).to_json() == document
        loaded = KvccIndex.from_json(document)
        assert not loaded.is_stale(graph)
        assert loaded.to_json() == document

    def test_mixed_labels_build_save_load(self, tmp_path):
        graph = Graph.from_edges(MIXED_EDGES)
        index = KvccIndex.build(graph)
        assert index.ceiling == 3
        path = tmp_path / "mixed.idx.json"
        index.save(path)
        first = path.read_bytes()
        document = json.loads(first)
        assert document["vertices"] == [1, 2, 3, "a", "b"]
        assert document["levels"]["3"] == [[1, 2, 3, "a", "b"]]
        reloaded = KvccIndex.load(path)
        assert not reloaded.is_stale(graph)
        assert reloaded.containing("a", 3) == (frozenset(graph.vertices()),)
        reloaded.save(path)
        assert path.read_bytes() == first

    def test_not_stale_after_reload_but_stale_after_edit(
        self, planted, tmp_path
    ):
        path = tmp_path / "planted.idx.json"
        KvccIndex.build(planted).save(path)
        index = KvccIndex.load(path)
        assert not index.is_stale(planted)
        edited = planted.copy()
        u = next(iter(edited.vertices()))
        v = next(w for w in edited.vertices() if not edited.has_edge(u, w)
                 and w != u)
        edited.add_edge(u, v)
        assert index.is_stale(edited)


class TestVersioning:
    def test_unknown_schema_rejected(self, planted):
        payload = json.loads(KvccIndex.build(planted).to_json())
        payload["schema"] = "repro.kvcc-index/999"
        with pytest.raises(ParseError):
            KvccIndex.from_json(json.dumps(payload))

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            KvccIndex.from_json("not json")
        with pytest.raises(ParseError):
            KvccIndex.from_json('{"schema": "repro.kvcc-index/1"}')

    def test_inconsistent_counts_rejected(self, planted):
        payload = json.loads(KvccIndex.build(planted).to_json())
        payload["num_vertices"] = 3
        with pytest.raises(ParseError):
            KvccIndex.from_json(json.dumps(payload))

    def test_component_outside_vertex_list_rejected(self, planted):
        payload = json.loads(KvccIndex.build(planted).to_json())
        payload["levels"]["2"][0].append("ghost")
        with pytest.raises(ParseError):
            KvccIndex.from_json(json.dumps(payload))

    def test_ceiling_mismatch_rejected(self, planted):
        payload = json.loads(KvccIndex.build(planted).to_json())
        payload["ceiling"] = 99
        with pytest.raises(ParseError):
            KvccIndex.from_json(json.dumps(payload))

    def test_capped_document_is_rejected_and_quarantined(self, tmp_path):
        with pytest.raises(ParseError, match="capped index"):
            KvccIndex.from_json(CAPPED)
        path = tmp_path / "capped.idx.json"
        path.write_text(CAPPED + "\n", encoding="utf-8")
        with pytest.raises(IndexCorruptionError) as excinfo:
            KvccIndex.load(path)
        assert excinfo.value.quarantine == f"{path}.corrupt"
        assert not path.exists()
        assert (tmp_path / "capped.idx.json.corrupt").exists()

    def test_schema_constant_is_versioned(self):
        assert INDEX_SCHEMA.endswith("/1")
