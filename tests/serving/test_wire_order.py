"""Answered components leave in canonical label order, sorted once.

The index orders each component's members once per generation, so the
protocol only copies them. ``_reference_encode_result`` below is the
encoder that sorted every component on every request instead; every
response must match it byte for byte, from the index and from the
cache, and for int, str, mixed and negative labels.
"""

import json

import pytest

from repro.graph import Graph
from repro.graph.generators import community_graph, overlapping_cliques_graph
from repro.loadtest import get_scenario
from repro.loadtest.workload import build_schedule
from repro.serving import KvccIndex, QueryEngine, handle_line, handle_request
from repro.serving.index import _label_key


def _reference_encode_result(result) -> dict:
    """The per-request encoder: sorts every component of every answer."""
    return {
        "v": result.vertex,
        "k": result.k,
        "components": [
            sorted(component, key=_label_key)
            for component in result.components
        ],
        "count": len(result.components),
        "source": result.source,
    }


def _base_graph() -> Graph:
    """Overlapping 3-VCCs (multi-component answers) beside a community
    graph whose periphery drops out at k = 3 and 4 (empty answers)."""
    graph = overlapping_cliques_graph(4, 7, overlap=2, seed=3)
    other = community_graph(
        [12, 10, 9], k=3, seed=5, bridge_style="two_star", periphery_pairs=2
    )
    for u, v in other.edges():
        graph.add_edge(u + 100, v + 100)
    return graph


RELABELS = {
    "int": lambda u: u,
    "str": lambda u: f"v{u}",
    "mixed": lambda u: u if u % 2 else f"s{u}",
    # Negative ints, and ints at and beyond 10**24.
    "negative": lambda u: -u if u % 2 else u * 10**23,
}


def _graph(labels: str) -> Graph:
    relabel = RELABELS[labels]
    return Graph.from_edges(
        (relabel(u), relabel(v)) for u, v in _base_graph().edges()
    )


def _smoke_lines(graph: Graph, seed: int) -> list[str]:
    """The smoke mix (points, batches of 8, scans, unknown vertices),
    each request carrying its own id so responses are reproducible."""
    scenario = get_scenario("smoke").with_overrides(
        offered_rps=200.0, duration_s=1.0, warmup_s=0.0, seed=seed
    )
    vertices = sorted(graph.vertices(), key=_label_key)
    lines = []
    for position, request in enumerate(build_schedule(scenario, vertices)):
        lines.append(json.dumps({**request.payload, "request_id": position}))
    return lines


class _ExpiresAfter:
    """A deadline that expires after ``checks`` calls to ``expired()``."""

    def __init__(self, checks: int) -> None:
        self._remaining = checks

    def expired(self) -> bool:
        self._remaining -= 1
        return self._remaining < 0


class TestMatchesPerRequestSort:
    @pytest.mark.parametrize("labels", sorted(RELABELS))
    def test_every_smoke_response_matches_the_reference(
        self, labels, monkeypatch
    ):
        graph = _graph(labels)
        index = KvccIndex.build(graph)
        lines = _smoke_lines(graph, seed=len(labels))
        actual = QueryEngine(graph, index)
        responses = [handle_line(actual, line)[0] for line in lines]
        # A twin engine fed the same lines holds the same cache, so
        # each answer comes from the same tier on both sides.
        twin = QueryEngine(graph, index)
        monkeypatch.setattr(
            "repro.serving.protocol._encode_result", _reference_encode_result
        )
        expected = [handle_line(twin, line)[0] for line in lines]
        assert responses == expected
        sources = set()
        for response in map(json.loads, responses):
            for result in response.get("results", [response]):
                if "source" in result:
                    sources.add(result["source"])
        assert sources == {"index", "cache"}

    @pytest.mark.parametrize("labels", sorted(RELABELS))
    def test_deadline_partial_batch_matches_the_reference(
        self, labels, monkeypatch
    ):
        graph = _graph(labels)
        index = KvccIndex.build(graph)
        vertices = sorted(graph.vertices(), key=_label_key)
        request = {
            "op": "batch",
            "queries": [
                {"v": vertices[i * 6], "k": 1 + i % 4} for i in range(8)
            ],
        }

        def answer(engine):
            response, _ = handle_request(
                engine, request, deadline=_ExpiresAfter(5), request_id=1
            )
            return json.dumps(response, separators=(",", ":"))

        actual = answer(QueryEngine(graph, index))
        monkeypatch.setattr(
            "repro.serving.protocol._encode_result", _reference_encode_result
        )
        assert actual == answer(QueryEngine(graph, index))
        response = json.loads(actual)
        assert response["code"] == "deadline"
        assert response["completed"] == 5 and response["total"] == 8
        assert {r["source"] for r in response["results"]} == {"index"}


class TestLabelOrderOnTheWire:
    def test_negative_and_huge_ints_go_out_numerically(self):
        labels = [3, -10, 10**24, -1, 9 * 10**23, 0, -5]
        graph = Graph.from_edges(
            (u, v) for i, u in enumerate(labels) for v in labels[i + 1:]
        )
        engine = QueryEngine(graph, KvccIndex.build(graph))
        for k in (1, 6):
            line = json.dumps({"op": "query", "v": -5, "k": k})
            response = json.loads(handle_line(engine, line)[0])
            assert response["components"] == [
                [-10, -5, -1, 0, 3, 9 * 10**23, 10**24]
            ]


class TestOrderedOncePerGeneration:
    def test_index_and_cache_tiers_never_call_the_label_key(
        self, monkeypatch
    ):
        graph = _graph("int")
        document = KvccIndex.build(graph).to_json()
        calls = []

        def counting(vertex):
            calls.append(vertex)
            return _label_key(vertex)

        monkeypatch.setattr("repro.serving.index._label_key", counting)
        index = KvccIndex.from_json(document)
        # Loading orders each member once: the generation's one sort.
        assert len(calls) == sum(
            len(component)
            for components in index.levels.values()
            for component in components
        )
        engine = QueryEngine(graph, index)
        engine.ensure_index()  # the first fingerprint check
        calls.clear()
        lines = _smoke_lines(graph, seed=7)
        sources = set()
        for line in lines + lines:
            response = json.loads(handle_line(engine, line)[0])
            for result in response.get("results", [response]):
                sources.add(result.get("source"))
        assert sources >= {"index", "cache"}
        assert calls == []
