"""The line-delimited JSON protocol: ops, errors, ids, deadlines."""

import io
import json
import re
import time

import pytest

from repro import obs
from repro.graph.generators import planted_kvcc_graph
from repro.obs import Collector
from repro.resilience import Deadline
from repro.serving import (
    PROTOCOL,
    AccessLog,
    AdmissionController,
    KvccIndex,
    QueryEngine,
    ServerContext,
    error_line,
    handle_line,
    handle_request,
)

#: Shape of a server-assigned request id: pid (hex) + process sequence.
SERVER_ID = re.compile(r"s-[0-9a-f]+-\d{6}")


@pytest.fixture(scope="module")
def engine():
    graph = planted_kvcc_graph(2, 12, 3, seed=4)
    return QueryEngine(graph, KvccIndex.build(graph))


def _roundtrip(engine, doc):
    response, keep_serving = handle_line(engine, json.dumps(doc))
    return json.loads(response), keep_serving


class TestOps:
    def test_ping_reports_protocol(self, engine):
        response, keep_serving = _roundtrip(engine, {"op": "ping"})
        assert response.pop("request_id")
        assert response == {"ok": True, "op": "ping", "protocol": PROTOCOL}
        assert keep_serving

    def test_query_sorted_components(self, engine):
        response, _ = _roundtrip(engine, {"op": "query", "v": 0, "k": 3})
        assert response["ok"] and response["op"] == "query"
        assert response["count"] == len(response["components"]) == 1
        members = response["components"][0]
        assert members == sorted(members)
        assert 0 in members
        assert response["source"] in ("index", "cache")

    def test_batch_preserves_order(self, engine):
        response, _ = _roundtrip(
            engine,
            {
                "op": "batch",
                "queries": [{"v": 0, "k": 2}, {"v": 13, "k": 3}],
            },
        )
        assert response["ok"] and response["count"] == 2
        assert [r["v"] for r in response["results"]] == [0, 13]

    def test_stats_describes_engine(self, engine):
        response, _ = _roundtrip(engine, {"op": "stats"})
        assert response["ok"]
        assert response["stats"]["index"]["ceiling"] == engine.index.ceiling
        assert response["stats"]["has_graph"] is True

    def test_shutdown_stops_session(self, engine):
        response, keep_serving = _roundtrip(engine, {"op": "shutdown"})
        assert response["ok"]
        assert not keep_serving

    def test_id_echoed_verbatim(self, engine):
        response, _ = _roundtrip(
            engine, {"op": "ping", "id": "req-42"}
        )
        assert response["id"] == "req-42"
        response, _ = _roundtrip(
            engine, {"op": "query", "v": 0, "k": 99, "id": 7}
        )
        assert response["id"] == 7


class TestErrors:
    def test_malformed_json_is_parse_error(self, engine):
        response, keep_serving = handle_line(engine, "{oops")
        payload = json.loads(response)
        assert payload["ok"] is False and payload["code"] == "parse"
        assert keep_serving  # the session survives bad input

    def test_non_object_request_is_parse_error(self, engine):
        payload = json.loads(handle_line(engine, "[1, 2]")[0])
        assert payload["code"] == "parse"

    def test_blank_line_is_ignored(self, engine):
        response, keep_serving = handle_line(engine, "   \n")
        assert response == "" and keep_serving

    def test_unsupported_op(self, engine):
        response, _ = _roundtrip(engine, {"op": "evict"})
        assert response["code"] == "unsupported-op"

    def test_missing_fields_are_bad_requests(self, engine):
        for doc in (
            {"op": "query"},
            {"op": "query", "v": 0},
            {"op": "query", "v": 0, "k": "three"},
            {"op": "query", "v": 0, "k": 0},
            {"op": "query", "v": True, "k": 2},
            {"op": "query", "v": [1], "k": 2},
            {"op": "batch"},
            {"op": "batch", "queries": "nope"},
            {"op": "batch", "queries": [7]},
        ):
            response, _ = _roundtrip(engine, doc)
            assert response["code"] == "bad-request", doc

    def test_unknown_vertex_has_its_own_code(self, engine):
        response, _ = _roundtrip(engine, {"op": "query", "v": 999, "k": 2})
        assert response["code"] == "unknown-vertex"

    def test_expired_deadline_returns_batch_prefix(self, engine):
        expired = Deadline(0)
        response, keep_serving = handle_request(
            engine,
            {"op": "batch", "queries": [{"v": 0, "k": 2}, {"v": 1, "k": 2}]},
            deadline=expired,
        )
        assert response["ok"] is False and response["code"] == "deadline"
        assert response["completed"] == 0 and response["total"] == 2
        assert response["results"] == []
        assert keep_serving


class TestRequestIds:
    def test_server_assigns_an_id_to_every_response(self, engine):
        response, _ = _roundtrip(engine, {"op": "ping"})
        assert SERVER_ID.fullmatch(response["request_id"])

    def test_server_ids_are_unique_per_request(self, engine):
        first, _ = _roundtrip(engine, {"op": "ping"})
        second, _ = _roundtrip(engine, {"op": "ping"})
        assert first["request_id"] != second["request_id"]

    def test_client_ids_round_trip_unmodified(self, engine):
        # Whatever the client sends — string, int, structured — comes
        # back byte-for-byte; the server never rewrites foreign ids.
        for request_id in ("client-42", 7, {"trace": "ab", "span": 3}):
            response, _ = _roundtrip(
                engine, {"op": "ping", "request_id": request_id}
            )
            assert response["request_id"] == request_id

    def test_error_responses_carry_the_id(self, engine):
        response, _ = _roundtrip(
            engine, {"op": "query", "request_id": "bad-1"}
        )
        assert response["code"] == "bad-request"
        assert response["request_id"] == "bad-1"

    def test_parse_errors_get_a_server_id(self, engine):
        payload = json.loads(handle_line(engine, "{oops")[0])
        assert payload["code"] == "parse"
        assert SERVER_ID.fullmatch(payload["request_id"])

    def test_shed_response_echoes_the_id(self, engine):
        admission = AdmissionController(workers=1, max_queue=0)
        held = admission.admit("point")  # occupy the only worker
        try:
            line, keep_serving = handle_line(
                engine,
                json.dumps(
                    {"op": "query", "v": 0, "k": 3, "request_id": "shed-me"}
                ),
                admission=admission,
            )
        finally:
            held.release()
        response = json.loads(line)
        assert response["code"] == "overloaded" and response["retriable"]
        assert response["request_id"] == "shed-me"
        assert keep_serving

    def test_error_line_assigns_or_echoes_ids(self):
        assigned = json.loads(error_line("line too long", "parse"))
        assert SERVER_ID.fullmatch(assigned["request_id"])
        echoed = json.loads(
            error_line("line too long", "parse", request_id="mine")
        )
        assert echoed["request_id"] == "mine"


class TestStatsTelemetry:
    def test_gauges_report_admission_state(self, engine):
        admission = AdmissionController(workers=2, max_queue=4)
        response, _ = handle_request(
            engine, {"op": "stats"}, admission=admission
        )
        gauges = response["gauges"]
        assert set(gauges) == {"queue_depth", "in_service", "slots_free"}
        assert gauges["slots_free"] == 2
        assert set(gauges["queue_depth"]) == {
            "point",
            "batch",
            "scan",
            "reload",
        }
        assert all(depth == 0 for depth in gauges["queue_depth"].values())

    def test_in_service_gauge_tracks_a_held_ticket(self, engine):
        admission = AdmissionController(workers=2, max_queue=4)
        with admission.admit("point"):
            response, _ = handle_request(
                engine, {"op": "stats"}, admission=admission
            )
            assert response["gauges"]["in_service"]["point"] == 1
            assert response["gauges"]["slots_free"] == 1

    def test_uptime_comes_from_the_server_context(self, engine):
        context = ServerContext(started_at=time.monotonic() - 3.0)
        response, _ = handle_request(
            engine, {"op": "stats"}, context=context
        )
        assert response["uptime_s"] >= 3.0

    def test_reset_reports_the_closing_window_then_clears(self, engine):
        collector = Collector()
        with obs.collecting(collector):
            _roundtrip(engine, {"op": "query", "v": 0, "k": 3})
            response, _ = _roundtrip(engine, {"op": "stats", "reset": True})
            assert response["reset"] is True
            # The response carries the window being closed...
            assert "serving.handle_seconds.point" in response["histograms"]
            lifetime_requests = response["counters"]["serving.requests"]
            # ...and afterwards histograms restart empty while lifetime
            # counters keep accumulating.
            follow, _ = _roundtrip(engine, {"op": "stats"})
            assert "serving.handle_seconds.point" not in follow["histograms"]
            assert (
                follow["counters"]["serving.requests"] >= lifetime_requests
            )

    def test_plain_stats_does_not_reset(self, engine):
        collector = Collector()
        with obs.collecting(collector):
            _roundtrip(engine, {"op": "query", "v": 0, "k": 3})
            response, _ = _roundtrip(engine, {"op": "stats"})
            assert "reset" not in response
            assert collector.histogram("serving.handle_seconds.point")


class TestAccessLog:
    def _context(self):
        stream = io.StringIO()
        return ServerContext(access_log=AccessLog(stream)), stream

    def _records(self, stream):
        return [json.loads(line) for line in stream.getvalue().splitlines()]

    def test_query_record_is_complete(self, engine):
        context, stream = self._context()
        admission = AdmissionController(workers=2, max_queue=4)
        handle_line(
            engine,
            json.dumps(
                {"op": "query", "v": 0, "k": 3, "request_id": "log-1"}
            ),
            admission=admission,
            context=context,
        )
        (record,) = self._records(stream)
        assert record["request_id"] == "log-1"
        assert record["op"] == "query" and record["class"] == "point"
        assert record["outcome"] == "ok"
        assert record["tier"] in ("cache", "index")
        for key in ("ts", "queue_ms", "service_ms", "handle_ms"):
            assert key in record, key

    def test_parse_error_is_logged_as_control(self, engine):
        context, stream = self._context()
        handle_line(engine, "{oops", context=context)
        (record,) = self._records(stream)
        assert record["outcome"] == "parse"
        assert record["class"] == "control" and record["op"] is None
        assert SERVER_ID.fullmatch(record["request_id"])
        assert "handle_ms" in record

    def test_shed_record_names_the_reason(self, engine):
        context, stream = self._context()
        admission = AdmissionController(workers=1, max_queue=0)
        held = admission.admit("point")
        try:
            handle_line(
                engine,
                json.dumps(
                    {"op": "query", "v": 0, "k": 3, "request_id": "s-1"}
                ),
                admission=admission,
                context=context,
            )
        finally:
            held.release()
        (record,) = self._records(stream)
        assert record["outcome"] == "overloaded"
        assert record["shed"] == "queue-full:point"
        assert record["request_id"] == "s-1"

    def test_one_record_per_line_in_a_pipelined_session(self, engine):
        context, stream = self._context()
        for doc in (
            {"op": "ping"},
            {"op": "query", "v": 0, "k": 3},
            {"op": "stats"},
        ):
            handle_line(engine, json.dumps(doc), context=context)
        records = self._records(stream)
        assert [r["op"] for r in records] == ["ping", "query", "stats"]
        assert all(r["outcome"] == "ok" for r in records)
