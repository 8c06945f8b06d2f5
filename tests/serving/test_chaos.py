"""Serving chaos stages: deterministic faults through the live daemon."""

import io
import json
import socket

import pytest

from repro import obs
from repro.graph.generators import planted_kvcc_graph
from repro.resilience.faults import FaultInjected, FaultPlan
from repro.serving import (
    KvccIndex,
    QueryEngine,
    ServeSettings,
    serve_stdio,
    serve_tcp,
)
from repro.serving import chaos
from repro.serving.protocol import handle_line


@pytest.fixture(scope="module")
def graph():
    return planted_kvcc_graph(2, 10, 3, seed=6)


@pytest.fixture(autouse=True)
def disarm():
    yield
    chaos.deactivate()


def _arm(spec: str, hang_seconds: float = 0.01) -> None:
    chaos.activate(FaultPlan.parse(spec, hang_seconds=hang_seconds))


class TestSequencing:
    def test_faults_land_on_the_exact_stage_hit(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        _arm("engine.resolve:1:raise")
        engine.query(0, 2)  # hit 0: clean
        with pytest.raises(FaultInjected):
            engine.query(1, 2)  # hit 1: armed
        engine.query(2, 2)  # hit 2: plan exhausted

    def test_draw_counts_injections(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        _arm("engine.resolve:0:hang")
        with obs.collecting(spans=True) as collector:
            engine.query(0, 2, request_id="req-7")
        assert collector.counter("serving.faults_injected") == 1
        assert (
            collector.counter("serving.faults.engine.resolve.hang") == 1
        )
        faults = [
            span.attrs
            for root in collector.spans.roots
            for span in root.walk()
            if span.name == "serving.fault"
        ]
        assert faults == [
            {
                "stage": "engine.resolve",
                "mode": "hang",
                "sequence": 0,
                "request_id": "req-7",
            }
        ]

    def test_no_plan_is_a_noop(self, graph):
        chaos.deactivate()
        engine = QueryEngine(graph, KvccIndex.build(graph))
        assert engine.query(0, 2).components

    def test_resolve_fires_before_the_cache(self, graph):
        # A cached answer must not dodge the fault: hang-calibrated
        # service times stay cache-hit-rate independent.
        engine = QueryEngine(graph, KvccIndex.build(graph))
        engine.query(0, 2)  # warm the cache
        _arm("engine.resolve:0:raise")
        with pytest.raises(FaultInjected):
            engine.query(0, 2)


class TestServeHandle:
    def test_raise_answers_internal_and_session_survives(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        _arm("serve.handle:0:raise")
        out = io.StringIO()
        served = serve_stdio(
            engine,
            in_stream=io.StringIO(
                '{"op":"ping"}\n{"op":"ping"}\n'
            ),
            out_stream=out,
        )
        responses = [json.loads(x) for x in out.getvalue().splitlines()]
        assert served == 2
        assert responses[0]["code"] == "internal"
        assert responses[1]["ok"]

    def test_garbage_emits_an_undecodable_line(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        _arm("serve.handle:0:garbage")
        response, keep = handle_line(engine, '{"op":"ping"}')
        assert keep is True
        with pytest.raises(ValueError):
            json.loads(response)

    def test_crash_ends_the_stdio_session(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        _arm("serve.handle:1:crash")
        out = io.StringIO()
        with obs.collecting() as collector:
            served = serve_stdio(
                engine,
                in_stream=io.StringIO(
                    '{"op":"ping"}\n{"op":"ping"}\n{"op":"ping"}\n'
                ),
                out_stream=out,
            )
        assert served == 1  # the crash ate request 2 and ended the loop
        assert collector.counter("serving.sessions.crashed") == 1

    def test_crash_drops_the_tcp_connection_daemon_survives(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        _arm("serve.handle:0:crash")
        with obs.collecting() as collector:
            with serve_tcp(engine) as handle:
                with socket.create_connection(
                    handle.address, timeout=10
                ) as sock:
                    stream = sock.makefile(
                        "rw", encoding="utf-8", newline="\n"
                    )
                    stream.write('{"op":"ping"}\n')
                    stream.flush()
                    assert stream.readline() == ""  # EOF, no response
                # The daemon is still alive for the next connection.
                with socket.create_connection(
                    handle.address, timeout=10
                ) as sock:
                    stream = sock.makefile(
                        "rw", encoding="utf-8", newline="\n"
                    )
                    stream.write('{"op":"ping"}\n')
                    stream.flush()
                    assert json.loads(stream.readline())["ok"]
        assert collector.counter("serving.sessions.crashed") == 1


class TestStages:
    def test_stage_catalogue_is_stable(self):
        assert chaos.STAGES == (
            "serve.handle",
            "engine.resolve",
            "index.load",
            "index.save",
            "reload.swap",
        )

    def test_session_crash_is_not_a_repro_error(self):
        from repro.errors import ReproError

        # Nothing between the injection point and the session loop may
        # convert the crash into a polite `internal` response.
        assert not issubclass(chaos.SessionCrash, ReproError)

    def test_fire_applies_hang_and_raises_the_rest(self):
        _arm("reload.swap:0:hang,reload.swap:1:raise")
        assert chaos.fire("reload.swap") == "hang"
        with pytest.raises(FaultInjected):
            chaos.fire("reload.swap")
        assert chaos.fire("reload.swap") is None


class TestOversizedLines:
    def test_stdio_rejects_and_survives(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        settings = ServeSettings(max_line_bytes=128)
        big = '{"op":"query","v":"' + "x" * 1024 + '","k":1}\n'
        out = io.StringIO()
        with obs.collecting() as collector:
            served = serve_stdio(
                engine,
                settings,
                in_stream=io.StringIO(big + '{"op":"ping"}\n'),
                out_stream=out,
            )
        responses = [json.loads(x) for x in out.getvalue().splitlines()]
        assert served == 2
        assert responses[0]["code"] == "bad-request"
        assert "128" in responses[0]["error"]
        assert responses[1]["ok"]
        assert collector.counter("serving.oversized_lines") == 1

    def test_tcp_rejects_and_survives(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        settings = ServeSettings(max_line_bytes=128)
        big = '{"op":"query","v":"' + "x" * 1024 + '","k":1}'
        with serve_tcp(engine, settings) as handle:
            with socket.create_connection(
                handle.address, timeout=10
            ) as sock:
                stream = sock.makefile("rw", encoding="utf-8", newline="\n")
                for line in (big, '{"op":"ping"}'):
                    stream.write(line + "\n")
                    stream.flush()
                first = json.loads(stream.readline())
                second = json.loads(stream.readline())
        assert first["code"] == "bad-request"
        assert second["ok"]  # same connection, still serving
