"""The serve daemon: stdio sessions, concurrent TCP, degradation."""

import io
import json
import socket
import threading
import time

import pytest

from repro import obs
from repro.graph.generators import planted_kvcc_graph
from repro.serving import (
    KvccIndex,
    QueryEngine,
    ServeSettings,
    serve_stdio,
    serve_tcp,
)


@pytest.fixture(scope="module")
def graph():
    return planted_kvcc_graph(2, 12, 3, seed=9)


def _session(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


class TestStdio:
    def _serve(self, engine, text, settings=ServeSettings()):
        out = io.StringIO()
        served = serve_stdio(
            engine,
            settings,
            in_stream=io.StringIO(text),
            out_stream=out,
        )
        return served, _session(out.getvalue())

    def test_session_in_order(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        served, responses = self._serve(
            engine,
            '{"op":"ping"}\n'
            '{"op":"query","v":0,"k":3,"id":1}\n'
            "\n"
            '{"op":"query","v":99,"k":3,"id":2}\n',
        )
        assert served == 3
        assert [r.get("id") for r in responses] == [None, 1, 2]
        assert responses[0]["protocol"].startswith("repro.serve/")
        assert responses[1]["ok"] and 0 in responses[1]["components"][0]
        assert responses[2]["code"] == "unknown-vertex"

    def test_shutdown_ends_before_eof(self, graph):
        engine = QueryEngine(graph)
        served, responses = self._serve(
            engine,
            '{"op":"shutdown"}\n{"op":"ping"}\n',
        )
        assert served == 1
        assert responses[0]["op"] == "shutdown"

    def test_missing_index_degrades_to_build_on_first_use(self, graph):
        engine = QueryEngine(graph)  # no index at all
        with obs.collecting() as collector:
            served, responses = self._serve(
                engine, '{"op":"query","v":0,"k":2}\n'
            )
        assert responses[0]["ok"] and responses[0]["source"] == "index"
        assert collector.counter("serving.index.builds") == 1

    def test_request_timeout_applies_per_request(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        served, responses = self._serve(
            engine,
            '{"op":"batch","queries":[{"v":0,"k":2}]}\n',
            ServeSettings(request_timeout=0.0),
        )
        assert responses[0]["code"] == "deadline"
        assert responses[0]["results"] == []


class TestTcp:
    def _ask(self, address, lines):
        with socket.create_connection(address, timeout=10) as sock:
            stream = sock.makefile("rw", encoding="utf-8", newline="\n")
            answers = []
            for line in lines:
                stream.write(line + "\n")
                stream.flush()
                answers.append(json.loads(stream.readline()))
            return answers

    def test_serves_and_shuts_down(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        with serve_tcp(engine) as handle:
            answers = self._ask(
                handle.address,
                ['{"op":"ping"}', '{"op":"query","v":3,"k":3}'],
            )
            assert answers[0]["ok"] and answers[1]["ok"]
            assert 3 in answers[1]["components"][0]

    def test_concurrent_connections_all_answered(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        settings = ServeSettings(workers=2)
        failures: list[Exception] = []

        def client(vertex: int) -> None:
            try:
                answers = self._ask(
                    handle.address,
                    [json.dumps({"op": "query", "v": vertex, "k": 3})],
                )
                assert answers[0]["ok"], answers[0]
                assert vertex in answers[0]["components"][0]
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        with serve_tcp(engine, settings) as handle:
            threads = [
                threading.Thread(target=client, args=(vertex,))
                for vertex in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures

    def test_counters_reach_the_servers_collector(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        with obs.collecting() as collector:
            with serve_tcp(engine) as handle:
                self._ask(handle.address, ['{"op":"query","v":0,"k":2}'])
        assert collector.counter("serving.requests") == 1
        assert collector.counter("serving.queries") == 1
        assert collector.counter("serving.sessions") == 1

    def _held_engine(self, graph, release: threading.Event) -> QueryEngine:
        """An engine whose queries wait for ``release`` before resolving."""
        engine = QueryEngine(graph, KvccIndex.build(graph))
        resolve = engine.query

        def held_query(*args, **kwargs):
            release.wait(timeout=30)
            return resolve(*args, **kwargs)

        engine.query = held_query
        return engine

    def test_sheds_exactly_past_the_queue_bound(self, graph):
        # One worker and one queue slot: of six concurrent queries the
        # held one and the queued one are answered, the other four shed.
        release = threading.Event()
        engine = self._held_engine(graph, release)
        outcomes: list[str] = []
        lock = threading.Lock()

        def client() -> None:
            answer = self._ask(
                handle.address, ['{"op":"query","v":0,"k":2}']
            )[0]
            with lock:
                outcomes.append(
                    "ok" if answer.get("ok") else answer["code"]
                )

        settings = ServeSettings(workers=1, max_queue=1)
        with obs.collecting() as collector:
            with serve_tcp(engine, settings) as handle:
                threads = [
                    threading.Thread(target=client) for _ in range(6)
                ]
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 30
                while len(outcomes) < 4 and time.monotonic() < deadline:
                    time.sleep(0.01)
                release.set()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        assert sorted(outcomes) == ["ok", "ok"] + ["overloaded"] * 4
        assert collector.counter("serving.shed") == 4
        assert collector.counter("serving.admitted") == 2

    def test_stats_answers_while_every_worker_is_busy(self, graph):
        # Control ops bypass admission: stats must not queue behind a
        # worker that is still resolving.
        release = threading.Event()
        engine = self._held_engine(graph, release)
        settings = ServeSettings(workers=1, max_queue=4)
        with serve_tcp(engine, settings) as handle:
            with socket.create_connection(handle.address, timeout=10) as busy:
                stream = busy.makefile("rw", encoding="utf-8", newline="\n")
                stream.write('{"op":"query","v":0,"k":2}\n')
                stream.flush()
                deadline = time.monotonic() + 10
                while (
                    handle.admission.stats()["slots_free"]
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                stats = self._ask(handle.address, ['{"op":"stats"}'])[0]
                release.set()
                assert json.loads(stream.readline())["ok"]
        assert stats["stats"]["admission"]["in_service"]["point"] == 1

    def test_concurrent_recording_keeps_histograms_consistent(self, graph):
        # N sessions hammer the daemon in parallel; afterwards the
        # merged serving.handle_seconds family must account for every
        # request exactly once — no torn snapshots, no lost updates.
        from repro.obs.histogram import Histogram

        engine = QueryEngine(graph, KvccIndex.build(graph))
        clients, per_client = 8, 25
        failures: list[Exception] = []

        def client(seed: int) -> None:
            try:
                lines = [
                    json.dumps({"op": "query", "v": (seed + i) % 24, "k": 3})
                    for i in range(per_client)
                ]
                answers = self._ask(handle.address, lines)
                assert all(a["ok"] for a in answers)
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        with obs.collecting() as collector:
            with serve_tcp(engine, ServeSettings(workers=4)) as handle:
                threads = [
                    threading.Thread(target=client, args=(n,))
                    for n in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        assert not failures
        merged = Histogram()
        for name, snapshot in collector.histogram_snapshots().items():
            if name.startswith("serving.handle_seconds."):
                merged.merge(snapshot)
        assert merged.count == clients * per_client
        assert collector.counter("serving.queries") == clients * per_client

    def test_session_survives_malformed_line(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        with serve_tcp(engine) as handle:
            answers = self._ask(
                handle.address, ["{nope", '{"op":"ping"}']
            )
            assert answers[0]["code"] == "parse"
            assert answers[1]["ok"]


class TestStopAndDrain:
    def test_handle_exposes_the_ephemeral_port(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        handle = serve_tcp(engine)
        try:
            assert handle.port == handle.address[1] > 0
        finally:
            handle.stop()

    def test_stop_unblocks_idle_sessions_and_leaves_no_threads(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        handle = serve_tcp(engine)
        # Two sessions: one idle (parked in readline), one that has
        # already completed a request and is waiting for the next line.
        idle = socket.create_connection(handle.address, timeout=10)
        active = socket.create_connection(handle.address, timeout=10)
        stream = active.makefile("rw", encoding="utf-8", newline="\n")
        stream.write('{"op":"ping"}\n')
        stream.flush()
        assert json.loads(stream.readline())["ok"]
        give_up = time.monotonic() + 10
        while (
            len(handle._server.live_sessions()) < 2
            and time.monotonic() < give_up
        ):
            time.sleep(0.01)
        sessions = [t for t, _ in handle._server.live_sessions()]
        assert len(sessions) == 2
        handle.stop(drain_timeout=0.5)
        assert handle._server.live_sessions() == []
        assert not any(t.is_alive() for t in sessions)
        idle.close()
        active.close()

    def test_stop_answers_a_connection_left_in_the_backlog(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        handle = serve_tcp(engine)
        # Park the acceptor first: the connection below completes in the
        # kernel but is never accepted before stop() runs.
        handle._server.shutdown()
        with socket.create_connection(handle.address, timeout=10) as sock:
            stream = sock.makefile("rw", encoding="utf-8", newline="\n")
            stream.write('{"op":"query","v":0,"k":3}\n')
            stream.flush()
            handle.stop()
            answer = json.loads(stream.readline())
        assert answer["ok"]
        assert handle._server.live_sessions() == []

    def test_stop_drains_the_in_flight_request(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        handle = serve_tcp(engine)
        sock = socket.create_connection(handle.address, timeout=10)
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        stream.write('{"op":"query","v":0,"k":3}\n')
        stream.flush()
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        # The already-sent request still gets its answer.
        answer = json.loads(stream.readline())
        stopper.join(timeout=10)
        assert not stopper.is_alive()
        assert answer["ok"]
        sock.close()


class TestReloadAndStats:
    def _ask(self, address, lines):
        return TestTcp._ask(self, address, lines)

    def test_stats_response_carries_serving_counters(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        with obs.collecting():
            with serve_tcp(engine) as handle:
                answers = self._ask(
                    handle.address,
                    ['{"op":"query","v":0,"k":2}', '{"op":"stats"}'],
                )
        counters = answers[1]["counters"]
        assert counters["serving.requests"] >= 2
        assert counters["serving.queries"] == 1
        assert all(name.startswith("serving.") for name in counters)

    def test_reload_without_a_reloader_is_unsupported(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        with serve_tcp(engine) as handle:
            answers = self._ask(handle.address, ['{"op":"reload"}'])
        assert answers[0]["code"] == "unsupported-op"

    def test_reload_swaps_in_the_reread_graph(self, graph, tmp_path):
        from repro.graph.io import read_edge_list, write_edge_list

        path = tmp_path / "served.edges"
        write_edge_list(graph, path)
        engine = QueryEngine(graph, KvccIndex.build(graph))
        settings = ServeSettings(
            reloader=lambda: read_edge_list(path, allow_self_loops=True)
        )
        with obs.collecting() as collector:
            with serve_tcp(engine, settings) as handle:
                before = self._ask(handle.address, ['{"op":"reload"}'])[0]
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write("10000001 0\n")
                after = self._ask(handle.address, ['{"op":"reload"}'])[0]
        assert before["ok"] and after["ok"]
        assert after["num_vertices"] == before["num_vertices"] + 1
        assert after["num_edges"] == before["num_edges"] + 1
        assert collector.counter("serving.engine.reloads") == 2

    def test_failing_reloader_answers_internal(self, graph, tmp_path):
        def explode():
            raise OSError("disk fell off")

        engine = QueryEngine(graph, KvccIndex.build(graph))
        settings = ServeSettings(reloader=explode)
        with serve_tcp(engine, settings) as handle:
            answers = self._ask(
                handle.address, ['{"op":"reload"}', '{"op":"ping"}']
            )
        assert answers[0]["code"] == "internal"
        assert "disk fell off" in answers[0]["error"]
        assert answers[1]["ok"]  # the session survives

    def test_undecodable_graph_file_fails_the_reload(self, graph, tmp_path):
        import gzip

        from repro.graph.io import read_edge_list

        path = tmp_path / "served.edges"
        path.write_bytes(gzip.compress(b"0 1\n"))
        engine = QueryEngine(graph, KvccIndex.build(graph))
        settings = ServeSettings(
            reloader=lambda: read_edge_list(path, allow_self_loops=True)
        )
        with serve_tcp(engine, settings) as handle:
            answers = self._ask(
                handle.address, ['{"op":"reload"}', '{"op":"ping"}']
            )
        assert answers[0]["code"] == "internal"
        assert answers[0]["error"].startswith(f"reload failed: {path}, line 1")
        assert answers[1]["ok"]  # the session survives
