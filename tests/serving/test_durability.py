"""Crash-safe index persistence and the versioned reload swap."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.errors import IndexCorruptionError, ParseError
from repro.graph.adjacency import Graph
from repro.graph.generators import planted_kvcc_graph
from repro.resilience.faults import FaultInjected, FaultPlan
from repro.serving import KvccIndex, LRUCache, QueryEngine
from repro.serving import chaos

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def graph():
    return planted_kvcc_graph(2, 10, 3, seed=11)


@pytest.fixture(autouse=True)
def disarm():
    yield
    chaos.deactivate()


class TestChecksum:
    def test_document_carries_a_verifiable_checksum(self, graph):
        index = KvccIndex.build(graph)
        payload = json.loads(index.to_json())
        assert len(payload["checksum"]) == 64
        # save -> load -> save is still byte-identical with the checksum.
        assert KvccIndex.from_json(index.to_json()).to_json() == (
            index.to_json()
        )

    def test_tampered_payload_fails_the_checksum(self, graph):
        document = KvccIndex.build(graph).to_json()
        tampered = document.replace('"complete":true', '"complete":false')
        assert tampered != document  # every build is complete
        with pytest.raises(ParseError, match="checksum mismatch"):
            KvccIndex.from_json(tampered)

    def test_legacy_document_without_checksum_still_loads(self, graph):
        index = KvccIndex.build(graph)
        payload = json.loads(index.to_json())
        del payload["checksum"]
        legacy = json.dumps(payload, separators=(",", ":"))
        loaded = KvccIndex.from_json(legacy)
        assert loaded.fingerprint == index.fingerprint


class TestQuarantine:
    def test_torn_file_is_quarantined(self, graph, tmp_path):
        path = tmp_path / "g.idx.json"
        index = KvccIndex.build(graph)
        index.save(path)
        document = path.read_text(encoding="utf-8")
        path.write_text(document[: len(document) // 2], encoding="utf-8")
        with obs.collecting() as collector:
            with pytest.raises(IndexCorruptionError) as excinfo:
                KvccIndex.load(path)
        assert excinfo.value.quarantine == f"{path}.corrupt"
        assert not path.exists()
        assert (tmp_path / "g.idx.json.corrupt").exists()
        assert collector.counter("serving.index.quarantined") == 1

    def test_missing_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            KvccIndex.load(tmp_path / "never.idx.json")

    def test_injected_garbage_save_quarantines_on_next_load(
        self, graph, tmp_path
    ):
        path = tmp_path / "g.idx.json"
        index = KvccIndex.build(graph)
        chaos.activate(FaultPlan.parse("index.save:0:garbage"))
        index.save(path)
        chaos.deactivate()
        with pytest.raises(IndexCorruptionError):
            KvccIndex.load(path)
        assert (tmp_path / "g.idx.json.corrupt").exists()

    def test_injected_load_garbage_leaves_the_file_alone(
        self, graph, tmp_path
    ):
        path = tmp_path / "g.idx.json"
        KvccIndex.build(graph).save(path)
        chaos.activate(FaultPlan.parse("index.load:0:garbage"))
        with pytest.raises(IndexCorruptionError) as excinfo:
            KvccIndex.load(path)
        assert excinfo.value.quarantine is None
        assert path.exists()  # intact state is never quarantined
        chaos.deactivate()
        assert KvccIndex.load(path).fingerprint  # loads fine unfaulted

    def test_injected_save_raise_cleans_up_its_temp_file(
        self, graph, tmp_path
    ):
        path = tmp_path / "g.idx.json"
        chaos.activate(FaultPlan.parse("index.save:0:raise"))
        with pytest.raises(FaultInjected):
            KvccIndex.build(graph).save(path)
        assert list(tmp_path.iterdir()) == []

    def test_engine_degrades_after_corrupt_index(self, graph, tmp_path):
        path = tmp_path / "g.idx.json"
        KvccIndex.build(graph).save(path)
        document = path.read_text(encoding="utf-8")
        path.write_text(document[:40], encoding="utf-8")
        with pytest.raises(IndexCorruptionError):
            KvccIndex.load(path)
        # The daemon's degrade path: no index, build from the graph.
        engine = QueryEngine(graph)
        assert engine.query(0, 2).source == "index"


class TestKillMidSave:
    def test_sigkill_during_save_never_torns_the_index(
        self, graph, tmp_path
    ):
        """A hard process death mid-save leaves the previous file whole.

        The subprocess saves once cleanly, then re-saves with an armed
        ``index.save:1:crash`` fault — ``os._exit(1)`` after half the
        temp-file bytes, before the atomic rename. The survivor on disk
        must still be the first save, byte-for-byte loadable.
        """
        path = tmp_path / "killed.idx.json"
        script = (
            "from repro.graph.adjacency import Graph\n"
            "from repro.serving import KvccIndex\n"
            "g = Graph.from_edges("
            "[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])\n"
            "index = KvccIndex.build(g)\n"
            f"index.save({os.fspath(path)!r})\n"
            f"index.save({os.fspath(path)!r})\n"
            "raise SystemExit(99)  # unreachable: the save crashes\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC)
        env["REPRO_FAULT"] = "index.save:1:crash"
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 1, result.stderr
        loaded = KvccIndex.load(path)
        reference = KvccIndex.build(
            Graph.from_edges(
                [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
            )
        )
        assert loaded.to_json() == reference.to_json()
        # The only other thing on disk is the crash's inert temp file.
        others = sorted(p.name for p in tmp_path.iterdir())
        assert path.name in others
        assert all(
            name == path.name or name.endswith(".tmp") for name in others
        )


class TestReloadSwap:
    def _engines_graphs(self):
        small = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        big = Graph.from_edges(
            [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (3, 2)]
        )
        return small, big

    def test_version_moves_forward_on_every_swap(self):
        small, big = self._engines_graphs()
        engine = QueryEngine(small, KvccIndex.build(small))
        assert engine.version == 1
        engine.reload(big)
        assert engine.version == 2
        engine.reload(small)
        assert engine.version == 3

    def test_failed_swap_leaves_the_old_generation_serving(self):
        small, big = self._engines_graphs()
        engine = QueryEngine(small, KvccIndex.build(small))
        before_index = engine.index
        before_version = engine.version
        chaos.activate(FaultPlan.parse("reload.swap:0:raise"))
        with pytest.raises(FaultInjected):
            engine.reload(big)
        chaos.deactivate()
        assert engine.index is before_index
        assert engine.version == before_version
        assert engine.query(0, 2).components  # still answering

    def test_answer_resolved_before_a_reload_is_not_cached_past_it(
        self, monkeypatch
    ):
        """A reload landing between a query's resolve and its cache put
        clears the cache first; the late put must not serve the old
        generation's answer from then on."""
        small, big = self._engines_graphs()
        engine = QueryEngine(small, KvccIndex.build(small))
        real_put = LRUCache.put
        reloads = []

        def put_after_a_reload(cache, key, value):
            if not reloads:
                reloads.append(key)
                engine.reload(big)
            real_put(cache, key, value)

        monkeypatch.setattr(LRUCache, "put", put_after_a_reload)
        first = engine.query(0, 2)
        assert first.components == (frozenset({0, 1, 2}),)
        assert reloads == [(0, 2)]
        again = engine.query(0, 2)
        assert again.components == (frozenset({0, 1, 2, 3}),)
        assert again.source == "index"
        assert engine.query(0, 2).source == "cache"

    def test_queries_racing_reloads_never_see_a_half_swapped_index(self):
        """The regression the versioned swap exists for.

        Workers hammer (0, 2) while the main thread flips the served
        graph between two topologies. Every answer must be exactly the
        answer of one complete generation — the triangle's {0,1,2} or
        the K4's {0,1,2,3} — and the version only moves forward.
        """
        small, big = self._engines_graphs()
        expected = {
            frozenset({0, 1, 2}),
            frozenset({0, 1, 2, 3}),
        }
        engine = QueryEngine(small, KvccIndex.build(small))
        stop = threading.Event()
        failures: list[str] = []
        versions: list[int] = []

        def worker():
            last_version = 0
            while not stop.is_set():
                version = engine.version
                result = engine.query(0, 2)
                if set(result.components) - expected:
                    failures.append(f"mixed answer: {result.components}")
                if version < last_version:
                    failures.append(
                        f"version went backwards: {version}"
                    )
                last_version = version

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(6):
                engine.reload(big)
                versions.append(engine.version)
                engine.reload(small)
                versions.append(engine.version)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)  # strictly monotone
