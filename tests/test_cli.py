"""Tests for the command-line interface."""

import gzip

import pytest

from repro.cli import build_parser, main
from repro.graph import community_graph, write_edge_list
from tests.serving.test_index import CAPPED, PINNED


@pytest.fixture
def edge_list(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(community_graph([10, 10], k=3, seed=0), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_enumerate_args(self):
        args = build_parser().parse_args(
            ["enumerate", "g.txt", "-k", "3", "--algorithm", "vcce-td"]
        )
        assert args.k == 3
        assert args.algorithm == "vcce-td"


class TestEnumerate:
    def test_default_algorithm(self, edge_list, capsys):
        assert main(["enumerate", edge_list, "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "RIPPLE" in out
        assert "component 1" in out
        assert "component 2" in out

    def test_quiet(self, edge_list, capsys):
        assert main(["enumerate", edge_list, "-k", "3", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "component" not in out

    def test_exact_algorithm(self, edge_list, capsys):
        assert (
            main(
                ["enumerate", edge_list, "-k", "3", "--algorithm", "vcce-td"]
            )
            == 0
        )
        assert "VCCE-TD" in capsys.readouterr().out

    def test_missing_file_is_reported(self, capsys):
        assert main(["enumerate", "/nonexistent", "-k", "3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_k_is_reported(self, edge_list, capsys):
        assert main(["enumerate", edge_list, "-k", "1"]) == 2
        assert "error" in capsys.readouterr().err


class TestUndecodableInput:
    """A file that is not UTF-8 text is one ``error:`` line, exit 2."""

    @pytest.fixture
    def inputs(self, tmp_path):
        text = b"0 1\n1 2\n0 2\n"
        latin = b"0 1\n1 2\n2 \xe9\n"
        files = {
            "gzip": ("tri.txt.gz", gzip.compress(text)),
            "gzip-unsuffixed": ("tri.bin", gzip.compress(text)),
            "gzip-latin1": ("latin.txt.gz", gzip.compress(latin)),
            "gzip-truncated": ("cut.txt.gz", gzip.compress(text)[:-6]),
            "latin1": ("latin.txt", latin),
        }
        paths = {}
        for kind, (name, data) in files.items():
            (tmp_path / name).write_bytes(data)
            paths[kind] = str(tmp_path / name)
        result = tmp_path / "result.json"
        result.write_text('{"algorithm": "x", "k": 2, "components": []}')
        paths["result"] = str(result)
        return paths

    @staticmethod
    def _fails_cleanly(argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("kind", ["gzip", "latin1"])
    def test_enumerate_edgelist(self, inputs, kind, capsys):
        err = self._fails_cleanly(
            ["enumerate", inputs[kind], "-k", "2"], capsys
        )
        assert f"{inputs[kind]}, line " in err
        assert "not UTF-8 text" in err

    @pytest.mark.parametrize(
        "kind", ["gzip-unsuffixed", "gzip-latin1", "gzip-truncated", "latin1"]
    )
    def test_enumerate_snap(self, inputs, kind, capsys):
        err = self._fails_cleanly(
            ["enumerate", inputs[kind], "-k", "2", "--format", "snap"], capsys
        )
        assert inputs[kind] in err

    @pytest.mark.parametrize("kind", ["gzip", "latin1"])
    def test_verify(self, inputs, kind, capsys):
        err = self._fails_cleanly(
            ["verify", inputs[kind], inputs["result"]], capsys
        )
        assert "not UTF-8 text" in err

    @pytest.mark.parametrize("kind", ["gzip", "latin1"])
    def test_index_build(self, inputs, kind, tmp_path, capsys):
        output = str(tmp_path / "i.idx")
        err = self._fails_cleanly(
            ["index", "build", inputs[kind], "-o", output], capsys
        )
        assert "not UTF-8 text" in err

    def test_serve_graph(self, inputs, capsys):
        err = self._fails_cleanly(["serve", "--graph", inputs["gzip"]], capsys)
        assert "not UTF-8 text" in err

    def test_gzip_reads_through_snap(self, inputs, capsys):
        assert main(["enumerate", inputs["gzip"], "-k", "2",
                     "--format", "snap", "--quiet"]) == 0


class TestStats:
    def test_stats_flag_prints_counters(self, edge_list, capsys):
        assert main(["--stats", "enumerate", edge_list, "-k", "3",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Run statistics: counters (repro.obs)" in out
        assert "flow.dinic.augmentations" in out
        assert "expansion.rme.rounds" in out
        assert "merge.tests_attempted" in out
        assert "phase.seeding" in out

    def test_stats_flag_accepted_after_subcommand(self, edge_list, capsys):
        assert main(["enumerate", edge_list, "-k", "3", "--quiet",
                     "--stats"]) == 0
        assert "repro.obs" in capsys.readouterr().out

    def test_stats_json_dump_matches_schema(self, edge_list, tmp_path,
                                            capsys):
        import json

        from repro.obs import SCHEMA, Collector

        target = tmp_path / "stats.json"
        assert main(["enumerate", edge_list, "-k", "3", "--quiet",
                     "--stats-json", str(target)]) == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["schema"] == SCHEMA
        assert payload["counters"]["flow.dinic.calls"] > 0
        assert payload["counters"]["merge.tests_attempted"] > 0
        assert payload["phases"]["phase.seeding"] >= 0
        # and it round-trips through the collector itself
        rebuilt = Collector.from_json(target.read_text(encoding="utf-8"))
        assert rebuilt.counters == payload["counters"]

    def test_no_stats_by_default(self, edge_list, capsys):
        assert main(["enumerate", edge_list, "-k", "3", "--quiet"]) == 0
        assert "repro.obs" not in capsys.readouterr().out

    def test_stats_json_keeps_schema_on_empty_result(self, edge_list,
                                                     tmp_path, capsys):
        # Regression: a run that finds no components (k above anything
        # the graph holds) must still write a well-formed repro.obs/1
        # document — schema key, status, and empty counter maps.
        import json

        from repro.obs import SCHEMA, Collector

        target = tmp_path / "empty.json"
        assert main(["enumerate", edge_list, "-k", "9", "--quiet",
                     "--stats-json", str(target)]) == 0
        assert "0 9-VCC(s)" in capsys.readouterr().out
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["schema"] == SCHEMA
        assert payload["status"] == "completed"
        Collector.from_json(target.read_text(encoding="utf-8"))  # parses

    def test_parallel_worker_counts_reach_the_stats(self, tmp_path, capsys):
        # Work done inside worker tasks (FBM flows, LkVCS enumerations)
        # is counted in the stats document; the result JSON carries no
        # second, orchestrator-only copy of the counters.
        import json

        graph = str(tmp_path / "sc.txt")
        result = tmp_path / "r.json"
        stats = tmp_path / "s.json"
        assert main(["generate", "sc-shipsec", "-o", graph]) == 0
        assert main(["enumerate", graph, "-k", "4", "--algorithm",
                     "parallel-ripple", "--backend", "thread", "--quiet",
                     "--json", str(result), "--stats-json",
                     str(stats)]) == 0
        assert "counters" not in json.loads(result.read_text("utf-8"))
        counters = json.loads(stats.read_text("utf-8"))["counters"]
        assert counters["merge.flow_tests"] > 0
        assert counters["seeding.lkvcs_enumerations"] > 0


class TestDatasets:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "ca-dblp" in out
        assert "socfb-konect" in out


class TestBench:
    def test_fig9_runs(self, capsys):
        assert main(["bench", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "seeding" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "table99"])


class TestVerifyCommand:
    def test_verify_good_result(self, edge_list, tmp_path, capsys):
        json_path = str(tmp_path / "result.json")
        assert (
            main(["enumerate", edge_list, "-k", "3", "--quiet",
                  "--json", json_path])
            == 0
        )
        capsys.readouterr()
        assert main(["verify", edge_list, json_path]) == 0
        out = capsys.readouterr().out
        assert "all components verified" in out
        assert out.count("OK") == 2

    def test_verify_catches_bogus_component(self, edge_list, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(
            '{"algorithm": "fake", "k": 3,'
            ' "components": [[0, 1, 2, 10, 11]]}',
            encoding="utf-8",
        )
        assert main(["verify", edge_list, str(bogus)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_verify_bad_json_reports_error(self, edge_list, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert main(["verify", edge_list, str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestGenerateCommand:
    def test_generate_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "uk.txt")
        assert main(["generate", "uk-2005", "-o", out]) == 0
        assert "165 vertices" in capsys.readouterr().out
        from repro.graph import read_edge_list

        g = read_edge_list(out)
        assert g.num_vertices == 165

    def test_generate_planted(self, tmp_path, capsys):
        out = str(tmp_path / "planted.txt")
        assert (
            main(
                ["generate", "planted", "-o", out, "--communities", "2",
                 "--size", "12", "-k", "3", "--seed", "5"]
            )
            == 0
        )
        from repro.graph import read_edge_list

        assert read_edge_list(out).num_vertices == 24

    def test_generate_unknown_dataset(self, tmp_path, capsys):
        assert main(["generate", "nope", "-o", str(tmp_path / "x")]) == 2
        assert "error" in capsys.readouterr().err


class TestIndexCommand:
    def test_build_then_inspect(self, edge_list, tmp_path, capsys):
        index_path = str(tmp_path / "graph.idx.json")
        assert main(["index", "build", edge_list, "-o", index_path]) == 0
        out = capsys.readouterr().out
        assert "index saved to" in out and "ceiling k=" in out
        assert main(["index", "inspect", index_path]) == 0
        out = capsys.readouterr().out
        assert "repro.kvcc-index/1" in out
        assert "Indexed levels" in out

    def test_build_emits_serving_counters_in_stats_json(
        self, edge_list, tmp_path, capsys
    ):
        import json

        index_path = str(tmp_path / "graph.idx.json")
        stats_path = tmp_path / "stats.json"
        assert main(["--stats-json", str(stats_path), "index", "build",
                     edge_list, "-o", index_path]) == 0
        payload = json.loads(stats_path.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro.obs/1"
        assert payload["counters"]["serving.index.builds"] == 1
        assert payload["counters"]["serving.index.components"] > 0

    def test_inspect_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert main(["index", "inspect", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestServeCommand:
    def _serve(self, monkeypatch, capsys, argv, lines):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(argv)
        captured = capsys.readouterr()
        import json

        return code, [json.loads(line) for line in
                      captured.out.splitlines() if line], captured.err

    def test_serve_stdio_with_index(self, edge_list, tmp_path, monkeypatch,
                                    capsys):
        index_path = str(tmp_path / "graph.idx.json")
        assert main(["index", "build", edge_list, "-o", index_path]) == 0
        capsys.readouterr()
        code, responses, err = self._serve(
            monkeypatch, capsys,
            ["serve", "--index", index_path],
            ['{"op":"query","v":0,"k":3}', '{"op":"shutdown"}'],
        )
        assert code == 0
        assert responses[0]["ok"] and responses[0]["source"] == "index"
        assert "2 request(s)" in err

    def test_mixed_int_and_str_labels_build_and_serve(
        self, tmp_path, monkeypatch, capsys
    ):
        graph_path = tmp_path / "mixed.txt"
        graph_path.write_text(
            "1 2\n2 3\n3 1\n1 a\na 2\na b\nb 1\nb 2\n3 a\n",
            encoding="utf-8",
        )
        index_path = str(tmp_path / "mixed.idx.json")
        assert main(["index", "build", str(graph_path), "-o", index_path]) == 0
        assert "ceiling k=3" in capsys.readouterr().out
        code, responses, _ = self._serve(
            monkeypatch, capsys,
            ["serve", "--graph", str(graph_path), "--index", index_path],
            ['{"op":"query","v":"a","k":3}', '{"op":"query","v":1,"k":2}'],
        )
        assert code == 0
        for response in responses:
            assert response["source"] == "index"
            assert response["components"] == [[1, 2, 3, "a", "b"]]

    def test_serve_missing_index_degrades_with_graph(
        self, edge_list, tmp_path, monkeypatch, capsys
    ):
        code, responses, err = self._serve(
            monkeypatch, capsys,
            ["serve", "--graph", edge_list,
             "--index", str(tmp_path / "nope.json")],
            ['{"op":"query","v":0,"k":3}'],
        )
        assert code == 0
        assert "build-on-first-use" in err
        assert responses[0]["ok"]

    def test_serve_missing_index_without_graph_errors(self, tmp_path,
                                                      capsys):
        assert main(["serve", "--index", str(tmp_path / "nope.json")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_serve_corrupt_index_degrades_with_graph(
        self, edge_list, tmp_path, monkeypatch, capsys
    ):
        index_path = tmp_path / "graph.idx.json"
        assert main(["index", "build", edge_list,
                     "-o", str(index_path)]) == 0
        capsys.readouterr()
        document = index_path.read_text(encoding="utf-8")
        index_path.write_text(document[: len(document) // 2],
                              encoding="utf-8")
        code, responses, err = self._serve(
            monkeypatch, capsys,
            ["serve", "--graph", edge_list, "--index", str(index_path)],
            ['{"op":"query","v":0,"k":3}'],
        )
        assert code == 0
        assert "warning" in err and "build-on-first-use" in err
        assert responses[0]["ok"]
        # The damaged artifact was quarantined, not left in place.
        assert not index_path.exists()
        assert (tmp_path / "graph.idx.json.corrupt").exists()

    def test_serve_corrupt_index_without_graph_errors(
        self, edge_list, tmp_path, capsys
    ):
        index_path = tmp_path / "graph.idx.json"
        assert main(["index", "build", edge_list,
                     "-o", str(index_path)]) == 0
        capsys.readouterr()
        index_path.write_text("{torn", encoding="utf-8")
        assert main(["serve", "--index", str(index_path)]) == 2
        assert "corrupt" in capsys.readouterr().err

    def test_serve_capped_index_is_rebuilt_from_the_graph(
        self, tmp_path, monkeypatch, capsys
    ):
        graph, _, _ = PINNED["ints"]
        graph_path = tmp_path / "ints.txt"
        write_edge_list(graph, graph_path)
        index_path = tmp_path / "capped.idx.json"
        index_path.write_text(CAPPED + "\n", encoding="utf-8")
        code, responses, err = self._serve(
            monkeypatch, capsys,
            ["serve", "--graph", str(graph_path), "--index", str(index_path)],
            ['{"op":"query","v":1,"k":3}'],
        )
        assert code == 0
        assert "warning" in err and "capped index" in err
        # Level 3, which the capped file lacked, from the rebuilt index.
        assert responses[0]["source"] == "index"
        assert responses[0]["components"] == [[1, 2, 3, 10]]
        assert (tmp_path / "capped.idx.json.corrupt").exists()

    def test_serve_capped_index_without_graph_errors(self, tmp_path, capsys):
        index_path = tmp_path / "capped.idx.json"
        index_path.write_text(CAPPED + "\n", encoding="utf-8")
        assert main(["serve", "--index", str(index_path)]) == 2
        assert "capped index" in capsys.readouterr().err

    def test_serve_admission_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--graph", "g.txt", "--max-queue", "8"]
        )
        assert args.max_queue == 8

    def test_serve_needs_a_source(self, capsys):
        assert main(["serve"]) == 2
        assert "needs --graph" in capsys.readouterr().err

    def test_serve_rejects_bad_tcp_spec(self, edge_list, capsys):
        assert main(["serve", "--graph", edge_list, "--tcp", "nope"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--tcp", "127.0.0.1:70000"],
            ["serve", "--tcp", "127.0.0.1:-1"],
            ["serve", "--tcp", "127.0.0.1:0", "--metrics-port", "70000"],
            ["top", "127.0.0.1:70000"],
        ],
        ids=["tcp-70000", "tcp-minus-1", "metrics-70000", "top-70000"],
    )
    def test_out_of_range_port_is_a_usage_error(self, argv, edge_list, capsys):
        if argv[0] == "serve":
            argv = [*argv, "--graph", edge_list]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag's value
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "error" in err and "0-65535" in err
        assert "Traceback" not in err


class TestLoadtestCommand:
    def test_loadtest_args(self):
        args = build_parser().parse_args(
            ["loadtest", "g.txt", "--scenario", "point", "--scenario",
             "storm", "--rate", "25", "--arrival", "uniform"]
        )
        assert args.scenarios == ["point", "storm"]
        assert args.rate == 25.0
        assert args.arrival == "uniform"

    def test_loadtest_robustness_flags_parse(self):
        args = build_parser().parse_args(
            ["loadtest", "g.txt", "--retry-budget", "3",
             "--daemon-max-queue", "16"]
        )
        assert args.retry_budget == 3
        assert args.daemon_max_queue == 16

    def test_unknown_scenario_is_reported(self, edge_list, tmp_path,
                                          capsys):
        code = main(["loadtest", edge_list, "--scenario", "hurricane",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.slow
    def test_loadtest_end_to_end_writes_artifacts(self, edge_list,
                                                  tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main([
            "loadtest", edge_list,
            "--scenario", "point",
            "--rate", "30", "--duration", "0.8", "--warmup", "0.2",
            "--workers", "2", "--repetitions", "1",
            "--topology", "community-2x10-k3",
            "--output-dir", str(out_dir),
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "point#1" in captured.out
        assert str(out_dir) in captured.out

        from repro.loadtest import read_run_table

        (row,) = read_run_table(out_dir / "run_table.csv")
        assert row.scenario == "point"
        assert row.topology == "community-2x10-k3"
        assert row.offered_rps == 30.0
        assert row.failure_rate == 0.0
        assert row.calibration_s > 0  # measured once, carried per row

        import json

        samples = [
            json.loads(line)
            for line in (out_dir / "samples.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        assert samples and all(s["scenario"] == "point" for s in samples)
        assert any(s["warmup"] for s in samples)


class TestSpanTracing:
    def test_stats_prints_span_tree(self, edge_list, capsys):
        assert main(["enumerate", edge_list, "-k", "3", "--quiet",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "Run statistics: span tree (repro.obs)" in out
        assert "pipeline.run" in out
        assert "merge.test" in out

    def test_trace_out_writes_perfetto_json(self, edge_list, tmp_path,
                                            capsys):
        import json

        target = tmp_path / "run.trace.json"
        assert main(["enumerate", edge_list, "-k", "3", "--quiet",
                     "--trace-out", str(target)]) == 0
        assert "trace saved to" in capsys.readouterr().out
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert "traceEvents" in doc
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in slices}
        assert {"pipeline.run", "phase.seeding", "phase.merging"} <= names
        for event in slices:
            assert isinstance(event["ts"], int) and event["dur"] >= 1

    def test_profile_memory_adds_peaks(self, edge_list, capsys):
        assert main(["enumerate", edge_list, "-k", "3", "--quiet",
                     "--stats", "--profile-memory"]) == 0
        assert "peak +" in capsys.readouterr().out

    def test_profile_memory_alone_warns(self, edge_list, capsys):
        assert main(["enumerate", edge_list, "-k", "3", "--quiet",
                     "--profile-memory"]) == 0
        captured = capsys.readouterr()
        assert "--profile-memory needs" in captured.err
        assert "span tree" not in captured.out

    def test_stats_json_carries_spans(self, edge_list, tmp_path):
        import json

        target = tmp_path / "stats.json"
        assert main(["enumerate", edge_list, "-k", "3", "--quiet",
                     "--stats-json", str(target)]) == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["spans"]["roots"]
        assert payload["spans"]["roots"][0]["name"] == "pipeline.run"


class TestStatsDiff:
    def _dump(self, edge_list, tmp_path, name, k):
        target = tmp_path / name
        assert main(["enumerate", edge_list, "-k", str(k), "--quiet",
                     "--stats-json", str(target)]) == 0
        return str(target)

    def test_diff_two_runs(self, edge_list, tmp_path, capsys):
        a = self._dump(edge_list, tmp_path, "a.json", 3)
        b = self._dump(edge_list, tmp_path, "b.json", 4)
        capsys.readouterr()
        assert main(["stats", "diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "Phase seconds" in out
        assert "Span wall seconds / peak memory" in out
        assert "pipeline.run" in out

    def test_diff_identical_runs(self, edge_list, tmp_path, capsys):
        a = self._dump(edge_list, tmp_path, "a.json", 3)
        capsys.readouterr()
        assert main(["stats", "diff", a, a]) == 0
        out = capsys.readouterr().out
        assert "counters: identical" in out

    def test_diff_rejects_corrupt_document(self, edge_list, tmp_path,
                                           capsys):
        a = self._dump(edge_list, tmp_path, "a.json", 3)
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        capsys.readouterr()
        assert main(["stats", "diff", a, str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_diff_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["stats"])
