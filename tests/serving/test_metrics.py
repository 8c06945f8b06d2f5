"""The /metrics surface: rendering, grammar validation, HTTP, top."""

import io
import json
import urllib.request

import pytest

from repro import obs
from repro.errors import ParseError
from repro.graph.generators import planted_kvcc_graph
from repro.serving import (
    AdmissionController,
    MetricsServer,
    QueryEngine,
    render_prometheus,
    serve_tcp,
    validate_exposition,
)
from repro.serving.top import delta_frame, poll_stats, render_frame, run_top


@pytest.fixture()
def collector():
    instance = obs.Collector()
    instance.count("serving.requests", 42)
    instance.count("serving.shed", 3)
    instance.add_seconds("seeding", 1.25)
    for value in (0.001, 0.002, 0.040):
        instance.observe("serving.handle_seconds.point", value)
    instance.observe("serving.handle_seconds.batch", 0.010)
    instance.observe("serving.resolve_seconds.cache", 0.0001)
    return instance


class TestRender:
    def test_counters_phases_and_histograms_all_export(self, collector):
        text = render_prometheus(collector)
        assert "# TYPE serving_requests_total counter" in text
        assert "serving_requests_total 42" in text
        assert "# TYPE seeding_phase_seconds_total counter" in text
        assert "# TYPE serving_handle_seconds histogram" in text
        # Per-class series under one family, cumulative buckets.
        assert 'serving_handle_seconds_count{class="point"} 3' in text
        assert 'serving_handle_seconds_count{class="batch"} 1' in text
        assert 'serving_resolve_seconds_count{tier="cache"} 1' in text
        assert 'le="+Inf"' in text

    def test_admission_contributes_per_class_gauges(self, collector):
        admission = AdmissionController(workers=2, max_queue=4)
        text = render_prometheus(collector, admission=admission)
        assert "# TYPE serving_queue_depth gauge" in text
        assert 'serving_queue_depth{class="point"} 0' in text
        assert "serving_queue_slots_free 2" in text
        assert "serving_workers 2" in text

    def test_engine_and_uptime_gauges(self, collector):
        graph = planted_kvcc_graph(2, 8, 3, seed=1)
        engine = QueryEngine(graph)
        import time

        text = render_prometheus(
            collector, engine=engine, started_at=time.monotonic() - 5
        )
        assert "serving_index_generation" in text
        assert "serving_cache_capacity" in text
        assert "serving_uptime_seconds" in text

    def test_rendered_exposition_always_validates(self, collector):
        admission = AdmissionController(workers=2, max_queue=4)
        declared = validate_exposition(
            render_prometheus(collector, admission=admission)
        )
        assert declared["serving_requests_total"] == "counter"
        assert declared["serving_queue_depth"] == "gauge"
        assert declared["serving_handle_seconds"] == "histogram"

    def test_exposed_bucket_counts_stay_exact(self, collector):
        # Down-sampling to power-of-two edges must preserve cumulative
        # exactness: the +Inf bucket equals the recorded count.
        text = render_prometheus(collector)
        line = next(
            candidate
            for candidate in text.splitlines()
            if candidate.startswith(
                'serving_handle_seconds_bucket{class="point",le="+Inf"}'
            )
        )
        assert line.endswith(" 3")


class TestValidator:
    def test_rejects_sample_without_type_declaration(self):
        with pytest.raises(ParseError, match="no\\s.*TYPE|TYPE"):
            validate_exposition("lonely_metric 1\n")

    def test_rejects_duplicate_family(self):
        text = (
            "# TYPE dup counter\ndup 1\n"
            "# TYPE dup counter\n"
        )
        with pytest.raises(ParseError, match="duplicate metric name"):
            validate_exposition(text)

    def test_rejects_duplicate_sample(self):
        text = (
            "# TYPE twice counter\n"
            'twice{a="1"} 1\n'
            'twice{a="1"} 2\n'
        )
        with pytest.raises(ParseError, match="duplicate sample"):
            validate_exposition(text)

    def test_rejects_non_numeric_value(self):
        with pytest.raises(ParseError, match="non-numeric"):
            validate_exposition("# TYPE bad counter\nbad banana\n")

    def test_rejects_malformed_labels(self):
        with pytest.raises(ParseError, match="malformed labels"):
            validate_exposition(
                "# TYPE bad counter\nbad{not labels} 1\n"
            )

    def test_accepts_histogram_suffixes_under_one_declaration(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\n'
            'h_bucket{le="+Inf"} 1\n'
            "h_sum 0.5\nh_count 1\n"
        )
        assert validate_exposition(text) == {"h": "histogram"}


class TestHttpServer:
    def test_serves_metrics_healthz_and_404(self, collector):
        with MetricsServer(collector=collector) as server:
            with urllib.request.urlopen(server.url, timeout=5) as response:
                assert "version=0.0.4" in response.headers["Content-Type"]
                text = response.read().decode("utf-8")
            assert "serving_requests_total 42" in text
            validate_exposition(text)
            health_url = server.url.replace("/metrics", "/healthz")
            with urllib.request.urlopen(health_url, timeout=5) as response:
                assert json.loads(response.read()) == {"ok": True}
            other = server.url.replace("/metrics", "/other")
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(other, timeout=5)

    def test_port_zero_binds_ephemeral(self, collector):
        server = MetricsServer(collector=collector, port=0).start()
        try:
            assert server.port > 0
        finally:
            server.stop()


class TestTop:
    def _serve(self):
        graph = planted_kvcc_graph(2, 8, 3, seed=1)
        return serve_tcp(QueryEngine(graph))

    def test_poll_and_frames_against_a_live_daemon(self):
        with obs.collecting():
            with self._serve() as handle:
                from repro.loadtest.harness import ask

                for _ in range(5):
                    ask(handle.address, {"op": "query", "v": 0, "k": 3})
                first = poll_stats(handle.address)
                frame = delta_frame(None, first, 2.0)
                assert frame["rps"] >= 0
                assert frame["handled"] >= 5
                assert "handle_p95_ms" in frame
                rendered = render_frame(frame, handle.address)
                assert "rps" in rendered and "p95" in rendered
                # A second poll with no traffic in between: the delta
                # window shows (almost) nothing new.
                second = poll_stats(handle.address)
                quiet = delta_frame(first, second, 2.0)
                assert quiet["rps"] >= 0

    def test_run_top_writes_frames_and_returns_zero(self):
        with obs.collecting():
            with self._serve() as handle:
                out = io.StringIO()
                code = run_top(
                    handle.address, interval=0.05, count=2, out=out
                )
        assert code == 0
        assert out.getvalue().count("ripple top") == 2

    def test_run_top_unreachable_daemon_returns_one(self):
        out = io.StringIO()
        assert run_top(("127.0.0.1", 1), count=1, out=out) == 1
        assert "ripple top:" in out.getvalue()
