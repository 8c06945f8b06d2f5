"""Tests for the repro.obs Collector / NullCollector substrate."""

import json

import pytest

from repro import obs
from repro.errors import ParseError
from repro.obs import SCHEMA, Collector, NullCollector


class TestCollector:
    def test_count_and_read(self):
        collector = Collector()
        collector.count("a")
        collector.count("a", 4)
        assert collector.counter("a") == 5
        assert collector.counter("missing") == 0
        assert collector.counters == {"a": 5}

    def test_merge_sums_counters_and_phases(self):
        left = Collector()
        left.count("x", 2)
        left.add_seconds("p", 1.0)
        right = Collector()
        right.count("x", 3)
        right.count("y")
        right.add_seconds("p", 0.5)
        left.merge(right)
        assert left.counter("x") == 5
        assert left.counter("y") == 1
        assert left.seconds("p") == pytest.approx(1.5)
        assert left.workers_merged == 1

    def test_merge_accepts_snapshot_dict(self):
        collector = Collector()
        collector.merge({"counters": {"x": 7}, "phases": {"p": 0.25}})
        assert collector.counter("x") == 7
        assert collector.seconds("p") == pytest.approx(0.25)

    def test_take_returns_delta_and_resets(self):
        collector = Collector()
        collector.count("x")
        delta = collector.take()
        assert delta["counters"] == {"x": 1}
        assert collector.is_empty()

    def test_reset(self):
        collector = Collector()
        collector.count("x")
        collector.add_seconds("p", 1.0)
        collector.merge(Collector())
        assert not collector.is_empty()
        collector.reset()
        assert collector.is_empty()


class TestJsonRoundTrip:
    def test_round_trip(self):
        collector = Collector()
        collector.count("flow.dinic.calls", 12)
        collector.add_seconds("phase.seeding", 0.125)
        collector.merge(
            {
                "counters": {
                    "merge.tests_attempted": 3,
                    "merge.tests_accepted": 1,
                    "merge.tests_rejected": 2,
                }
            }
        )
        rebuilt = Collector.from_json(collector.to_json())
        assert rebuilt.counters == collector.counters
        assert rebuilt.phases == collector.phases
        assert rebuilt.workers_merged == collector.workers_merged

    def test_schema_field_present(self):
        payload = json.loads(Collector().to_json())
        assert payload["schema"] == SCHEMA
        assert set(payload) == {
            "schema",
            "counters",
            "phases",
            "workers_merged",
        }

    def test_rejects_wrong_schema(self):
        with pytest.raises(ParseError):
            Collector.from_json(
                json.dumps(
                    {"schema": "nope/9", "counters": {}, "phases": {}}
                )
            )

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            Collector.from_json("not json at all")


class TestNullCollector:
    def test_records_nothing(self):
        null = NullCollector()
        null.count("a", 100)
        null.add_seconds("p", 5.0)
        null.merge({"counters": {"x": 1}, "phases": {"p": 1.0}})
        assert null.is_empty()
        assert null.counters == {}
        assert null.phases == {}

    def test_is_noop_flag(self):
        assert NullCollector().is_noop
        assert not Collector().is_noop


class TestActiveCollector:
    def test_default_is_shared_noop(self):
        assert obs.get_collector() is obs.NULL

    def test_collecting_scopes_and_restores(self):
        with obs.collecting() as collector:
            assert obs.get_collector() is collector
            obs.count("x")
        assert obs.get_collector() is obs.NULL
        assert collector.counter("x") == 1

    def test_nested_scopes(self):
        with obs.collecting() as outer:
            obs.count("outer")
            with obs.collecting() as inner:
                obs.count("inner")
            obs.count("outer")
        assert outer.counters == {"outer": 2}
        assert inner.counters == {"inner": 1}

    def test_module_level_helpers_hit_active(self):
        with obs.collecting() as collector:
            obs.add_seconds("p", 0.5)
        assert collector.seconds("p") == pytest.approx(0.5)

    def test_noop_outside_scope_stays_silent(self):
        # Instrumented library code running with no active collector
        # must leave the shared NULL untouched.
        obs.count("x", 3)
        obs.add_seconds("p", 1.0)
        assert obs.NULL.is_empty()
