"""Tests for VCCResult and PhaseTimer."""

import json
import time

from repro.core import PhaseTimer, VCCResult


class TestPhaseTimer:
    def test_phase_accumulates(self):
        timer = PhaseTimer()
        with timer.phase("work"):
            time.sleep(0.01)
        with timer.phase("work"):
            time.sleep(0.01)
        assert timer.seconds("work") >= 0.02
        assert timer.seconds("other") == 0.0

    def test_counters(self):
        # Operation counts go to the repro.obs collector only; the
        # timer keeps phase seconds.
        for name in ("count", "counter", "counters", "_counters"):
            assert not hasattr(PhaseTimer(), name)

    def test_proportions_sum_to_one(self):
        timer = PhaseTimer()
        timer.add_seconds("a", 1.0)
        timer.add_seconds("b", 3.0)
        props = timer.proportions()
        assert props["a"] == 0.25
        assert props["b"] == 0.75
        assert abs(sum(props.values()) - 1.0) < 1e-12

    def test_proportions_empty(self):
        assert PhaseTimer().proportions() == {}

    def test_total(self):
        timer = PhaseTimer()
        timer.add_seconds("a", 2.0)
        timer.add_seconds("b", 1.5)
        assert timer.total_seconds() == 3.5

    def test_copies_are_snapshots(self):
        timer = PhaseTimer()
        timer.add_seconds("x", 1.0)
        phases = timer.phases
        timer.add_seconds("x", 1.0)
        assert phases["x"] == 1.0


class TestVCCResult:
    def test_components_sorted_and_frozen(self):
        result = VCCResult([{3, 4}, {1, 2, 5}], k=2, algorithm="test")
        assert result.components[0] == frozenset({1, 2, 5})
        assert all(isinstance(c, frozenset) for c in result.components)

    def test_num_components(self):
        result = VCCResult([{1, 2}, {3, 4}], k=2, algorithm="test")
        assert result.num_components == 2

    def test_covered_vertices(self):
        result = VCCResult([{1, 2}, {2, 3}], k=2, algorithm="test")
        assert result.covered_vertices() == {1, 2, 3}

    def test_component_containing(self):
        result = VCCResult([{1, 2, 3}, {4, 5}], k=2, algorithm="test")
        assert result.component_containing(4) == frozenset({4, 5})
        assert result.component_containing(99) is None

    def test_summary_mentions_algorithm(self):
        result = VCCResult([{1, 2}], k=2, algorithm="RIPPLE")
        assert "RIPPLE" in result.summary()
        assert "1" in result.summary()

    def test_empty_summary(self):
        result = VCCResult([], k=3, algorithm="x")
        assert "none" in result.summary()


class TestJsonRoundTrip:
    def test_round_trip(self):
        from repro.core import PhaseTimer

        timer = PhaseTimer()
        timer.add_seconds("seeding", 1.25)
        result = VCCResult(
            [{1, 2, 3}, {"a", "b"}], k=3, algorithm="RIPPLE", timer=timer
        )
        document = result.to_json()
        assert "counters" not in json.loads(document)
        back = VCCResult.from_json(document)
        assert back.components == result.components
        assert back.k == 3
        assert back.algorithm == "RIPPLE"
        assert back.timer.seconds("seeding") == 1.25

    def test_archived_counters_key_still_loads(self):
        # Results written before counting moved to repro.obs carry a
        # "counters" key; they keep loading (e.g. in `ripple verify`).
        document = json.dumps(
            {
                "algorithm": "RIPPLE",
                "k": 3,
                "status": "completed",
                "components": [[1, 2, 3, 4]],
                "phases": {"seeding": 0.5},
                "counters": {"merges": 3, "rounds": 2},
            }
        )
        back = VCCResult.from_json(document)
        assert back.components == [frozenset({1, 2, 3, 4})]
        assert back.timer.phases == {"seeding": 0.5}
        assert "counters" not in json.loads(back.to_json())

    def test_bad_document_raises(self):
        import pytest

        from repro.errors import ParseError

        with pytest.raises(ParseError):
            VCCResult.from_json("{}")
        with pytest.raises(ParseError):
            VCCResult.from_json("not json")
