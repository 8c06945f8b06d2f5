"""Schedules: seeded determinism, arrival processes, mix plumbing."""

import pytest

from repro.errors import ParameterError
from repro.loadtest import SCENARIOS, Scenario, build_schedule, get_scenario
from repro.loadtest.workload import STORM_VERTEX_BASE

VERTICES = list(range(20))


def _scenario(**overrides):
    kwargs = dict(
        name="unit",
        mix=(("point", 1.0),),
        offered_rps=100.0,
        duration_s=1.0,
        warmup_s=0.2,
        seed=5,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        scenario = _scenario()
        assert build_schedule(scenario, VERTICES) == build_schedule(
            scenario, VERTICES
        )

    def test_reseeding_changes_the_stream(self):
        scenario = _scenario()
        other = scenario.with_overrides(seed=scenario.seed + 1)
        assert build_schedule(scenario, VERTICES) != build_schedule(
            other, VERTICES
        )


class TestArrivals:
    def test_offsets_increase_and_stay_inside_the_run(self):
        schedule = build_schedule(_scenario(), VERTICES)
        offsets = [r.offset_s for r in schedule]
        assert offsets == sorted(offsets)
        assert all(0 < t < 1.0 for t in offsets)

    def test_uniform_arrivals_have_fixed_gaps(self):
        schedule = build_schedule(
            _scenario(arrival="uniform", offered_rps=10.0), VERTICES
        )
        gaps = [
            b.offset_s - a.offset_s
            for a, b in zip(schedule, schedule[1:])
        ]
        assert all(gap == pytest.approx(0.1) for gap in gaps)

    def test_rate_sets_the_expected_count(self):
        # Uniform spacing is exact: 100 rps over 1 s less the first gap.
        schedule = build_schedule(_scenario(arrival="uniform"), VERTICES)
        assert len(schedule) == 99


class TestMix:
    def test_single_kind_mix_is_pure(self):
        schedule = build_schedule(_scenario(), VERTICES)
        assert {r.kind for r in schedule} == {"point"}

    def test_kinds_drawn_only_from_the_mix(self):
        scenario = _scenario(
            mix=(("point", 0.5), ("batch", 0.3), ("unknown", 0.2))
        )
        kinds = {r.kind for r in build_schedule(scenario, VERTICES)}
        assert kinds <= {"point", "batch", "unknown"}
        assert len(kinds) > 1  # at 100 requests, all-one-kind ~ never

    def test_payload_vertices_come_from_the_served_set(self):
        for request in build_schedule(_scenario(), VERTICES):
            assert request.payload["v"] in VERTICES
            assert 1 <= request.payload["k"] <= 4

    def test_unknown_probes_expect_the_error(self):
        scenario = _scenario(mix=(("unknown", 1.0),))
        schedule = build_schedule(scenario, VERTICES)
        assert all(r.expect == "unknown-vertex" for r in schedule)
        assert all(r.payload["v"] not in VERTICES for r in schedule)

    def test_scan_sweeps_every_k(self):
        scenario = _scenario(mix=(("scan", 1.0),), max_k=3)
        request = build_schedule(scenario, VERTICES)[0]
        assert [q["k"] for q in request.payload["queries"]] == [1, 2, 3]
        assert len({q["v"] for q in request.payload["queries"]}) == 1

    def test_storm_mutations_are_fresh_pendant_edges(self):
        scenario = _scenario(
            mix=(("storm", 1.0),), offered_rps=20.0
        )
        schedule = build_schedule(scenario, VERTICES, graph_anchor=7)
        lines = [r.mutate_append for r in schedule]
        assert all(r.payload == {"op": "reload"} for r in schedule)
        assert len(set(lines)) == len(lines)  # serials never repeat
        for line in lines:
            fresh, anchor = line.split()
            assert int(fresh) > STORM_VERTEX_BASE
            assert anchor == "7"


class TestValidation:
    def test_empty_vertex_set_rejected(self):
        with pytest.raises(ParameterError, match="zero vertices"):
            build_schedule(_scenario(), [])

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mix": ()},
            {"mix": (("nope", 1.0),)},
            {"mix": (("point", -1.0),)},
            {"offered_rps": 0.0},
            {"duration_s": -1.0},
            {"warmup_s": 2.0},  # >= duration_s
            {"workers": 0},
            {"repetitions": 0},
            {"arrival": "bursty"},
            {"batch_size": 0},
            {"max_k": 0},
        ],
    )
    def test_bad_scenario_fields_rejected(self, overrides):
        with pytest.raises(ParameterError):
            _scenario(**overrides)

    def test_builtin_library(self):
        assert set(SCENARIOS) == {
            "point",
            "mixed",
            "errors",
            "storm",
            "smoke",
            "degrade",
            "chaos",
        }
        smoke = get_scenario("smoke")
        assert "storm" not in {kind for kind, _ in smoke.mix}
        with pytest.raises(ParameterError, match="unknown scenario"):
            get_scenario("hurricane")
