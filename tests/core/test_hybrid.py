"""Tests for the hybrid (bottom-up seeded, exact) enumerator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import vcce_hybrid, vcce_td
from repro.errors import ParameterError
from repro.graph import (
    Graph,
    clique_graph,
    community_graph,
    nbm_trap_graph,
    planted_kvcc_graph,
    random_gnm,
    ue_trap_graph,
)


class TestExactness:
    def test_matches_td_on_planted(self):
        for seed in range(3):
            g = planted_kvcc_graph(
                3, 22, 3, seed=seed, periphery_pairs=1, bridge_width=2,
                noise_vertices=4,
            )
            assert set(vcce_hybrid(g, 3).components) == set(
                vcce_td(g, 3).components
            )

    def test_matches_td_on_traps(self):
        trap = nbm_trap_graph(4, seed=0)
        assert set(vcce_hybrid(trap, 4).components) == set(
            vcce_td(trap, 4).components
        )
        trap2 = ue_trap_graph(3, tail=4, seed=1)
        assert set(vcce_hybrid(trap2, 3).components) == set(
            vcce_td(trap2, 3).components
        )

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=12, deadline=None)
    def test_matches_td_on_random_graphs(self, seed):
        g = random_gnm(22, 70, seed=seed)
        assert set(vcce_hybrid(g, 3).components) == set(
            vcce_td(g, 3).components
        )

    def test_empty_and_invalid(self):
        assert vcce_hybrid(Graph(), 3).components == []
        with pytest.raises(ParameterError):
            vcce_hybrid(clique_graph(4), 1)


class TestSkipAccounting:
    def test_certifications_skipped_where_heuristic_succeeds(self):
        # On a friendly graph RIPPLE resolves every community, so the
        # hybrid's partition loop certifies them all for free.
        g = community_graph([18, 20], k=3, seed=7, bridge_width=2)
        with obs.collecting() as collector:
            result = vcce_hybrid(g, 3)
        assert collector.counter("vcce_td.certifications_skipped") >= 2
        assert result.algorithm == "VCCE-Hybrid"

    def test_phase_timings_present(self):
        g = community_graph([16], k=3, seed=2)
        result = vcce_hybrid(g, 3)
        assert "bottom_up" in result.timer.phases
        assert "partition" in result.timer.phases
