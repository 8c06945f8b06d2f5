"""Tests for the configurable bottom-up pipeline and its named variants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    bottom_up_pipeline,
    ripple,
    ripple_me,
    ripple_no_fbm,
    ripple_no_qkvcs,
    ripple_no_rme,
    vcce_bu,
    vcce_td,
)
from repro.core.pipeline import _finalize
from repro.errors import ParameterError
from repro.flow import is_k_vertex_connected
from repro.graph import (
    Graph,
    clique_graph,
    community_graph,
    nbm_trap_graph,
    planted_kvcc_graph,
    ue_trap_graph,
)


class TestPipelineValidation:
    def test_unknown_strategies_raise(self):
        g = clique_graph(5)
        with pytest.raises(ParameterError):
            bottom_up_pipeline(g, 3, seeding="nope")
        with pytest.raises(ParameterError):
            bottom_up_pipeline(g, 3, expansion="nope")
        with pytest.raises(ParameterError):
            bottom_up_pipeline(g, 3, merging="nope")
        with pytest.raises(ParameterError):
            bottom_up_pipeline(g, 1)

    def test_empty_graph(self):
        assert bottom_up_pipeline(Graph(), 3).components == []

    def test_kcore_prunes_everything(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert bottom_up_pipeline(g, 3).components == []

    def test_algorithm_name_recorded(self):
        result = ripple(clique_graph(5), 3)
        assert result.algorithm == "RIPPLE"
        assert vcce_bu(clique_graph(5), 3).algorithm == "VCCE-BU"

    def test_phase_timings_recorded(self):
        result = ripple(community_graph([16], k=3, seed=0), 3)
        for phase in ("kcore", "seeding", "merging", "expansion"):
            assert phase in result.timer.phases


class TestRippleCorrectness:
    def test_single_clique(self):
        assert ripple(clique_graph(6), 4).components == [frozenset(range(6))]

    def test_matches_exact_on_planted_graphs(self):
        for seed in range(3):
            g = planted_kvcc_graph(
                3, 24, 3, seed=seed, periphery_pairs=2, bridge_width=2,
                noise_vertices=5,
            )
            exact = set(vcce_td(g, 3).components)
            ours = set(ripple(g, 3).components)
            assert ours == exact, f"seed={seed}"

    def test_recovers_ue_trap(self):
        g = ue_trap_graph(3, tail=5, seed=3)
        assert ripple(g, 3).components == vcce_td(g, 3).components

    def test_refuses_nbm_trap(self):
        g = nbm_trap_graph(4, seed=1)
        assert set(ripple(g, 4).components) == set(vcce_td(g, 4).components)

    def test_figure1_structure(self, paper_figure1_graph):
        g = paper_figure1_graph
        for k in (2, 3, 4):
            assert set(ripple(g, k).components) == set(
                vcce_td(g, k).components
            ), f"k={k}"

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=6, deadline=None)
    def test_outputs_always_sound(self, seed):
        g = planted_kvcc_graph(
            2, 20, 3, seed=seed, periphery_pairs=1, bridge_width=1
        )
        for comp in ripple(g, 3).components:
            assert is_k_vertex_connected(g.subgraph(comp), 3)


class TestBaselineDefectsReproduced:
    def test_bu_misses_periphery(self):
        g = community_graph([40], k=3, seed=2, periphery_pairs=3)
        exact = vcce_td(g, 3).covered_vertices()
        bu = vcce_bu(g, 3).covered_vertices()
        rp = ripple(g, 3).covered_vertices()
        assert rp == exact
        assert bu < exact  # the 6 periphery vertices are missed

    def test_bu_overmerges_nbm_trap(self):
        g = nbm_trap_graph(4, seed=0)
        bu = vcce_bu(g, 4)
        assert bu.num_components == 1  # wrongly fused
        assert not is_k_vertex_connected(
            g.subgraph(bu.components[0]), 4
        )

    def test_ripple_me_superset_of_ripple_coverage(self):
        g = planted_kvcc_graph(2, 22, 3, seed=9, periphery_pairs=2)
        rp = ripple(g, 3).covered_vertices()
        me = ripple_me(g, 3, hops=1).covered_vertices()
        assert rp <= me


class TestAblations:
    def test_all_variants_run(self):
        g = planted_kvcc_graph(2, 18, 3, seed=4, bridge_width=2)
        for fn, name in (
            (ripple_no_qkvcs, "RIPPLE-noQkVCS"),
            (ripple_no_fbm, "RIPPLE-noFBM"),
            (ripple_no_rme, "RIPPLE-noRME"),
        ):
            result = fn(g, 3)
            assert result.algorithm == name
            assert result.num_components >= 1

    def test_no_fbm_fails_trap(self):
        g = nbm_trap_graph(4, seed=2)
        assert ripple_no_fbm(g, 4).num_components == 1
        assert ripple(g, 4).num_components == 2

    def test_no_rme_misses_periphery(self):
        g = community_graph([40], k=3, seed=6, periphery_pairs=3)
        full = ripple(g, 3).covered_vertices()
        reduced = ripple_no_rme(g, 3).covered_vertices()
        assert reduced < full


class TestRoundOrdering:
    def test_expand_first_is_valid_configuration(self):
        g = planted_kvcc_graph(2, 20, 3, seed=8, bridge_width=2)
        merge_first = bottom_up_pipeline(g, 3, order="merge_first")
        expand_first = bottom_up_pipeline(g, 3, order="expand_first")
        # Both orderings reach the same fixed point on planted graphs.
        assert set(merge_first.components) == set(expand_first.components)

    def test_unknown_order_rejected(self):
        with pytest.raises(ParameterError):
            bottom_up_pipeline(Graph(), 3, order="sideways")


def _reference_finalize(components, k):
    """The quadratic nesting scan that ``_finalize`` replaced."""
    ordered = sorted(
        {frozenset(c) for c in components}, key=len, reverse=True
    )
    kept = []
    for comp in ordered:
        if len(comp) <= k:
            continue
        if any(comp < other for other in kept):
            continue
        kept.append(comp)
    return kept


class TestFinalize:
    @given(
        st.lists(st.sets(st.integers(0, 15), max_size=10), max_size=30),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_quadratic_reference(self, components, k):
        # List equality: the same components in the same order.
        assert _finalize(components, k) == _reference_finalize(components, k)
