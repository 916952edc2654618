"""Tests for the adaptive cost/quality ordering selector."""

import json

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.graph import generators
from repro.ordering import (
    HEAVYWEIGHT_ORDERINGS,
    CandidateConfig,
    auto_order,
    compute_ordering,
    default_candidates,
    select_ordering,
)

from tests.conftest import assert_valid_permutation


@pytest.fixture(scope="module")
def graph():
    return generators.web_graph(
        300, pages_per_host=20, out_degree=6, seed=17
    )


LIGHT = (
    CandidateConfig("original"),
    CandidateConfig("hubcluster"),
    CandidateConfig("dbg"),
)


class TestDefaultCandidates:
    def test_baseline_first(self):
        assert default_candidates()[0].ordering == "original"

    def test_labels_unique(self):
        labels = [c.label for c in default_candidates()]
        assert len(labels) == len(set(labels))

    def test_contains_one_heavyweight(self):
        heavy = [
            c for c in default_candidates()
            if c.ordering in HEAVYWEIGHT_ORDERINGS
        ]
        assert [c.ordering for c in heavy] == ["gorder"]

    def test_knobs_reach_gorder_label(self):
        configs = default_candidates(window=7)
        assert configs[-1].label == "gorder[w=7]"


class TestSelectOrdering:
    def test_chosen_minimises_amortised_seconds(self, graph):
        decision = select_ordering(graph, candidates=LIGHT)
        best = min(
            probe.amortised_seconds for probe in decision.probes
        )
        assert decision.chosen.amortised_seconds == best

    def test_oracle_is_min_probe_cycles(self, graph):
        decision = select_ordering(graph, candidates=LIGHT)
        assert decision.oracle_probe.probe_cycles == min(
            probe.probe_cycles for probe in decision.probes
        )

    def test_baseline_break_even_is_zero(self, graph):
        decision = select_ordering(graph, candidates=LIGHT)
        assert decision.probes[0].ordering == "original"
        assert decision.probes[0].break_even_queries == 0.0

    def test_zero_volume_picks_cheapest_ordering(self, graph):
        # With no queries to amortise over, ordering cost is the whole
        # bill and the free baseline wins.
        decision = select_ordering(graph, query_volume=0,
                                   candidates=LIGHT)
        assert decision.chosen.ordering == "original"

    def test_heavyweight_pruned_at_low_volume(self, graph):
        decision = select_ordering(graph, query_volume=1)
        assert decision.pruned == ("gorder[w=5]",)
        assert all(
            probe.ordering not in HEAVYWEIGHT_ORDERINGS
            for probe in decision.probes
        )

    def test_heavyweight_probed_at_high_volume(self, graph):
        decision = select_ordering(graph, query_volume=10**9)
        assert decision.pruned == ()
        assert any(
            probe.ordering == "gorder" for probe in decision.probes
        )

    def test_selector_tracks_oracle_at_high_volume(self, graph):
        # When the cycle term dominates, the amortised minimum and the
        # locality oracle coincide.
        decision = select_ordering(graph, query_volume=10**12)
        assert decision.chosen.label == decision.oracle

    def test_decision_serialises_to_json(self, graph):
        decision = select_ordering(graph, query_volume=0,
                                   candidates=LIGHT)
        payload = json.dumps(decision.as_dict())
        restored = json.loads(payload)
        assert restored["chosen"]["ordering"] == "original"
        # inf break-evens must land as null, not bare Infinity.
        assert "Infinity" not in payload

    def test_dataset_name_defaults_to_graph_name(self, graph):
        decision = select_ordering(graph, candidates=LIGHT)
        assert decision.dataset == graph.name
        named = select_ordering(
            graph, candidates=LIGHT, dataset="other"
        )
        assert named.dataset == "other"

    def test_validation(self, graph):
        with pytest.raises(InvalidParameterError):
            select_ordering(graph, query_volume=-1)
        with pytest.raises(InvalidParameterError):
            select_ordering(graph, clock_hz=0)
        with pytest.raises(InvalidParameterError):
            select_ordering(graph, candidates=())


class TestAutoOrder:
    def test_valid_permutation(self, graph):
        perm = auto_order(graph, candidates=LIGHT)
        assert_valid_permutation(perm, graph.num_nodes)

    def test_returns_the_chosen_arrangement(self, graph):
        decision = select_ordering(graph, candidates=LIGHT)
        perm = auto_order(graph, candidates=LIGHT)
        expected = compute_ordering(
            decision.chosen.ordering, graph, seed=0
        )
        assert np.array_equal(perm, expected)

    def test_registry_route_matches_direct_call(self, graph):
        via_registry = compute_ordering(
            "auto", graph, seed=0, candidates=LIGHT
        )
        direct = auto_order(graph, seed=0, candidates=LIGHT)
        assert np.array_equal(via_registry, direct)

    def test_unknown_params_dropped(self, graph):
        """The registry's signature filter covers ``auto`` too."""
        perm = compute_ordering(
            "auto", graph, candidates=LIGHT, temperature=0.5, passes=3,
            workers=2,
        )
        assert_valid_permutation(perm, graph.num_nodes)

    def test_registry_lists_auto(self):
        from repro.ordering import ALL_ORDERING_NAMES, ORDERING_NAMES

        assert "auto" in ALL_ORDERING_NAMES
        # Not a paper-headline ordering: stays out of figure sweeps.
        assert "auto" not in ORDERING_NAMES
