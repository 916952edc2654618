"""Tests for the selector: the NQ probe table and its argmin."""

import json

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.graph import generators
from repro.ordering import (
    OrderingConfig,
    amortization_table,
    compute_ordering,
    default_candidates,
    select_ordering,
)
from repro.ordering.select import PROBE
from repro.perf import OrderingCache, simulate

from tests.conftest import assert_valid_permutation


@pytest.fixture(scope="module")
def graph():
    return generators.web_graph(
        300, pages_per_host=20, out_degree=6, seed=17
    )


LIGHT = (
    OrderingConfig("original"),
    OrderingConfig("hubcluster"),
    OrderingConfig("dbg"),
)


class TestDefaultCandidates:
    def test_baseline_first(self):
        assert default_candidates()[0].ordering == "original"

    def test_labels_unique(self):
        labels = [c.label for c in default_candidates()]
        assert len(labels) == len(set(labels))

    def test_contains_one_heavyweight(self):
        # Gorder is the one candidate whose cost needs amortising;
        # the rest are single O(n + m) passes.
        assert [c.ordering for c in default_candidates()] == [
            "original", "hubcluster", "hubsort", "dbg", "boba", "gorder",
        ]

    def test_knobs_reach_gorder_label(self):
        configs = default_candidates(window=7)
        assert configs[-1].label == "gorder[window=7]"
        assert configs[-1].params == (("window", 7),)


class TestSelectOrdering:
    def test_chosen_minimises_amortised_seconds(self, graph):
        decision = select_ordering(graph, candidates=LIGHT)
        volume = decision.query_volume
        best = min(row.amortised_seconds(volume) for row in decision.rows)
        assert decision.chosen.amortised_seconds(volume) == best

    def test_oracle_is_min_probe_cycles(self, graph):
        decision = select_ordering(graph, candidates=LIGHT)
        assert decision.oracle_row.cycles == min(
            row.cycles for row in decision.rows
        )

    def test_baseline_break_even_is_zero(self, graph):
        decision = select_ordering(graph, candidates=LIGHT)
        assert decision.rows[0].ordering == "original"
        assert decision.rows[0].break_even_runs == 0.0

    def test_probe_is_one_nq_run(self, graph):
        decision = select_ordering(graph, candidates=LIGHT)
        for row in decision.rows:
            result = simulate(
                graph, "nq", row.config, cache=OrderingCache()
            )
            assert row.cycles == result.cost.total_cycles
            assert row.stats == result.stats

    def test_zero_volume_picks_cheapest_ordering(self, graph):
        # With no queries to amortise over, ordering cost is the whole
        # bill and the free baseline wins.
        decision = select_ordering(graph, query_volume=0,
                                   candidates=LIGHT)
        assert decision.chosen.ordering == "original"

    def test_heavyweight_probed_at_low_volume(self, graph):
        # No predictor gate: Gorder is measured at every volume and
        # loses on its ordering seconds alone.
        decision = select_ordering(graph, query_volume=1)
        assert decision.rows[-1].ordering == "gorder"
        assert decision.chosen.ordering != "gorder"

    def test_heavyweight_probed_at_high_volume(self, graph):
        decision = select_ordering(graph, query_volume=10**9)
        assert any(row.ordering == "gorder" for row in decision.rows)

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
        assert restored["rows"][0]["amortised_seconds"] == (
            decision.rows[0].amortised_seconds(0)
        )
        # inf break-evens must land as null, not bare Infinity.
        assert "Infinity" not in payload

    def test_dataset_name_defaults_to_graph_name(self, graph):
        decision = select_ordering(graph, candidates=LIGHT)
        assert decision.dataset == graph.name

    def test_validation(self, graph):
        with pytest.raises(InvalidParameterError):
            select_ordering(graph, query_volume=-1)
        with pytest.raises(InvalidParameterError):
            select_ordering(graph, candidates=())


class TestProbeTable:
    """The NQ probe table ``select_ordering`` and ``repro-gorder
    evaluate`` both read."""

    def test_gorder_probe_beats_random(self, graph):
        rows = amortization_table(PROBE, graph, ["random", "gorder"], 1)
        assert rows[1].cycles < rows[0].cycles
        assert rows[1].speedup > 1.0

    def test_ordering_seconds_recorded(self, graph):
        for row in amortization_table(
            PROBE, graph, ["original", "gorder"]
        ):
            assert 0 <= row.ordering_seconds < float("inf")

    def test_stats_populated(self, graph):
        for row in amortization_table(PROBE, graph, LIGHT):
            assert row.stats.l1_refs > graph.num_nodes
            assert 0 <= row.stats.l1_miss_rate <= 1
            assert 0 <= row.stats.cache_miss_rate <= 1


class TestAutoOrder:
    def test_valid_permutation(self, graph):
        perm = compute_ordering("auto", graph, query_volume=0)
        assert_valid_permutation(perm, graph.num_nodes)

    def test_returns_the_chosen_arrangement(self, graph):
        decision = select_ordering(graph, query_volume=10**12)
        perm = compute_ordering("auto", graph, query_volume=10**12)
        assert np.array_equal(perm, decision.chosen.config.compute(graph))

    def test_registry_route_matches_direct_call(self, graph):
        via_registry = compute_ordering(
            "auto", graph, seed=0, query_volume=10**12, window=3
        )
        direct = select_ordering(
            graph,
            query_volume=10**12,
            candidates=default_candidates(window=3),
        ).chosen.perm
        assert np.array_equal(via_registry, direct)

    def test_unknown_params_dropped(self, graph):
        """The registry's signature filter covers ``auto`` too."""
        perm = compute_ordering(
            "auto", graph, query_volume=0, temperature=0.5, passes=3,
            workers=2, clock_hz=1e9, candidates=LIGHT, dataset="x",
        )
        assert_valid_permutation(perm, graph.num_nodes)

    def test_registry_lists_auto(self):
        from repro.ordering import ALL_ORDERING_NAMES, ORDERING_NAMES

        assert "auto" in ALL_ORDERING_NAMES
        # Not a paper-headline ordering: stays out of figure sweeps.
        assert "auto" not in ORDERING_NAMES
