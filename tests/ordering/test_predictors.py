"""Tests for the structural reordering-benefit predictors."""

import json

import pytest

from repro.errors import InvalidParameterError
from repro.graph import from_edges, generators
from repro.ordering import (
    compute_predictors,
    diameter_proxy,
    packing_factor,
)


@pytest.fixture()
def tiny_hub():
    """Node 1 is the only hub: in-degrees [1, 3, 0, 0]."""
    return from_edges([(0, 1), (2, 1), (3, 1), (1, 0)])


class TestHandComputedValues:
    def test_tiny_hub_graph(self, tiny_hub):
        predictors = compute_predictors(tiny_hub)
        assert predictors.nodes == 4
        assert predictors.edges == 4
        assert predictors.mean_degree == 1.0
        # Max in-degree 3 over mean degree 1.
        assert predictors.degree_skew == 3.0
        # One hub (node 1) out of four nodes.
        assert predictors.hub_fraction == 0.25
        # 3 of 4 edges target the hub.
        assert predictors.hub_concentration == 0.75
        # A single hub always fits one line.
        assert predictors.packing_factor == 1.0

    def test_diameter_proxy_cycle(self):
        graph = from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        # Double sweep on a directed 4-cycle: eccentricity 3.
        assert diameter_proxy(graph) == 3

    def test_packing_factor_scattered_hubs(self):
        # Two hubs (0 and 31) land on two distinct 16-node lines but
        # would fit one -> factor 2.
        graph = from_edges(
            [(1, 0), (2, 0), (3, 31), (4, 31)], num_nodes=32
        )
        assert packing_factor(graph, line_nodes=16) == 2.0

    def test_packing_factor_packed_hubs(self):
        # Hubs 0 and 1 share a line -> already minimal.
        graph = from_edges(
            [(2, 0), (3, 0), (4, 1), (5, 1)], num_nodes=32
        )
        assert packing_factor(graph, line_nodes=16) == 1.0

    def test_packing_factor_validation(self, tiny_hub):
        with pytest.raises(InvalidParameterError):
            packing_factor(tiny_hub, line_nodes=0)


class TestNeutralValues:
    def test_empty_graph(self):
        predictors = compute_predictors(from_edges([], num_nodes=0))
        assert predictors.degree_skew == 1.0
        assert predictors.hub_concentration == 0.0
        assert predictors.packing_factor == 1.0
        assert predictors.diameter_proxy == 0

    def test_edgeless_graph(self):
        predictors = compute_predictors(from_edges([], num_nodes=7))
        assert predictors.nodes == 7
        assert predictors.edges == 0
        assert predictors.mean_degree == 0.0
        assert predictors.degree_skew == 1.0

    def test_regular_graph_has_no_hubs(self):
        predictors = compute_predictors(generators.ring(12))
        assert predictors.hub_fraction == 0.0
        assert predictors.hub_concentration == 0.0
        assert predictors.packing_factor == 1.0


class TestSerialisation:
    def test_as_dict_round_trips_json(self, tiny_hub):
        payload = compute_predictors(tiny_hub).as_dict()
        restored = json.loads(json.dumps(payload))
        assert restored["degree_skew"] == 3.0
        assert set(restored) == {
            "nodes", "edges", "mean_degree", "degree_skew",
            "hub_fraction", "hub_concentration", "packing_factor",
            "diameter_proxy",
        }


class TestAcceptanceDatasets:
    def test_skewed_graph_concentrates_on_hubs(self):
        # Hub concentration tracks measured Gorder speedup best over
        # the dataset registry (EXPERIMENTS.md); a ring has no hubs.
        skewed = compute_predictors(
            generators.web_graph(400, pages_per_host=20, out_degree=6, seed=5)
        )
        regular = compute_predictors(generators.ring(400))
        assert skewed.hub_concentration > regular.hub_concentration
        assert skewed.degree_skew > regular.degree_skew

    def test_predictors_deterministic(self):
        graph = generators.social_graph(200, edges_per_node=5, seed=3)
        assert compute_predictors(graph) == compute_predictors(graph)
