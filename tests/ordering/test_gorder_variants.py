"""Tests for the partitioned Gorder variant."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.graph import from_edges, generators
from repro.ordering import (
    gorder_order,
    gorder_partitioned,
    gorder_score,
    partition_nodes,
)

from tests.conftest import assert_valid_permutation


@pytest.fixture(scope="module")
def graph():
    return generators.social_graph(120, edges_per_node=5, seed=31)


class TestPartitioned:
    def test_valid(self, graph):
        assert_valid_permutation(
            gorder_partitioned(graph, num_parts=4), graph.num_nodes
        )

    def test_single_part_close_to_plain_gorder(self, graph):
        single = gorder_partitioned(graph, num_parts=1)
        plain = gorder_order(graph)
        # One partition covers everything; only the bisection-derived
        # node enumeration differs, so the objective is close.
        assert gorder_score(graph, single) == pytest.approx(
            gorder_score(graph, plain), rel=0.2
        )

    def test_more_parts_lower_quality_but_valid(self, graph):
        coarse = gorder_partitioned(graph, num_parts=2)
        fine = gorder_partitioned(graph, num_parts=12)
        assert_valid_permutation(fine, graph.num_nodes)
        assert gorder_score(graph, fine) <= gorder_score(
            graph, coarse
        ) * 1.1

    def test_num_parts_validation(self, graph):
        with pytest.raises(InvalidParameterError):
            gorder_partitioned(graph, num_parts=0)

    def test_empty_graph(self):
        assert gorder_partitioned(
            from_edges([], num_nodes=0)
        ).size == 0

    @pytest.mark.slow
    def test_workers_2_identical_to_workers_1(self, graph):
        """The process pool is a wall-clock detail, never a different
        arrangement."""
        assert np.array_equal(
            gorder_partitioned(graph, num_parts=4, workers=2),
            gorder_partitioned(graph, num_parts=4, workers=1),
        )

    def test_beats_random_on_objective(self, graph):
        from repro.ordering import random_order

        part = gorder_partitioned(graph, num_parts=4)
        rand = random_order(graph, seed=2)
        assert gorder_score(graph, part) > gorder_score(graph, rand)


class TestPartitionNodes:
    def test_covers_all_nodes(self, graph):
        parts = partition_nodes(graph, 5)
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(graph.num_nodes))

    def test_part_count(self, graph):
        assert len(partition_nodes(graph, 5)) == 5

    def test_more_parts_than_nodes(self):
        tiny = from_edges([(0, 1)], num_nodes=2)
        parts = partition_nodes(tiny, 10)
        assert sum(p.shape[0] for p in parts) == 2

    def test_validation(self, graph):
        with pytest.raises(InvalidParameterError):
            partition_nodes(graph, 0)
