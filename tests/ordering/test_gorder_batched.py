"""Equivalence of the production Gorder kernel with its oracles.

The batched numpy kernel must be *byte-identical* to the literal-loop
reference :func:`gorder_sequence_reference` — both implement the same
state-functional greedy (max key, then smallest node id) — and both
must match the quadratic :func:`gorder_naive` oracle.  These tests
sweep graphs, windows and hub thresholds, plus hypothesis-generated
random graphs, check that telemetry neither changes the sequence nor
the pinned counter totals, and verify the multiprocess partitioned
ordering is worker-count invariant.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro import obs
from repro.errors import InvalidParameterError
from repro.graph import from_edges, generators, invert_permutation
from repro.oracles import gorder_sequence_reference, window_scores_reference
from repro.ordering import (
    gorder_naive,
    gorder_partitioned,
    gorder_sequence,
    window_scores,
)

from tests.conftest import assert_valid_permutation, graph_strategy

WINDOWS = (1, 3, 5, 8)


@pytest.fixture(scope="module")
def graphs():
    """A spread of shapes: social, web, sparse random, plus a path."""
    return [
        generators.social_graph(90, edges_per_node=5, seed=7),
        generators.web_graph(
            80, pages_per_host=16, out_degree=4, seed=3
        ),
        generators.erdos_renyi(60, 240, seed=11),
        from_edges([(i, i + 1) for i in range(19)], num_nodes=20),
    ]


class TestBackendEquivalence:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_batched_matches_loop(self, graphs, window):
        for graph in graphs:
            batched = gorder_sequence(graph, window=window)
            loop = gorder_sequence_reference(graph, window=window)
            assert np.array_equal(batched, loop), graph.name

    @pytest.mark.parametrize("window", WINDOWS)
    def test_batched_matches_naive_oracle(self, window):
        graph = generators.social_graph(40, edges_per_node=4, seed=5)
        batched = gorder_sequence(graph, window=window)
        oracle = invert_permutation(gorder_naive(graph, window=window))
        assert np.array_equal(batched, oracle)

    @pytest.mark.parametrize("hub_threshold", [0, 2, 5])
    def test_hub_threshold_equivalence(self, graphs, hub_threshold):
        for graph in graphs:
            batched = gorder_sequence(graph, hub_threshold=hub_threshold)
            loop = gorder_sequence_reference(
                graph, hub_threshold=hub_threshold
            )
            assert np.array_equal(batched, loop), graph.name

    @settings(max_examples=40, deadline=None)
    @given(graph=graph_strategy())
    def test_property_backends_agree(self, graph):
        for window in (1, 3):
            batched = gorder_sequence(graph, window=window)
            loop = gorder_sequence_reference(graph, window=window)
            assert np.array_equal(batched, loop)
            assert_valid_permutation(
                invert_permutation(batched), graph.num_nodes
            )

    def test_empty_and_single_node(self):
        for kernel in (gorder_sequence, gorder_sequence_reference):
            empty = kernel(from_edges([], num_nodes=0))
            assert empty.size == 0
            single = kernel(from_edges([], num_nodes=1))
            assert single.tolist() == [0]

    def test_unknown_backend_rejected(self, triangle):
        """One kernel: the former ``backend`` knob is not a parameter."""
        with pytest.raises(TypeError, match="backend"):
            gorder_sequence(triangle, backend="loop")

    def test_reference_validates_like_production(self, triangle):
        with pytest.raises(InvalidParameterError):
            gorder_sequence_reference(triangle, window=0)
        with pytest.raises(InvalidParameterError):
            gorder_sequence_reference(triangle, hub_threshold=-1)


class TestTelemetryInvariance:
    """Telemetry on runs the same kernel and publishes fixed totals."""

    #: (nodes, edges_per_node, seed, window, hub_threshold) ->
    #: (heap_pops, priority_updates), pinned from the metered-heap
    #: implementation these counters replaced.
    PINNED = {
        (400, 6, 11, 5, None): (399, 68249),
        (400, 6, 11, 3, 20): (399, 66926),
        (1500, 8, 5, 5, None): (1499, 441550),
    }

    @pytest.mark.parametrize("case", sorted(PINNED, key=str))
    def test_counters_match_pinned(self, case):
        nodes, edges_per_node, seed, window, hub_threshold = case
        graph = generators.social_graph(
            nodes, edges_per_node=edges_per_node, seed=seed
        )
        obs.configure()
        try:
            gorder_sequence(
                graph, window=window, hub_threshold=hub_threshold
            )
            counters = obs.counters()
        finally:
            obs.reset()
        assert (
            counters["gorder.heap_pops"],
            counters["gorder.priority_updates"],
        ) == self.PINNED[case]

    @pytest.mark.parametrize("window", WINDOWS)
    def test_sequence_identical_with_and_without_telemetry(
        self, graphs, window
    ):
        for graph in graphs:
            bare = gorder_sequence(graph, window=window)
            obs.configure()
            try:
                traced = gorder_sequence(graph, window=window)
            finally:
                obs.reset()
            assert np.array_equal(bare, traced), graph.name


class TestPartitionedWorkers:
    def test_workers_validation(self, triangle):
        with pytest.raises(InvalidParameterError):
            gorder_partitioned(triangle, workers=0)

    @pytest.mark.slow
    def test_workers_4_identical_to_workers_1(self):
        """Spawned process pool is a wall-clock detail, never a
        different arrangement."""
        graph = generators.social_graph(600, edges_per_node=6, seed=13)
        serial = gorder_partitioned(graph, num_parts=4, workers=1)
        parallel = gorder_partitioned(graph, num_parts=4, workers=4)
        assert np.array_equal(serial, parallel)
        assert_valid_permutation(parallel, graph.num_nodes)


class TestPartitionedTelemetry:
    """Per-part attribution: stable part= attrs, merged counters."""

    def test_inline_parts_profiled_with_part_attr(self, small_social):
        obs.configure(capture=True)
        try:
            gorder_partitioned(small_social, num_parts=3, workers=1)
            stats = obs.phase_stats()
            assert stats["gorder.partition"].count == 3
            parts = sorted(
                event["attrs"]["part"]
                for event in obs.captured()
                if event["kind"] == "span_end"
                and event["name"] == "gorder.partition"
            )
            assert parts == [0, 1, 2]
        finally:
            obs.reset()

    @pytest.mark.slow
    def test_worker_counters_merge_into_parent(self):
        """workers=2 must leave the same counter totals as workers=1.

        The spawned workers ship their ``gorder.*`` counter deltas
        home; after the merge the parent registry is indistinguishable
        from having run every part inline.
        """
        graph = generators.social_graph(400, edges_per_node=5, seed=3)
        obs.configure()
        try:
            gorder_partitioned(graph, num_parts=3, workers=1)
            inline_counters = obs.counters()
            assert set(inline_counters) == {
                "gorder.heap_pops", "gorder.priority_updates",
            }
            obs.reset()
            obs.configure(capture=True)
            gorder_partitioned(graph, num_parts=3, workers=2)
            assert obs.counters() == inline_counters
            events = [
                event
                for event in obs.captured()
                if event["kind"] == "event"
                and event["name"] == "gorder.partition"
            ]
            assert sorted(
                event["attrs"]["part"] for event in events
            ) == [0, 1, 2]
            for event in events:
                assert event["attrs"]["seconds"] >= 0.0
                assert event["attrs"]["counters"]
        finally:
            obs.reset()


class TestWindowScoresVectorised:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_matches_reference_on_gorder_sequence(self, graphs, window):
        for graph in graphs:
            sequence = gorder_sequence(graph, window=window)
            fast = window_scores(graph, sequence, window)
            oracle = window_scores_reference(graph, sequence, window)
            assert np.array_equal(fast, oracle), graph.name

    @settings(max_examples=40, deadline=None)
    @given(graph=graph_strategy())
    def test_property_matches_reference(self, graph):
        rng = np.random.default_rng(0)
        sequence = rng.permutation(graph.num_nodes).astype(np.int64)
        for window in (1, 4):
            fast = window_scores(graph, sequence, window)
            oracle = window_scores_reference(graph, sequence, window)
            assert np.array_equal(fast, oracle)

    def test_partial_sequence(self):
        """Scoring a prefix (not all nodes placed) stays correct."""
        graph = generators.social_graph(50, edges_per_node=4, seed=2)
        sequence = gorder_sequence(graph)[:20]
        fast = window_scores(graph, sequence, 5)
        oracle = window_scores_reference(graph, sequence, 5)
        assert np.array_equal(fast, oracle)

    def test_window_validation(self, triangle):
        with pytest.raises(InvalidParameterError):
            window_scores(triangle, np.array([0, 1, 2]), window=0)
        with pytest.raises(InvalidParameterError):
            window_scores_reference(
                triangle, np.array([0, 1, 2]), window=0
            )
