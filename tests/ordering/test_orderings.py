"""Tests common to every ordering plus method-specific behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnknownOrderingError
from repro.graph import from_edges, generators, invert_permutation
from repro.ordering import (
    ORDERING_NAMES,
    REGISTRY,
    bandwidth,
    bisection_order,
    chdfs_order,
    compute_ordering,
    indegsort_order,
    ldg_order,
    original_order,
    random_order,
    rcm_order,
    slashburn_order,
    spec,
)

from tests.conftest import assert_valid_permutation, graph_strategy


class TestRegistry:
    def test_ten_headline_orderings(self):
        assert len(ORDERING_NAMES) == 10

    def test_figure_order(self):
        assert ORDERING_NAMES[0] == "original"
        assert ORDERING_NAMES[-1] == "gorder"

    def test_unknown_name(self):
        with pytest.raises(UnknownOrderingError, match="nosuch"):
            compute_ordering("nosuch", from_edges([(0, 1)]))

    def test_case_insensitive_lookup(self):
        assert spec("Gorder").name == "gorder"

    def test_bisect_is_extension_not_headline(self):
        assert "bisect" in REGISTRY
        assert "bisect" not in ORDERING_NAMES


class TestAllOrderingsAreValidPermutations:
    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_on_social_graph(self, small_social, name):
        perm = compute_ordering(name, small_social, seed=3)
        assert_valid_permutation(perm, small_social.num_nodes)

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_on_web_graph(self, small_web, name):
        perm = compute_ordering(name, small_web, seed=3)
        assert_valid_permutation(perm, small_web.num_nodes)

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_on_graph_with_isolated_nodes(self, name):
        graph = from_edges([(0, 1), (1, 0)], num_nodes=6)
        perm = compute_ordering(name, graph, seed=3)
        assert_valid_permutation(perm, 6)

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_on_edgeless_graph(self, name):
        graph = from_edges([], num_nodes=4)
        perm = compute_ordering(name, graph, seed=3)
        assert_valid_permutation(perm, 4)

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_on_single_node(self, name):
        graph = from_edges([], num_nodes=1)
        perm = compute_ordering(name, graph, seed=3)
        assert_valid_permutation(perm, 1)

    @settings(max_examples=15, deadline=None)
    @given(graph_strategy())
    def test_property_all_orderings(self, graph):
        for name in REGISTRY:
            perm = compute_ordering(name, graph, seed=1)
            assert_valid_permutation(perm, graph.num_nodes)


class TestDeterminism:
    @pytest.mark.parametrize(
        "name",
        [n for n in REGISTRY if REGISTRY[n].deterministic],
    )
    def test_deterministic_orderings_ignore_seed(self, small_web, name):
        a = compute_ordering(name, small_web, seed=1)
        b = compute_ordering(name, small_web, seed=99)
        assert np.array_equal(a, b)

    def test_random_ordering_depends_on_seed(self, small_web):
        a = random_order(small_web, seed=1)
        b = random_order(small_web, seed=2)
        assert not np.array_equal(a, b)

    def test_random_ordering_reproducible(self, small_web):
        assert np.array_equal(
            random_order(small_web, seed=5), random_order(small_web, seed=5)
        )


class TestOriginal:
    def test_identity(self, small_social):
        perm = original_order(small_social)
        assert np.array_equal(perm, np.arange(small_social.num_nodes))


class TestInDegSort:
    def test_descending_in_degree(self, small_web):
        perm = indegsort_order(small_web)
        in_degrees = small_web.in_degrees()
        by_position = np.empty(small_web.num_nodes, dtype=np.int64)
        by_position[perm] = in_degrees
        assert np.all(np.diff(by_position) <= 0)

    def test_stable_ties(self):
        graph = from_edges([], num_nodes=5)  # all degrees zero
        perm = indegsort_order(graph)
        assert perm.tolist() == [0, 1, 2, 3, 4]


class TestChDFS:
    def test_follows_dfs_preorder(self):
        # 0 -> 1, 0 -> 2, 1 -> 3: stack discipline pops 1 before 2,
        # and 3 is pushed while 2 waits.
        graph = from_edges([(0, 1), (0, 2), (1, 3)])
        perm = chdfs_order(graph)
        # visit order: 0, 1, 3, 2
        assert perm.tolist() == [0, 1, 3, 2]

    def test_covers_disconnected(self, two_components):
        perm = chdfs_order(two_components)
        assert_valid_permutation(perm, 6)


class TestRCM:
    def test_reduces_grid_bandwidth(self):
        grid = generators.grid(12, 12)
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(grid.num_nodes).astype(np.int64)
        assert bandwidth(grid, rcm_order(grid)) < bandwidth(
            grid, shuffled
        )

    def test_matches_scipy_on_grid(self):
        import scipy.sparse as sp
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        grid = generators.grid(8, 8)
        sources, targets = grid.edge_array()
        matrix = sp.csr_matrix(
            (np.ones(sources.shape[0]), (sources, targets)),
            shape=(grid.num_nodes, grid.num_nodes),
        )
        sequence = reverse_cuthill_mckee(matrix, symmetric_mode=True)
        perm = np.empty(grid.num_nodes, dtype=np.int64)
        perm[sequence] = np.arange(grid.num_nodes)
        ours = bandwidth(grid, rcm_order(grid))
        scipys = bandwidth(grid, perm)
        # Both should land in the same ballpark (tie-breaks differ).
        assert ours <= 2 * scipys


class TestSlashBurn:
    def test_hub_goes_first(self):
        graph = generators.star(10)
        perm = slashburn_order(graph)
        assert perm[0] == 0  # the hub takes position 0

    def test_isolated_nodes_go_last(self):
        graph = from_edges([(0, 1), (1, 0)], num_nodes=5)
        perm = slashburn_order(graph)
        # Nodes 2, 3, 4 are isolated; they occupy the tail.
        assert sorted(int(perm[u]) for u in (2, 3, 4)) == [2, 3, 4]

    def test_star_leaves_burned_to_tail(self):
        graph = generators.star(6)
        perm = slashburn_order(graph)
        leaf_positions = sorted(int(perm[u]) for u in range(1, 7))
        assert leaf_positions == [1, 2, 3, 4, 5, 6]


def ldg_scan_sequence(graph, bin_size):
    """LDG with the emptiest bin found by ``np.argmin`` over every bin
    per node, the scan the incremental heap replaced."""
    undirected = graph.undirected()
    num_bins = -(-undirected.num_nodes // bin_size)
    bins = [[] for _ in range(num_bins)]
    sizes = np.zeros(num_bins, dtype=np.int64)
    bin_of = np.full(undirected.num_nodes, -1, dtype=np.int64)
    for u in range(undirected.num_nodes):
        placed = bin_of[undirected.out_neighbors(u)]
        counts = {}
        for b in placed[placed >= 0].tolist():
            counts[b] = counts.get(b, 0) + 1
        scores = {
            b: (1.0 + shared) * (1.0 - sizes[b] / bin_size)
            for b, shared in counts.items()
            if sizes[b] < bin_size
        }
        emptiest = int(np.argmin(sizes))
        scores.setdefault(emptiest, 1.0 - sizes[emptiest] / bin_size)
        best = max(scores.values())
        # First maximal neighbour bin in neighbour order; the emptiest
        # bin only when it scores strictly higher.
        best_bin = next(b for b, score in scores.items() if score == best)
        bins[best_bin].append(u)
        sizes[best_bin] += 1
        bin_of[u] = best_bin
    return [u for members in bins for u in members]


class TestLDG:
    @settings(max_examples=60, deadline=None)
    @given(
        graph=graph_strategy(max_nodes=24, max_edges=60),
        bin_size=st.integers(min_value=1, max_value=6),
    )
    def test_matches_the_argmin_scan(self, graph, bin_size):
        sequence = invert_permutation(ldg_order(graph, bin_size=bin_size))
        assert sequence.tolist() == ldg_scan_sequence(graph, bin_size)

    def test_bin_size_validation(self, small_web):
        with pytest.raises(Exception):
            ldg_order(small_web, bin_size=0)

    def test_neighbors_gravitate_to_same_bin(self):
        # Two cliques of 4 should each fit one bin of size 4.
        edges = []
        for block in (0, 4):
            for u in range(block, block + 4):
                for v in range(block, block + 4):
                    if u != v:
                        edges.append((u, v))
        graph = from_edges(edges)
        perm = ldg_order(graph, bin_size=4)
        bins = {int(perm[u]) // 4 for u in range(4)}
        assert len(bins) == 1  # first clique in one bin
        bins = {int(perm[u]) // 4 for u in range(4, 8)}
        assert len(bins) == 1


class TestBisect:
    def test_leaf_size_validation(self, small_web):
        with pytest.raises(Exception):
            bisection_order(small_web, leaf_size=0)

    def test_halves_are_contiguous(self):
        # Two cliques joined by one edge: bisection should keep each
        # clique inside one contiguous half.
        edges = []
        for block in (0, 8):
            for u in range(block, block + 8):
                for v in range(block, block + 8):
                    if u != v:
                        edges.append((u, v))
        edges.append((0, 8))
        graph = from_edges(edges)
        perm = bisection_order(graph, leaf_size=8)
        first_half = {u for u in range(16) if perm[u] < 8}
        assert first_half in ({*range(8)}, {*range(8, 16)})
