"""Tests for the lightweight follow-on reorderings."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.graph import from_edges, generators
from repro.ordering import (
    dbg_order,
    hubcluster_order,
    hubsort_order,
    indegsort_order,
)

from tests.conftest import assert_valid_permutation


@pytest.fixture(scope="module")
def skewed():
    return generators.web_graph(
        500, pages_per_host=25, out_degree=8, seed=13
    )


class TestHubSort:
    def test_valid(self, skewed):
        assert_valid_permutation(
            hubsort_order(skewed), skewed.num_nodes
        )

    def test_hubs_before_cold(self, skewed):
        perm = hubsort_order(skewed)
        degrees = skewed.in_degrees()
        hubs = degrees > degrees.mean()
        assert int(perm[hubs].max()) < int(perm[~hubs].min())

    def test_hubs_sorted_by_degree(self, skewed):
        perm = hubsort_order(skewed)
        degrees = skewed.in_degrees()
        hubs = np.flatnonzero(degrees > degrees.mean())
        hub_by_position = hubs[np.argsort(perm[hubs])]
        hub_degrees = degrees[hub_by_position]
        assert np.all(np.diff(hub_degrees) <= 0)

    def test_cold_tail_keeps_original_order(self, skewed):
        perm = hubsort_order(skewed)
        degrees = skewed.in_degrees()
        cold = np.flatnonzero(degrees <= degrees.mean())
        assert np.all(np.diff(perm[cold]) > 0)

    def test_star_hub_first(self):
        graph = generators.star(10)
        assert hubsort_order(graph)[0] == 0

    def test_empty_graph(self):
        graph = from_edges([], num_nodes=0)
        assert hubsort_order(graph).shape == (0,)


class TestHubCluster:
    def test_valid(self, skewed):
        assert_valid_permutation(
            hubcluster_order(skewed), skewed.num_nodes
        )

    def test_hubs_keep_relative_order(self, skewed):
        perm = hubcluster_order(skewed)
        degrees = skewed.in_degrees()
        hubs = np.flatnonzero(degrees > degrees.mean())
        assert np.all(np.diff(perm[hubs]) > 0)

    def test_hubs_before_cold(self, skewed):
        perm = hubcluster_order(skewed)
        degrees = skewed.in_degrees()
        hub_mask = degrees > degrees.mean()
        assert int(perm[hub_mask].max()) < int(perm[~hub_mask].min())

    def test_all_same_degree_is_identity(self):
        graph = generators.ring(12)
        perm = hubcluster_order(graph)
        # No node exceeds the mean degree, so nothing is a hub and the
        # order is untouched.
        assert np.array_equal(perm, np.arange(12))


class TestDBG:
    def test_valid(self, skewed):
        assert_valid_permutation(dbg_order(skewed), skewed.num_nodes)

    def test_classes_descend(self, skewed):
        perm = dbg_order(skewed)
        degrees = skewed.in_degrees()
        classes = np.minimum(
            np.floor(np.log2(degrees + 1)).astype(np.int64), 7
        )
        class_by_position = np.empty(skewed.num_nodes, dtype=np.int64)
        class_by_position[perm] = classes
        assert np.all(np.diff(class_by_position) <= 0)

    def test_within_class_original_order(self, skewed):
        perm = dbg_order(skewed)
        degrees = skewed.in_degrees()
        classes = np.minimum(
            np.floor(np.log2(degrees + 1)).astype(np.int64), 7
        )
        for value in np.unique(classes):
            members = np.flatnonzero(classes == value)
            assert np.all(np.diff(perm[members]) > 0)

    def test_coarser_than_indegsort(self, skewed):
        """DBG preserves more of the original order than a full sort:
        it never reorders within a class, whereas InDegSort does."""
        dbg_perm = dbg_order(skewed)
        full_sort = indegsort_order(skewed)
        identity = np.arange(skewed.num_nodes)
        dbg_moved = int(np.abs(dbg_perm - identity).sum())
        sort_moved = int(np.abs(full_sort - identity).sum())
        assert dbg_moved <= sort_moved

    def test_num_groups_validation(self, skewed):
        with pytest.raises(InvalidParameterError):
            dbg_order(skewed, num_groups=0)

    def test_single_group_is_identity(self, skewed):
        perm = dbg_order(skewed, num_groups=1)
        assert np.array_equal(perm, np.arange(skewed.num_nodes))


class TestDBGClasses:
    """Integer degree-class computation (regression for the float
    ``np.log2`` cast, which mis-rounds near power-of-two degrees)."""

    def test_matches_reference_oracle(self):
        from repro.ordering import dbg_classes, dbg_classes_reference

        rng = np.random.default_rng(3)
        degrees = rng.integers(0, 10_000, size=400)
        assert dbg_classes(degrees, 8).tolist() == (
            dbg_classes_reference(degrees, 8)
        )

    def test_class_boundaries_exact(self):
        from repro.ordering import dbg_classes

        # Class k covers degrees [2^k - 1, 2^(k+1) - 1).
        degrees = np.array([0, 1, 2, 3, 6, 7, 14, 15])
        assert dbg_classes(degrees, 8).tolist() == [
            0, 1, 1, 2, 2, 3, 3, 4
        ]

    def test_large_degree_precision(self):
        """float64 rounds 2**54 - 1 up to 2**54, so the old
        ``np.floor(np.log2(d + 1))`` put degree 2**54 - 2 in class 54;
        its true class is 53."""
        from repro.ordering import dbg_classes, dbg_classes_reference

        degrees = np.array([2**54 - 2], dtype=np.int64)
        assert dbg_classes(degrees, 64).tolist() == [53]
        assert dbg_classes_reference(degrees, 64) == [53]

    def test_monotone_in_degree(self):
        from repro.ordering import dbg_classes

        rng = np.random.default_rng(7)
        degrees = np.sort(rng.integers(0, 2**62, size=300))
        classes = dbg_classes(degrees, 64)
        assert np.all(np.diff(classes) >= 0)

    def test_capped_at_num_groups(self):
        from repro.ordering import dbg_classes

        degrees = np.array([0, 2**40, 2**62])
        assert dbg_classes(degrees, 4).tolist() == [0, 3, 3]

    def test_num_groups_validation(self):
        from repro.ordering import dbg_classes, dbg_classes_reference
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            dbg_classes(np.array([1]), 0)
        with pytest.raises(InvalidParameterError):
            dbg_classes_reference(np.array([1]), 0)

    def test_order_uses_integer_classes(self, skewed):
        """dbg_order groups exactly by the integer classes."""
        from repro.ordering import dbg_classes

        perm = dbg_order(skewed)
        classes = dbg_classes(skewed.in_degrees(), 8)
        by_position = np.empty(skewed.num_nodes, dtype=np.int64)
        by_position[perm] = classes
        assert np.all(np.diff(by_position) <= 0)


class TestRegularGraphs:
    """Hub-based orderings are well-defined with zero hubs."""

    def test_hubsort_identity_on_ring(self):
        graph = generators.ring(16)
        assert np.array_equal(hubsort_order(graph), np.arange(16))

    def test_hubcluster_identity_on_ring(self):
        graph = generators.ring(16)
        assert np.array_equal(hubcluster_order(graph), np.arange(16))

    def test_dbg_single_class_on_ring(self):
        graph = generators.ring(16)
        assert np.array_equal(dbg_order(graph), np.arange(16))


class TestBoba:
    """BOBA-style first-touch ordering: parallel block-based packing."""

    @staticmethod
    def _first_touch_oracle(graph):
        """Pure-python single-pass first-touch over the edge stream."""
        sources, targets = graph.edge_array()
        seen = {}
        for s, t in zip(sources, targets):
            for v in (int(s), int(t)):
                if v not in seen:
                    seen[v] = len(seen)
        perm = np.empty(graph.num_nodes, dtype=np.int64)
        tail = len(seen)
        for v in range(graph.num_nodes):
            if v in seen:
                perm[v] = seen[v]
            else:
                perm[v] = tail
                tail += 1
        return perm

    def test_valid(self, skewed):
        from repro.ordering import boba_order

        assert_valid_permutation(
            boba_order(skewed), skewed.num_nodes
        )

    def test_matches_single_pass_oracle(self, skewed):
        from repro.ordering import boba_order

        expected = self._first_touch_oracle(skewed)
        assert np.array_equal(boba_order(skewed), expected)

    def test_seed_ignored(self, skewed):
        from repro.ordering import boba_order

        assert np.array_equal(
            boba_order(skewed, seed=0), boba_order(skewed, seed=99)
        )

    def test_untouched_nodes_fill_tail_in_id_order(self):
        from repro.ordering import boba_order

        graph = from_edges([(3, 1)], num_nodes=6)
        perm = boba_order(graph)
        # Stream touches 3 then 1; isolated 0, 2, 4, 5 follow in order.
        assert perm.tolist() == [2, 1, 3, 0, 4, 5]

    def test_empty_graph(self):
        from repro.ordering import boba_order

        graph = from_edges([], num_nodes=0)
        assert boba_order(graph).shape == (0,)

    def test_validation(self, skewed):
        """A single pass: the chunking and pool knobs are gone."""
        from repro.ordering import boba_order

        with pytest.raises(TypeError):
            boba_order(skewed, num_parts=4)
        with pytest.raises(TypeError):
            boba_order(skewed, workers=2)
