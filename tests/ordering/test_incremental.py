"""Tests for the incremental Gorder extension."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError, InvalidPermutationError
from repro.graph import from_arrays, from_edges, generators
from repro.ordering import (
    append_identity,
    gorder_extend,
    gorder_order,
    gorder_score,
)
from repro.ordering.unit_heap import UnitHeap

from tests.conftest import assert_valid_permutation


class CountingHeap(UnitHeap):
    """A :class:`UnitHeap` that records the operations issued to it.

    Every instance is appended to :attr:`created`, so a test that
    patches it into :mod:`repro.ordering.incremental` can inspect the
    heap the extension built.
    """

    created: list = []

    def __init__(self, num_items, candidates=None):
        super().__init__(num_items, candidates=candidates)
        self.updates = 0
        self.removes = 0
        self.popped = []
        CountingHeap.created.append(self)

    def increase(self, item):
        self.updates += 1
        super().increase(item)

    def decrease(self, item):
        self.updates += 1
        super().decrease(item)

    def remove(self, item):
        self.removes += 1
        super().remove(item)

    def pop_max(self):
        item = super().pop_max()
        self.popped.append(item)
        return item


@pytest.fixture
def counting_heap(monkeypatch):
    """Patch :class:`CountingHeap` into the incremental extension;
    returns the list of heaps it creates."""
    from repro.ordering import incremental

    created = []
    monkeypatch.setattr(CountingHeap, "created", created)
    monkeypatch.setattr(incremental, "UnitHeap", CountingHeap)
    return created


def grow(base, extra_nodes, seed=5):
    """Add ``extra_nodes`` new nodes, each linking into the old graph
    and to the previous new node."""
    rng = np.random.default_rng(seed)
    sources, targets = base.edge_array()
    new_sources = []
    new_targets = []
    n_old = base.num_nodes
    for i in range(extra_nodes):
        u = n_old + i
        for _ in range(4):
            new_sources.append(u)
            new_targets.append(int(rng.integers(0, n_old)))
        if i:
            new_sources.append(u)
            new_targets.append(u - 1)
    return from_arrays(
        np.concatenate([sources, np.array(new_sources, dtype=np.int64)]),
        np.concatenate([targets, np.array(new_targets, dtype=np.int64)]),
        num_nodes=n_old + extra_nodes,
        name="grown",
    )


@pytest.fixture(scope="module")
def evolved():
    base = generators.social_graph(100, edges_per_node=5, seed=2)
    base_perm = gorder_order(base)
    return base, base_perm, grow(base, 30)


class TestGorderExtend:
    def test_valid_permutation(self, evolved):
        base, base_perm, grown = evolved
        perm = gorder_extend(grown, base_perm)
        assert_valid_permutation(perm, grown.num_nodes)

    def test_old_positions_preserved(self, evolved):
        base, base_perm, grown = evolved
        perm = gorder_extend(grown, base_perm)
        assert np.array_equal(perm[:base.num_nodes], base_perm)

    def test_new_nodes_fill_tail(self, evolved):
        base, base_perm, grown = evolved
        perm = gorder_extend(grown, base_perm)
        new_positions = sorted(
            int(perm[u]) for u in range(base.num_nodes, grown.num_nodes)
        )
        assert new_positions == list(
            range(base.num_nodes, grown.num_nodes)
        )

    def test_beats_identity_append_on_objective(self, evolved):
        base, base_perm, grown = evolved
        extended = gorder_extend(grown, base_perm)
        naive = append_identity(base_perm, grown.num_nodes)
        assert gorder_score(grown, extended) >= gorder_score(
            grown, naive
        )

    def test_no_new_nodes_is_identity(self, evolved):
        base, base_perm, _ = evolved
        perm = gorder_extend(base, base_perm)
        assert np.array_equal(perm, base_perm)

    def test_empty_base(self):
        graph = from_edges([(0, 1), (1, 2), (2, 0)])
        perm = gorder_extend(graph, np.zeros(0, dtype=np.int64))
        assert_valid_permutation(perm, 3)

    def test_window_validation(self, evolved):
        base, base_perm, grown = evolved
        with pytest.raises(InvalidParameterError):
            gorder_extend(grown, base_perm, window=0)

    def test_oversized_base_rejected(self):
        graph = from_edges([(0, 1)])
        with pytest.raises(InvalidPermutationError):
            gorder_extend(graph, np.arange(5))

    def test_invalid_base_rejected(self, evolved):
        _, _, grown = evolved
        with pytest.raises(InvalidPermutationError):
            gorder_extend(grown, np.zeros(10, dtype=np.int64))


class TestExtendLazyExclusion:
    """Regression tests for the old-node exclusion strategy.

    The original implementation excluded already-placed nodes by
    seeding a full heap and removing them one by one — an O(n) loop
    whose cost grew with the base graph, not the batch.  The fix makes
    exclusion lazy (a candidate mask at heap construction) and skips
    score events aimed at old nodes outright.
    """

    def test_no_scalar_removes(self, evolved, counting_heap):
        """Pre-fix code issued one heap.remove per old node."""
        base, base_perm, grown = evolved
        gorder_extend(grown, base_perm)
        (heap,) = counting_heap
        assert heap.removes == 0

    def test_only_new_nodes_popped(self, evolved, counting_heap):
        base, base_perm, grown = evolved
        gorder_extend(grown, base_perm)
        (heap,) = counting_heap
        assert len(heap.popped) == grown.num_nodes - base.num_nodes
        assert min(heap.popped) >= base.num_nodes

    def test_cost_scales_with_batch_not_graph(self, counting_heap):
        """The same batch appended to a 10x larger base must not cost
        10x more heap operations: extension work is proportional to
        the new nodes' neighbourhoods."""

        def operations(base_nodes):
            base = generators.social_graph(
                base_nodes, edges_per_node=4, seed=6
            )
            base_perm = gorder_order(base)
            grown = grow(base, 20, seed=9)
            gorder_extend(grown, base_perm)
            heap = counting_heap[-1]
            return heap.updates + len(heap.popped) + heap.removes

        small = operations(120)
        large = operations(1200)
        # Pre-fix, `large` carried ~1200 extra removes and the ratio
        # blew past 2; batch-proportional cost keeps it near 1.
        assert large <= 2 * small


class TestAppendIdentity:
    def test_simple(self):
        base = np.array([1, 0], dtype=np.int64)
        perm = append_identity(base, 4)
        assert perm.tolist() == [1, 0, 2, 3]

    def test_oversized_base_rejected(self):
        with pytest.raises(InvalidPermutationError):
            append_identity(np.arange(5), 3)


class TestExtendGreedyInvariant:
    def test_each_new_placement_is_argmax(self):
        """The incremental extension obeys the same greedy invariant
        as full Gorder: each new node placed maximises the window
        score among remaining new candidates."""
        import numpy as np

        from repro.graph import from_arrays, invert_permutation
        from repro.ordering.metrics import pair_score

        base = generators.social_graph(30, edges_per_node=3, seed=8)
        base_perm = gorder_order(base)
        grown = grow(base, 8, seed=3)
        window = 4
        perm = gorder_extend(grown, base_perm, window=window)

        n_old = base.num_nodes
        sequence = invert_permutation(perm)
        placed = [int(u) for u in sequence[:n_old]]
        remaining = set(range(n_old, grown.num_nodes))
        for position in range(n_old, grown.num_nodes):
            window_nodes = placed[-window:]
            chosen = int(sequence[position])

            def score(v):
                return sum(
                    pair_score(grown, u, v) for u in window_nodes
                )

            assert score(chosen) == max(score(v) for v in remaining)
            placed.append(chosen)
            remaining.discard(chosen)
