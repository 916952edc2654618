"""Unit and model-based property tests for the unit heap."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.ordering import UnitHeap


class TestBasics:
    def test_initial_state(self):
        heap = UnitHeap(3)
        assert len(heap) == 3
        assert all(i in heap for i in range(3))
        assert heap.key_of(1) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            UnitHeap(-1)

    def test_empty_heap(self):
        heap = UnitHeap(0)
        assert len(heap) == 0
        with pytest.raises(IndexError):
            heap.pop_max()
        with pytest.raises(IndexError):
            heap.peek_max_key()

    def test_increase_and_pop(self):
        heap = UnitHeap(3)
        heap.increase(1)
        heap.increase(1)
        heap.increase(2)
        assert heap.peek_max_key() == 2
        assert heap.pop_max() == 1
        assert heap.pop_max() == 2
        assert heap.pop_max() == 0
        assert len(heap) == 0

    def test_decrease(self):
        heap = UnitHeap(2)
        heap.increase(0)
        heap.increase(0)
        heap.decrease(0)
        heap.increase(1)
        # Both at key 1; FIFO tie-break: 0 reached key 1 first... but 0
        # re-entered bucket 1 after the decrease, so 1 may come first.
        # Only the key value is part of the contract.
        assert heap.key_of(0) == 1
        assert heap.key_of(1) == 1

    def test_updates_after_removal_ignored(self):
        heap = UnitHeap(2)
        heap.remove(0)
        heap.increase(0)
        heap.decrease(0)
        assert 0 not in heap
        assert heap.pop_max() == 1

    def test_popped_item_not_resurrected(self):
        heap = UnitHeap(2)
        heap.increase(0)
        assert heap.pop_max() == 0
        heap.increase(0)
        assert heap.pop_max() == 1

    def test_remove_is_idempotent(self):
        heap = UnitHeap(2)
        heap.remove(1)
        heap.remove(1)
        assert len(heap) == 1

    def test_max_key_recovers_after_pops(self):
        heap = UnitHeap(3)
        for _ in range(5):
            heap.increase(0)
        heap.increase(1)
        assert heap.pop_max() == 0
        assert heap.peek_max_key() == 1
        assert heap.pop_max() == 1


@st.composite
def operation_sequences(draw):
    size = draw(st.integers(1, 8))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["inc", "dec", "pop", "remove"]),
                st.integers(0, size - 1),
            ),
            max_size=60,
        )
    )
    return size, ops


class TestModelBased:
    @given(operation_sequences())
    def test_matches_reference_model(self, case):
        """Replay random operations against a dict-based reference."""
        size, ops = case
        heap = UnitHeap(size)
        model: dict[int, int] = {i: 0 for i in range(size)}
        for op, item in ops:
            if op == "inc":
                heap.increase(item)
                if item in model:
                    model[item] += 1
            elif op == "dec":
                heap.decrease(item)
                if item in model:
                    model[item] -= 1
            elif op == "remove":
                heap.remove(item)
                model.pop(item, None)
            elif op == "pop" and model:
                popped = heap.pop_max()
                max_key = max(model.values())
                assert model[popped] == max_key
                del model[popped]
            assert len(heap) == len(model)
            for node, key in model.items():
                assert heap.key_of(node) == key


class TestGorderUsagePattern:
    def test_window_slide_pattern(self):
        """Exercise the exact usage Gorder makes: bursts of increases
        when a node enters the window, matching decreases when it
        leaves, pops in between — keys must never go negative and the
        heap must drain completely."""
        import numpy as np

        rng = np.random.default_rng(5)
        n = 60
        heap = UnitHeap(n)
        window: list[list[int]] = []
        placed = []
        heap.remove(0)
        placed.append(0)
        for step in range(1, n):
            burst = [
                int(rng.integers(0, n)) for _ in range(6)
            ]
            for item in burst:
                heap.increase(item)
            window.append(burst)
            if len(window) > 5:
                for item in window.pop(0):
                    heap.decrease(item)
            chosen = heap.pop_max()
            placed.append(chosen)
        assert sorted(placed) == list(range(n))
        assert len(heap) == 0

    def test_interleaved_increase_decrease_never_corrupts(self):
        heap = UnitHeap(10)
        for _ in range(200):
            heap.increase(3)
            heap.increase(3)
            heap.decrease(3)
        assert heap.key_of(3) == 200
        assert heap.pop_max() == 3


class TestBatchUpdates:
    """The array-wise entry points must be indistinguishable from the
    equivalent scalar call sequences (pop order is a pure function of
    keys and presence, so equal keys mean equal behaviour)."""

    @staticmethod
    def _drain(heap):
        return [heap.pop_max() for _ in range(len(heap))]

    def test_increase_batch_equals_scalar(self):
        scalar, batched = UnitHeap(6), UnitHeap(6)
        items = [3, 1, 3, 5, 3, 1]
        for item in items:
            scalar.increase(item)
        batched.increase_batch(np.array(items))
        assert self._drain(scalar) == self._drain(batched)

    def test_decrease_batch_equals_scalar(self):
        scalar, batched = UnitHeap(4), UnitHeap(4)
        for heap in (scalar, batched):
            heap.increase_batch(np.array([0, 0, 1, 1, 2]))
        scalar.decrease(0)
        scalar.decrease(1)
        batched.decrease_batch(np.array([0, 1]))
        assert self._drain(scalar) == self._drain(batched)

    def test_counts_path_equals_repeats(self):
        repeated, counted = UnitHeap(5), UnitHeap(5)
        repeated.increase_batch(np.array([2, 2, 2, 4, 4]))
        counted.increase_batch(
            np.array([2, 4]), counts=np.array([3, 2])
        )
        assert repeated.key_of(2) == counted.key_of(2) == 3
        assert self._drain(repeated) == self._drain(counted)

    def test_apply_step_equals_two_phase(self):
        """One fused enter+exit step == increase_batch; decrease_batch."""
        rng = np.random.default_rng(7)
        initial = rng.integers(0, 20, size=50)
        fused, phased = UnitHeap(20), UnitHeap(20)
        for heap in (fused, phased):
            heap.increase_batch(initial)
        enter = rng.integers(0, 20, size=12)
        exit_ = rng.integers(0, 20, size=12)
        fused.apply_step(enter, exit_)
        phased.increase_batch(enter)
        phased.decrease_batch(exit_)
        assert self._drain(fused) == self._drain(phased)

    def test_apply_step_skips_absent_items(self):
        heap = UnitHeap(4)
        heap.remove(2)
        heap.apply_step(np.array([2, 2, 1]), np.array([2]))
        assert 2 not in heap
        assert heap.key_of(1) == 1
        assert self._drain(heap) == [1, 0, 3]

    def test_empty_batches_are_noops(self):
        heap = UnitHeap(3)
        heap.increase_batch(np.array([], dtype=np.int64))
        assert heap.apply_step(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        ) == 0
        assert self._drain(heap) == [0, 1, 2]

    def test_min_id_tie_break(self):
        heap = UnitHeap(8)
        heap.increase_batch(np.array([6, 2, 4]))
        assert heap.pop_max() == 2
        assert heap.pop_max() == 4
        assert heap.pop_max() == 6
        assert heap.pop_max() == 0

    def test_batch_validation(self):
        heap = UnitHeap(3)
        with pytest.raises(InvalidParameterError):
            heap.increase_batch(np.array([0.5, 1.0]))
        with pytest.raises(InvalidParameterError):
            heap.increase_batch(np.array([[0, 1]]))
        with pytest.raises(InvalidParameterError):
            heap.increase_batch(
                np.array([0, 1]), counts=np.array([1])
            )
        with pytest.raises(InvalidParameterError):
            heap.increase_batch(
                np.array([0, 1]), counts=np.array([1, -1])
            )

    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            max_size=30,
        )
    )
    def test_property_random_steps_match_scalar_model(self, steps):
        """Random fused steps against the dict model (present items)."""
        fused = UnitHeap(8)
        model = {i: 0 for i in range(8)}
        for enter_item, exit_item in steps:
            fused.apply_step(
                np.array([enter_item]), np.array([exit_item])
            )
            if enter_item in model:
                model[enter_item] += 1
            if exit_item in model:
                model[exit_item] -= 1
        while model:
            popped = fused.pop_max()
            max_key = max(model.values())
            candidates = [
                item for item, key in model.items() if key == max_key
            ]
            assert popped == min(candidates)
            del model[popped]


class TestMeteredBatches:
    """The moved-item counts batch updates return (Gorder's
    ``gorder.batched_moves`` counter sums them)."""

    def test_batch_counters_match_raw_units(self):
        """Keys count every raw unit event; the return value counts
        distinct moved items."""
        heap = UnitHeap(6)
        assert heap.increase_batch(np.array([1, 1, 2])) == 2
        assert heap.decrease_batch(np.array([1])) == 1
        assert (heap.key_of(1), heap.key_of(2)) == (1, 1)

    def test_apply_step_unit_counts_match_two_phases(self):
        """The fused step lands the same keys as the two-phase form
        but dedups moved items per *step* (3 touched items here), not
        per *phase* (3 + 2)."""
        fused = UnitHeap(6)
        phased = UnitHeap(6)
        enter = np.array([1, 1, 2, 3])
        exit_ = np.array([2, 3])
        assert fused.apply_step(enter, exit_) == 3
        assert phased.increase_batch(enter) == 3
        assert phased.decrease_batch(exit_) == 2
        assert [fused.key_of(i) for i in range(6)] == [
            phased.key_of(i) for i in range(6)
        ]

    def test_counts_weighted_units(self):
        heap = UnitHeap(4)
        moved = heap.increase_batch(
            np.array([0, 2]), counts=np.array([3, 2])
        )
        assert moved == 2
        assert (heap.key_of(0), heap.key_of(2)) == (3, 2)


class TestCandidateSubset:
    """Heaps restricted to a candidate subset at construction."""

    def test_only_candidates_present(self):
        heap = UnitHeap(6, candidates=np.array([2, 4, 5]))
        assert len(heap) == 3
        assert all(i in heap for i in (2, 4, 5))
        assert all(i not in heap for i in (0, 1, 3))

    def test_pops_cover_exactly_the_candidates(self):
        heap = UnitHeap(6, candidates=np.array([5, 2, 4]))
        heap.increase(4)
        assert heap.pop_max() == 4
        assert sorted([heap.pop_max(), heap.pop_max()]) == [2, 5]
        with pytest.raises(IndexError):
            heap.pop_max()

    def test_ties_break_by_smallest_id(self):
        heap = UnitHeap(8, candidates=np.array([6, 3, 5]))
        assert heap.pop_max() == 3

    def test_updates_on_non_candidates_ignored(self):
        heap = UnitHeap(4, candidates=np.array([1]))
        heap.increase(0)
        heap.decrease(3)
        assert len(heap) == 1
        assert heap.pop_max() == 1

    def test_duplicate_candidates_collapse(self):
        heap = UnitHeap(5, candidates=np.array([2, 2, 4]))
        assert len(heap) == 2

    def test_empty_candidates(self):
        heap = UnitHeap(5, candidates=np.zeros(0, dtype=np.int64))
        assert len(heap) == 0
        with pytest.raises(IndexError):
            heap.pop_max()

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            UnitHeap(3, candidates=np.array([3]))
        with pytest.raises(InvalidParameterError):
            UnitHeap(3, candidates=np.array([-1]))

    def test_matches_full_heap_with_removes(self):
        """A candidate heap behaves exactly like a full heap whose
        non-candidates were removed up front."""
        rng = np.random.default_rng(11)
        candidates = np.flatnonzero(rng.random(40) < 0.5)
        lazy = UnitHeap(40, candidates=candidates)
        eager = UnitHeap(40)
        for item in np.setdiff1d(np.arange(40), candidates):
            eager.remove(int(item))
        for _ in range(200):
            item = int(rng.integers(0, 40))
            if rng.random() < 0.7:
                lazy.increase(item)
                eager.increase(item)
            else:
                lazy.decrease(item)
                eager.decrease(item)
        assert len(lazy) == len(eager)
        pops = len(lazy)
        assert [lazy.pop_max() for _ in range(pops)] == [
            eager.pop_max() for _ in range(pops)
        ]
