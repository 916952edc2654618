"""Unit and model-based property tests for the unit heap."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.domset import dominating_set
from repro.errors import InvalidParameterError
from repro.graph import datasets
from repro.ordering import UnitHeap, gorder_order, ldg_order, slashburn_order
from repro.ordering.unit_heap import BLOCK


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
        # Both at key 1: ties pop the smallest id, whatever order the
        # keys reached their values in.
        assert heap.key_of(0) == 1
        assert heap.key_of(1) == 1
        assert heap.pop_max() == 0
        assert heap.pop_max() == 1

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
        heap.decrease_batch(np.array([]))
        heap.apply_step(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
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


@st.composite
def multi_block_programs(draw):
    """A heap over several blocks (ragged tail included) plus a mixed
    program of scalar, batch and fused-step updates, removals, pops
    and peeks.  Item ids favour block edges, where a stale or missed
    bound would show."""
    size = draw(st.integers(1, 1100))
    edges = sorted({
        i for b in range(0, size + BLOCK, BLOCK)
        for i in (b - 1, b, b + 1) if 0 <= i < size
    })
    item = st.one_of(st.integers(0, size - 1), st.sampled_from(edges))
    items = st.lists(item, max_size=12)
    candidates = draw(st.none() | st.lists(item, max_size=40))
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["inc", "dec", "remove"]), item),
            st.tuples(st.sampled_from(["pop", "peek"])),
            st.tuples(
                st.sampled_from(["inc_batch", "dec_batch"]),
                items, st.booleans(),
            ),
            st.tuples(st.just("step"), items, items),
        ),
        max_size=80,
    ))
    return size, candidates, ops


class TestMultiBlockModel:
    """The heap against a dict model across block boundaries."""

    @staticmethod
    def _expected_top(model):
        top = max(model.values())
        return min(i for i, key in model.items() if key == top), top

    @settings(deadline=None)
    @given(multi_block_programs())
    def test_matches_dict_model(self, program):
        size, candidates, ops = program
        if candidates is None:
            heap = UnitHeap(size)
            model = {i: 0 for i in range(size)}
        else:
            heap = UnitHeap(size, candidates=np.array(candidates, int))
            model = {i: 0 for i in candidates}

        def bump(batch, sign, counts=None):
            for i, count in zip(batch, counts or [1] * len(batch)):
                if i in model:
                    model[i] += sign * count

        for op in ops:
            kind = op[0]
            if kind == "inc":
                heap.increase(op[1])
                bump([op[1]], 1)
            elif kind == "dec":
                heap.decrease(op[1])
                bump([op[1]], -1)
            elif kind == "remove":
                heap.remove(op[1])
                model.pop(op[1], None)
            elif kind in ("inc_batch", "dec_batch"):
                _, batch, weighted = op
                counts = [i % 3 for i in batch] if weighted else None
                update = (
                    heap.increase_batch if kind == "inc_batch"
                    else heap.decrease_batch
                )
                update(
                    np.array(batch, dtype=np.int64),
                    None if counts is None else np.array(counts, int),
                )
                bump(batch, 1 if kind == "inc_batch" else -1, counts)
            elif kind == "step":
                _, enter, exit_ = op
                heap.apply_step(
                    np.array(enter, dtype=np.int64),
                    np.array(exit_, dtype=np.int64),
                )
                bump(enter, 1)
                bump(exit_, -1)
            elif model:
                item, top = self._expected_top(model)
                if kind == "peek":
                    assert heap.peek_max_key() == top
                else:
                    assert heap.pop_max() == item
                    del model[item]
            assert len(heap) == len(model)
        while model:
            item, top = self._expected_top(model)
            assert heap.peek_max_key() == top
            assert heap.pop_max() == item
            del model[item]
        with pytest.raises(IndexError):
            heap.pop_max()

    def test_stale_bound_is_tightened_and_retried(self):
        """Decreases and removals leave a block's bound stale-high;
        the pop must tighten it and fall through to the true top."""
        heap = UnitHeap(3 * BLOCK)
        for item, key in ((5, 3), (9, 2), (BLOCK + 1, 2), (2 * BLOCK, 2)):
            heap.increase_batch(np.array([item]), counts=np.array([key]))
        heap.remove(5)  # block 0 keeps its bound of 3
        assert heap.peek_max_key() == 2
        assert heap.pop_max() == 9
        heap.decrease(BLOCK + 1)  # block 1 keeps its bound of 2
        assert heap.pop_max() == 2 * BLOCK
        assert heap.pop_max() == BLOCK + 1
        assert heap.pop_max() == 0

    def test_ragged_tail_drains_in_id_order(self):
        heap = UnitHeap(BLOCK + 3)
        assert [heap.pop_max() for _ in range(BLOCK + 3)] == list(
            range(BLOCK + 3)
        )
        with pytest.raises(IndexError):
            heap.peek_max_key()


class TestCallerPins:
    """SHA-256 of every heap caller's output on ``wiki`` (6800 nodes,
    27 blocks).  Pinned from the previous heap implementation: any
    change to the pop order changes them.  LDG's emptiest-bin heap is
    pinned from the ``np.argmin`` scan it replaced."""

    PINNED = {
        "gorder": (
            gorder_order,
            "50f451644dc4725b12b075169f92fffc"
            "9485353d652926ecce58219f1caf94c7",
        ),
        "slashburn": (
            slashburn_order,
            "644bb25ff25d462537184a7d27ed7e78"
            "c1b805b6f27a335e55ad5cf19083dff5",
        ),
        "dominating_set": (
            dominating_set,
            "47eecd40ce0aac92eb67cefbb585ea1d"
            "5f640f829cedcf9a7340ebe4c22e25a2",
        ),
        "ldg": (
            ldg_order,
            "c3c432e0e8392efe92851c93147c3c6d"
            "c5cebc0d7b590a7081a2237c41ca0664",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_wiki_output_pinned(self, name):
        function, digest = self.PINNED[name]
        output = np.ascontiguousarray(
            function(datasets.load("wiki")), dtype=np.int64
        )
        assert hashlib.sha256(output.tobytes()).hexdigest() == digest
