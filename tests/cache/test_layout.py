"""Unit tests for the memory layout model and traced arrays."""

import numpy as np
import pytest

from repro.cache import CacheHierarchy, CacheLevel, Memory
from repro.errors import InvalidParameterError


def small_memory():
    return Memory(
        CacheHierarchy(
            [
                CacheLevel(2 * 64, 64, 2, "L1"),
                CacheLevel(4 * 64, 64, 4, "L2"),
                CacheLevel(8 * 64, 64, 8, "L3"),
            ]
        ),
        cache_backend="step",
    )


class TestArrayDeclaration:
    def test_line_aligned_bases(self):
        memory = small_memory()
        a = memory.array("a", 3, 4)  # 12 bytes -> padded to one line
        b = memory.array("b", 1, 8)
        assert a.line_of(0) != b.line_of(0)

    def test_elements_share_lines(self):
        memory = small_memory()
        a = memory.array("a", 32, 4)
        assert a.line_of(0) == a.line_of(15)
        assert a.line_of(15) != a.line_of(16)

    def test_duplicate_name_rejected(self):
        memory = small_memory()
        memory.array("a", 1, 4)
        with pytest.raises(InvalidParameterError, match="already"):
            memory.array("a", 1, 4)

    def test_bad_itemsize(self):
        memory = small_memory()
        with pytest.raises(InvalidParameterError, match="power of two"):
            memory.array("a", 1, 3)

    def test_negative_length(self):
        memory = small_memory()
        with pytest.raises(InvalidParameterError, match="length"):
            memory.array("a", -1, 4)

    def test_zero_length_array_still_occupies_a_line(self):
        memory = small_memory()
        a = memory.array("a", 0, 4)
        b = memory.array("b", 1, 4)
        assert a.line_of(0) != b.line_of(0)


class TestTouch:
    def test_touch_counts_levels(self):
        memory = small_memory()
        a = memory.array("a", 16, 4)
        a.touch(0)  # memory
        a.touch(0)  # L1
        assert memory.level_counts[0] == 1
        assert memory.level_counts[1] == 1
        assert memory.total_refs == 2

    def test_same_line_is_one_fetch(self):
        memory = small_memory()
        a = memory.array("a", 16, 4)
        a.touch(0)
        a.touch(15)  # same 64-byte line
        assert memory.level_counts[1] == 1

    def test_stats_snapshot(self):
        memory = small_memory()
        a = memory.array("a", 16, 4)
        a.touch(0)
        stats = memory.stats()
        assert stats.l1_refs == 1
        assert stats.l3_misses == 1


class TestTouchRun:
    def test_counts_every_element(self):
        memory = small_memory()
        a = memory.array("a", 64, 4)
        a.touch_run(0, 64)
        assert memory.total_refs == 64

    def test_prefetch_hides_trailing_lines(self):
        memory = small_memory()
        a = memory.array("a", 64, 4)  # 4 lines of 16 elements
        a.touch_run(0, 64)
        # One demand fetch (first line) + 3 prefetched lines.
        assert memory.level_counts[0] == 1
        assert memory.prefetched_refs == 3
        # Demand refs: 1 fetch + 63 L1 hits.
        assert memory.level_counts[1] == 63

    def test_partial_first_line(self):
        memory = small_memory()
        a = memory.array("a", 64, 4)
        a.touch_run(8, 16)  # spans line 0 (8 elems) and line 1 (8)
        assert memory.total_refs == 16
        assert memory.level_counts[0] == 1
        assert memory.prefetched_refs == 1

    def test_empty_run_is_noop(self):
        memory = small_memory()
        a = memory.array("a", 16, 4)
        a.touch_run(0, 0)
        assert memory.total_refs == 0

    def test_run_warms_cache(self):
        memory = small_memory()
        a = memory.array("a", 16, 4)
        a.touch_run(0, 16)
        a.touch(3)
        assert memory.level_counts[1] == 16  # 15 from run + this hit


class TestCostAccounting:
    def test_cost_includes_prefetched_in_execute(self):
        memory = small_memory()
        a = memory.array("a", 64, 4)
        a.touch_run(0, 64)
        cost = memory.cost()
        model = memory.cost_model
        assert cost.execute_cycles == 64 * model.execute_per_ref
        # Stall charged only for the single demand memory access.
        assert cost.stall_cycles == model.memory_stall

    def test_work_adds_execute_cycles(self):
        memory = small_memory()
        memory.work(123.0)
        assert memory.cost().execute_cycles == 123.0

    def test_reset(self):
        memory = small_memory()
        a = memory.array("a", 64, 4)
        a.touch_run(0, 64)
        memory.work(5)
        memory.reset()
        assert memory.total_refs == 0
        assert memory.prefetched_refs == 0
        assert memory.cost().total_cycles == 0
        # Arrays survive a reset.
        a.touch(0)
        assert memory.total_refs == 1


class TestBoundsAndGeometryGuards:
    """Regressions: oversized elements once sent ``touch_run`` into an
    infinite loop, and out-of-range touches silently aliased the
    neighbouring array's cache lines."""

    def test_itemsize_beyond_line_size_rejected(self):
        memory = small_memory()  # 64-byte lines
        with pytest.raises(InvalidParameterError, match="exceeds"):
            memory.array("wide", 4, 128)

    def test_itemsize_equal_to_line_size_allowed(self):
        memory = small_memory()
        array = memory.array("full-line", 4, 64)
        array.touch_run(0, 4)  # one demand line + three prefetched
        assert memory.total_refs == 4

    def test_touch_bounds_checked(self):
        memory = small_memory()
        array = memory.array("a", 8, 4)
        with pytest.raises(InvalidParameterError, match="outside"):
            array.touch(8)
        with pytest.raises(InvalidParameterError, match="outside"):
            array.touch(-1)
        array.touch(7)  # boundary element is fine

    def test_touch_run_bounds_checked(self):
        memory = small_memory()
        array = memory.array("a", 8, 4)
        with pytest.raises(InvalidParameterError, match="outside"):
            array.touch_run(4, 5)
        with pytest.raises(InvalidParameterError, match="outside"):
            array.touch_run(-1, 2)
        array.touch_run(4, 4)  # boundary run is fine


def small_replay_memory():
    return Memory(
        CacheHierarchy(
            [
                CacheLevel(2 * 64, 64, 2, "L1"),
                CacheLevel(4 * 64, 64, 4, "L2"),
                CacheLevel(8 * 64, 64, 8, "L3"),
            ]
        ),
        cache_backend="replay",
    )


class TestTouchSink:
    """``Memory.touch_sink``: ``emit(array.code + i)`` is
    ``array.touch(i)`` — same counters under both backends, same
    bounds errors (deferred to the first read in replay mode, eager
    in step mode)."""

    CODES = [(0, 3), (1, 0), (0, 3), (1, 7), (0, 0), (0, 15)]

    def emit_all(self, memory):
        arrays = [memory.array("a", 16, 8), memory.array("b", 8, 4)]
        emit = memory.touch_sink()
        for which, index in self.CODES:
            emit(arrays[which].code + index)
        return memory

    @pytest.mark.parametrize("make", [small_memory, small_replay_memory])
    def test_matches_scalar_touches(self, make):
        scalar = make()
        arrays = [scalar.array("a", 16, 8), scalar.array("b", 8, 4)]
        for which, index in self.CODES:
            arrays[which].touch(index)
        sunk = self.emit_all(make())
        assert sunk.level_counts == scalar.level_counts
        assert sunk.total_refs == scalar.total_refs == len(self.CODES)

    def test_replay_matches_step(self):
        step = self.emit_all(small_memory())
        replay = self.emit_all(small_replay_memory())
        assert replay.level_counts == step.level_counts
        assert replay.stats() == step.stats()

    def test_codes_number_arrays_in_declaration_order(self):
        memory = small_memory()
        a = memory.array("a", 4, 4)
        b = memory.array("b", 4, 4)
        assert a.code == 2**47
        assert b.code == (1 << 48) + 2**47

    def bad_codes(self, array):
        return {
            "below": array.code - 1,
            "at-length": array.code + array.length,
            "unknown-slot": array.code + (1 << 48),
        }

    @pytest.mark.parametrize("case", ["below", "at-length", "unknown-slot"])
    def test_bounds_deferred_to_first_read_in_replay(self, case):
        memory = small_replay_memory()
        array = memory.array("ranks", 8, 4)
        emit = memory.touch_sink()
        emit(array.code + 7)
        emit(self.bad_codes(array)[case])  # recorded, not yet checked
        match = "no declared array" if case == "unknown-slot" else (
            "'ranks' of length 8"
        )
        with pytest.raises(InvalidParameterError, match=match):
            memory.level_counts
        # A failed replay is not a replay: the next read raises again
        # instead of returning stale counters.
        with pytest.raises(InvalidParameterError, match=match):
            memory.level_counts

    @pytest.mark.parametrize("case", ["below", "at-length", "unknown-slot"])
    def test_bounds_eager_in_step_mode(self, case):
        memory = small_memory()
        array = memory.array("ranks", 8, 4)
        emit = memory.touch_sink()
        match = "no declared array" if case == "unknown-slot" else (
            "'ranks' of length 8"
        )
        with pytest.raises(InvalidParameterError, match=match):
            emit(self.bad_codes(array)[case])
        assert memory.total_refs == 0

    def test_results_follow_touches_made_after_a_read(self):
        """The replay watermark, not a flag set when the sink was
        fetched, decides staleness: touches recorded after one read
        show up in the next."""
        memory = small_replay_memory()
        array = memory.array("a", 64, 64)  # one element per line
        emit = memory.touch_sink()
        emit(array.code + 0)
        assert sum(memory.level_counts) == 1
        emit(array.code + 0)
        emit(array.code + 1)
        assert memory.level_counts == [2, 1, 0, 0]
        assert memory.total_refs == 3

    def test_sink_after_reset_records_into_the_new_trace(self):
        memory = small_replay_memory()
        array = memory.array("a", 8, 4)
        memory.touch_sink()(array.code + 1)
        memory.reset()
        assert memory.level_counts == [0, 0, 0, 0]
        memory.touch_sink()(array.code + 2)
        assert memory.level_counts == [1, 0, 0, 0]


class TestBatchTouchApis:
    """The frontier runtime's batch APIs: ``touch_many``,
    ``touch_runs``, ``element_lines`` and ``touch_block`` must stay
    counter-identical to their scalar spellings and keep the scalar
    APIs' bounds guarantees (out-of-range indices raise instead of
    silently aliasing the neighbouring array's lines)."""

    def test_touch_many_matches_scalar_touches(self):
        indices = [0, 7, 3, 3, 5, 1]
        scalar = small_memory()
        a = scalar.array("a", 8, 8)
        for i in indices:
            a.touch(i)
        batched = small_memory()
        b = batched.array("a", 8, 8)
        b.touch_many(np.asarray(indices))
        assert batched.level_counts == scalar.level_counts
        assert batched.total_refs == scalar.total_refs

    def test_touch_many_replay_matches_step(self):
        indices = np.asarray([0, 7, 3, 3, 5, 1])
        step = small_memory()
        step.array("a", 8, 8).touch_many(indices)
        replay = small_replay_memory()
        replay.array("a", 8, 8).touch_many(indices)
        assert replay.level_counts == step.level_counts
        assert replay.total_refs == step.total_refs

    def test_touch_many_bounds_checked(self):
        array = small_memory().array("a", 8, 4)
        with pytest.raises(InvalidParameterError, match="outside"):
            array.touch_many(np.asarray([0, 8]))
        with pytest.raises(InvalidParameterError, match="outside"):
            array.touch_many(np.asarray([-1, 0]))
        array.touch_many(np.asarray([0, 7]))  # boundary is fine

    def test_touch_many_deferred_bounds_raise_at_freeze(self):
        memory = small_replay_memory()
        array = memory.array("edges", 8, 4)
        array.touch_many(np.asarray([0, 8]))  # recorded as touch codes
        with pytest.raises(InvalidParameterError, match="'edges'"):
            memory.level_counts

    def test_touch_many_rejects_slot_aliasing_indices_at_once(self):
        # A touch code holds its index in 48 biased bits: an index
        # outside +-2**47 would decode as another array's element.
        memory = small_replay_memory()
        array = memory.array("edges", 8, 4)
        for bad in (
            np.asarray([0, 1 << 47]),
            np.asarray([-(1 << 47) - 1]),
            np.asarray([1 << 63], dtype=np.uint64),
        ):
            with pytest.raises(InvalidParameterError, match="'edges'"):
                array.touch_many(bad)
        assert memory.total_refs == 0  # nothing was recorded
        array.touch_many(np.asarray([-(1 << 47), (1 << 47) - 1]))
        with pytest.raises(InvalidParameterError, match="'edges'"):
            memory.level_counts  # in range of the code, not the array

    def test_touch_many_rejects_bad_shapes_and_dtypes(self):
        array = small_memory().array("a", 8, 4)
        with pytest.raises(InvalidParameterError, match="1-D"):
            array.touch_many(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(InvalidParameterError, match="integer"):
            array.touch_many(np.asarray([0.5, 1.5]))

    def test_touch_many_empty_is_noop(self):
        memory = small_memory()
        memory.array("a", 8, 4).touch_many(
            np.zeros(0, dtype=np.int64)
        )
        assert memory.total_refs == 0

    def test_touch_runs_matches_scalar_runs(self):
        runs = [(0, 3), (16, 8), (4, 0), (8, 5)]
        scalar = small_memory()
        a = scalar.array("a", 32, 8)
        for start, count in runs:
            a.touch_run(start, count)
        batched = small_memory()
        b = batched.array("a", 32, 8)
        b.touch_runs(
            np.asarray([s for s, _ in runs]),
            np.asarray([c for _, c in runs]),
        )
        assert batched.level_counts == scalar.level_counts
        assert batched.total_refs == scalar.total_refs
        assert batched.prefetched_refs == scalar.prefetched_refs

    def test_touch_runs_replay_matches_step(self):
        starts = np.asarray([0, 16, 8])
        lengths = np.asarray([3, 8, 5])
        step = small_memory()
        step.array("a", 32, 8).touch_runs(starts, lengths)
        replay = small_replay_memory()
        replay.array("a", 32, 8).touch_runs(starts, lengths)
        assert replay.level_counts == step.level_counts
        assert replay.total_refs == step.total_refs
        assert replay.prefetched_refs == step.prefetched_refs

    def test_touch_runs_bounds_checked(self):
        array = small_memory().array("a", 8, 4)
        with pytest.raises(InvalidParameterError, match="outside"):
            array.touch_runs(np.asarray([4]), np.asarray([5]))
        with pytest.raises(InvalidParameterError, match="outside"):
            array.touch_runs(np.asarray([-1]), np.asarray([2]))
        array.touch_runs(np.asarray([4]), np.asarray([4]))  # boundary

    def test_touch_runs_rejects_misaligned_or_float_arrays(self):
        array = small_memory().array("a", 8, 4)
        with pytest.raises(InvalidParameterError, match="aligned"):
            array.touch_runs(np.asarray([0, 1]), np.asarray([1]))
        with pytest.raises(InvalidParameterError, match="integer"):
            array.touch_runs(np.asarray([0.0]), np.asarray([1.0]))

    def test_touch_runs_skips_zero_length_spans(self):
        memory = small_memory()
        # The zero-length span's start may even be out of range for a
        # non-empty run; it must simply be dropped.
        memory.array("a", 8, 4).touch_runs(
            np.asarray([0, 8]), np.asarray([2, 0])
        )
        assert memory.total_refs == 2

    def test_element_lines_matches_line_of(self):
        memory = small_memory()
        array = memory.array("a", 32, 8)
        indices = np.asarray([0, 31, 7, 8])
        assert array.element_lines(indices).tolist() == [
            array.line_of(int(i)) for i in indices
        ]

    def test_element_lines_bounds_checked(self):
        array = small_memory().array("a", 8, 4)
        with pytest.raises(InvalidParameterError, match="outside"):
            array.element_lines(np.asarray([8]))
        with pytest.raises(InvalidParameterError, match="outside"):
            array.element_lines(np.asarray([-1]))
        assert array.element_lines(np.zeros(0, dtype=np.int64)).size == 0

    def test_touch_block_replay_matches_step(self):
        lines_src = small_memory()
        array = lines_src.array("a", 64, 8)
        lines = array.element_lines(np.asarray([0, 8, 16, 24, 0, 8]))
        demand = np.asarray([True, True, False, False, True, True])
        step = small_memory()
        step.array("a", 64, 8)
        step.touch_block(lines, demand, extra_l1=3, prefetched=2)
        replay = small_replay_memory()
        replay.array("a", 64, 8)
        replay.touch_block(lines, demand, extra_l1=3, prefetched=2)
        assert replay.level_counts == step.level_counts
        assert replay.total_refs == step.total_refs
        assert replay.prefetched_refs == step.prefetched_refs

    def test_touch_block_rejects_misaligned_arrays(self):
        memory = small_memory()
        with pytest.raises(InvalidParameterError, match="aligned"):
            memory.touch_block(
                np.asarray([1, 2]), np.asarray([True])
            )
