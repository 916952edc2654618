"""Windowed replay: bounded memory, counter-identical results.

``CacheHierarchy.replay`` classifies its input in windows of
``repro.cache.replay.WINDOW`` accesses and carries each level's
per-set LRU stacks from one window (and one call) to the next;
``Memory`` replays only what was recorded since its last read, one
window at a time.  The window size is a module constant, so these
tests monkeypatch it: every size, from one access to more than the
whole trace, must give the same serving levels and counters as one
whole-trace replay and as the scalar step oracle.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheHierarchy, CacheLevel, Memory
from repro.cache import replay as trace_replay
from repro.cache.layout import ArrayLayout
from repro.cache.replay import (
    FAST_LINE_LIMIT,
    FAST_MAX_WAYS,
    TraceBuffer,
    lru_stack,
    touch_code,
)
from repro.errors import InvalidParameterError

WHOLE = 1 << 40  # a window no test trace reaches

#: (num_sets, ways) per level.  The last two geometries force the
#: reference classifier: more than FAST_MAX_WAYS ways, and (with line
#: ids shifted past FAST_LINE_LIMIT, see ``LINE_OFFSETS``) huge ids.
GEOMETRIES = [
    [(2, 2), (4, 4)],
    [(1, 4), (2, 8), (8, 8)],
    [(2, 2), (1, FAST_MAX_WAYS + 8)],
]
LINE_OFFSETS = [0, FAST_LINE_LIMIT]


def make_hierarchy(geometry):
    return CacheHierarchy([
        CacheLevel(num_sets * ways * 64, 64, ways, f"L{i + 1}")
        for i, (num_sets, ways) in enumerate(geometry)
    ])


def counters(hierarchy):
    return [(level.refs, level.misses) for level in hierarchy.levels]


def replay_in(window, hierarchy, chunks):
    """Serving levels of ``chunks`` replayed one call each."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_replay, "WINDOW", window)
        parts = [hierarchy.replay(chunk) for chunk in chunks]
    return np.concatenate(parts) if parts else np.zeros(0, np.int16)


@st.composite
def traces(draw):
    """A random line trace of uniformly drawn length (hypothesis lists
    stay short, and a carried-state bug needs window boundaries).
    Few distinct lines make evictions and re-references common; many
    make misses reach the deeper levels."""
    length = draw(st.integers(min_value=0, max_value=400))
    distinct = draw(st.sampled_from([12, 61]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.integers(0, distinct, size=length).tolist()


class TestHierarchyWindows:
    @settings(max_examples=60, deadline=None)
    @given(
        lines=traces(),
        window=st.one_of(
            st.integers(min_value=1, max_value=24),
            st.integers(min_value=1, max_value=450),
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=4),
        geometry=st.sampled_from(GEOMETRIES),
        offset=st.sampled_from(LINE_OFFSETS),
    )
    def test_windows_and_calls_equal_one_whole_replay(
        self, lines, window, cuts, geometry, offset
    ):
        trace = np.asarray(lines, dtype=np.int64) + offset
        whole = make_hierarchy(geometry)
        expected = replay_in(WHOLE, whole, [trace])
        windowed = make_hierarchy(geometry)
        bounds = [0, *sorted(min(c, trace.size) for c in cuts), trace.size]
        chunks = [trace[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        got = replay_in(window, windowed, chunks)
        assert np.array_equal(got, expected)
        assert counters(windowed) == counters(whole)
        # ... and both equal the scalar step oracle.
        stepped = make_hierarchy(geometry)
        assert np.array_equal(stepped.step_trace(trace), expected)
        assert counters(stepped) == counters(whole)

    def test_flush_drops_carried_state_and_reset_keeps_it(self):
        hierarchy = make_hierarchy([(1, 2)])
        hierarchy.replay([1, 2])
        hierarchy.reset_statistics()
        assert hierarchy.replay([1, 2]).tolist() == [1, 1]  # warm
        assert counters(hierarchy) == [(2, 0)]
        hierarchy.flush()
        assert hierarchy.replay([1, 2]).tolist() == [0, 0]  # cold

    def test_carried_window_does_not_pin_the_callers_array(self):
        hierarchy = make_hierarchy([(2, 2)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_replay, "WINDOW", 8)
            big = np.arange(100, dtype=np.int64)
            hierarchy.replay(big)
        assert all(
            carried is None or carried.base is None
            for carried in hierarchy._carried
        )


class TestLruStack:
    @settings(max_examples=80, deadline=None)
    @given(
        lines=traces(),
        num_sets=st.sampled_from([1, 2, 4, 16]),
        ways=st.integers(min_value=1, max_value=6),
    )
    def test_matches_scalar_residency_in_recency_order(
        self, lines, num_sets, ways
    ):
        level = CacheLevel(num_sets * ways * 64, 64, ways, "ref")
        for line in lines:
            level.access(line)
        stack = lru_stack(lines, num_sets, ways)
        assert sorted(stack.tolist()) == sorted(level.resident_lines())
        # Oldest first within every set: the dict order of each set.
        for index, resident in enumerate(level._sets):
            in_set = [x for x in stack.tolist() if x % num_sets == index]
            assert in_set == list(resident)


# ----------------------------------------------------------------------
# Memory: incremental windowed replay against the step oracle
# ----------------------------------------------------------------------
def declare(memory):
    return memory.array("a", 64, 8), memory.array("b", 40, 4)


ops = st.lists(
    st.one_of(
        st.tuples(st.just("touch"), st.integers(0, 1), st.integers(0, 39)),
        st.tuples(
            st.just("run"), st.integers(0, 1), st.integers(0, 30),
            st.integers(1, 9),
        ),
        st.tuples(
            st.just("many"), st.integers(0, 1),
            st.lists(st.integers(0, 39), min_size=1, max_size=12),
        ),
        st.tuples(
            st.just("block"),
            st.lists(st.integers(0, 30), min_size=0, max_size=12),
            st.integers(0, 3),
        ),
        st.tuples(st.just("read")),
    ),
    max_size=40,
)


def apply(memory, arrays, op):
    kind = op[0]
    if kind == "touch":
        arrays[op[1]].touch(op[2])
    elif kind == "run":
        arrays[op[1]].touch_run(op[2], op[3])
    elif kind == "many":
        arrays[op[1]].touch_many(np.asarray(op[2], dtype=np.int64))
    elif kind == "block":
        lines = np.asarray(op[1], dtype=np.int64)
        demand = np.arange(lines.shape[0]) % 3 != 2
        memory.touch_block(
            lines, demand, op[2], int((~demand).sum())
        )


#: Small windows cut short programs many times; large ones often not.
windows = st.one_of(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=300),
)
_EMPTY_LINES = np.zeros(0, dtype=np.int64)


def results(memory):
    return (
        memory.level_counts, memory.stats(), memory.cost(),
        memory.total_refs, memory.prefetched_refs,
    )


class TestMemoryWindows:
    @settings(max_examples=60, deadline=None)
    @given(
        program=ops,
        window=windows,
        geometry=st.sampled_from(GEOMETRIES),
    )
    def test_reads_between_touches_equal_the_step_oracle(
        self, program, window, geometry
    ):
        step = Memory(make_hierarchy(geometry), cache_backend="step")
        replay = Memory(make_hierarchy(geometry), cache_backend="replay")
        step_arrays, replay_arrays = declare(step), declare(replay)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_replay, "WINDOW", window)
            for op in program:
                apply(step, step_arrays, op)
                apply(replay, replay_arrays, op)
                if op[0] == "read":
                    assert results(replay) == results(step)
            assert results(replay) == results(step)

    @settings(max_examples=60, deadline=None)
    @given(program=ops, window=windows)
    def test_windows_tile_the_whole_record(self, program, window):
        memory = Memory(make_hierarchy([(2, 2)]), cache_backend="replay")
        arrays = declare(memory)
        for op in program:
            apply(memory, arrays, op)
        buffer = memory._trace
        whole = buffer.freeze()
        parts, start = [], (0, 0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_replay, "WINDOW", window)
            while start != buffer.mark:
                stop = buffer.window_end(start)
                assert stop != start
                part = buffer.freeze(start, stop)
                # Over the bound only as one whole oversized segment.
                assert (
                    part.num_accesses <= window
                    or stop[1] - start[1] == 1 and stop[0] == start[0]
                )
                parts.append(part)
                start = stop
        lines = np.concatenate([_EMPTY_LINES] + [p.lines for p in parts])
        assert np.array_equal(lines, whole.lines)
        demand = np.concatenate([_EMPTY_LINES] + [
            p.demand_idx + offset
            for p, offset in zip(
                parts, np.cumsum([0] + [p.num_accesses for p in parts])
            )
        ])
        assert np.array_equal(demand, whole.demand_idx)
        assert sum(p.extra_l1 for p in parts) == whole.extra_l1
        assert (
            sum(p.prefetched_refs for p in parts) == whole.prefetched_refs
        )


class TestWindowFailures:
    def _memory(self):
        memory = Memory(make_hierarchy([(2, 2)]), cache_backend="replay")
        return memory, memory.array("a", 16, 8)

    @pytest.mark.parametrize("bad", ["batch", "code"])
    def test_later_window_error_raises_on_every_read(self, bad):
        memory, array = self._memory()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_replay, "WINDOW", 4)
            for i in range(12):  # three clean windows
                array.touch(i)
                if i == 3:
                    memory.stats()  # the next reads start mid-record
            if bad == "batch":
                array.touch_many(np.array([0, 99]))
            else:
                memory.touch_sink()(array.code + 99)
            array.touch(0)
            for read in (
                lambda: memory.level_counts, memory.stats, memory.cost,
                lambda: memory.level_counts,
            ):
                with pytest.raises(InvalidParameterError, match="'a'"):
                    read()
                # The clean windows were replayed once, never again.
                assert memory.hierarchy.levels[0].refs == 12

    def test_windows_before_the_error_are_counted_once(self):
        memory, array = self._memory()
        step = Memory(make_hierarchy([(2, 2)]), cache_backend="step")
        step_array = step.array("a", 16, 8)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_replay, "WINDOW", 3)
            for i in (0, 5, 9, 0, 13, 5):  # two clean windows
                array.touch(i)
                step_array.touch(i)
                if i == 9:
                    assert memory.stats() == step.stats()
            array.touch_many(np.array([1, 16]))
            for _ in range(2):
                with pytest.raises(InvalidParameterError):
                    memory.stats()
        assert memory.hierarchy.snapshot() == step.stats()

    def test_buffer_bounds_error_names_the_batch_in_its_window(self):
        buffer = TraceBuffer(line_shift=6, slots=[
            ArrayLayout("ok", 10, 8, 0), ArrayLayout("ranks", 10, 8, 128),
        ])
        ok, ranks = touch_code(0), touch_code(1)
        buffer.touches.extend([ok + 0, ok + 1, ranks + 0, ranks + 99])
        assert buffer.freeze((0, 0), (2, 0)).lines.tolist() == [0, 0]
        with pytest.raises(InvalidParameterError, match="'ranks'"):
            buffer.freeze((2, 0), (4, 0))


class TestWindowMemory:
    WINDOW = 1 << 14

    def _cost_peak(self, windows):
        """Heap peak of ``Memory.cost()`` above what the record holds,
        on a random trace of ``windows`` windows."""
        rng = np.random.default_rng(3)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_replay, "WINDOW", self.WINDOW)
            memory = Memory(make_hierarchy([(2, 8), (8, 8), (16, 16)]))
            array = memory.array("a", 1 << 16, 8)
            emit = memory.touch_sink()
            codes = array.code + rng.integers(
                0, 1 << 16, size=windows * self.WINDOW
            )
            for code in codes.tolist():
                emit(code)
            del codes
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                memory.cost()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peak - base

    def test_cost_peak_does_not_grow_with_the_trace(self):
        two, sixteen = self._cost_peak(2), self._cost_peak(16)
        assert sixteen <= 1.25 * two, (two, sixteen)
