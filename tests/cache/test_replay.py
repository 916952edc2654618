"""Tests for the vectorised trace-replay cache backend.

The contract under test: ``hit_mask`` / ``CacheHierarchy.replay`` /
``Memory(cache_backend="replay")`` are *exactly* equivalent to the
scalar step path — same hit/miss verdicts, same counters, same costs —
for every all-LRU geometry, and degrade gracefully everywhere else.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import base as algorithms
from repro.cache import CacheHierarchy, CacheLevel, Memory
from repro.cache.replay import (
    COLD,
    TraceBuffer,
    count_prior_greater,
    hit_mask,
    lru_hit_mask,
    stack_distances,
    touch_code,
)
from repro.cache.reuse import (
    RecordingHierarchy,
    lru_misses,
    reuse_distances,
)
from repro.errors import InvalidParameterError


def scalar_hits(lines, num_sets, ways, policy="lru"):
    """Reference verdicts: one scalar CacheLevel stepped per access."""
    level = CacheLevel(
        num_sets * ways * 64, 64, ways, "ref", policy=policy
    )
    return np.array([level.access(line) for line in lines], dtype=bool)


def make_hierarchy(geometries, policy="lru"):
    """Hierarchy from (num_sets, ways) pairs, 64-byte lines."""
    return CacheHierarchy(
        [
            CacheLevel(
                num_sets * ways * 64, 64, ways, f"L{i + 1}",
                policy=policy,
            )
            for i, (num_sets, ways) in enumerate(geometries)
        ]
    )


# Trace generator shared by the property tests: skewed line ids make
# warm/cold and hit/miss populations both non-trivial.
lines_strategy = st.lists(
    st.integers(min_value=0, max_value=40), min_size=0, max_size=300
)


class TestCountPriorGreater:
    def test_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(0, 80))
            values = rng.integers(-5, 30, size=n)
            expected = np.array(
                [
                    int(np.sum(values[:t] > values[t]))
                    for t in range(n)
                ],
                dtype=np.int64,
            )
            got = count_prior_greater(values)
            assert np.array_equal(got, expected)

    def test_empty_and_single(self):
        assert count_prior_greater([]).shape == (0,)
        assert count_prior_greater([7]).tolist() == [0]


class TestStackDistances:
    def test_matches_reuse_distances_single_set(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            trace = rng.integers(0, 25, size=int(rng.integers(1, 200)))
            assert np.array_equal(
                stack_distances(trace), reuse_distances(trace)
            )

    def test_per_set_equals_split_traces(self):
        rng = np.random.default_rng(2)
        trace = rng.integers(0, 64, size=400)
        num_sets = 8
        got = stack_distances(trace, num_sets)
        sets = trace & (num_sets - 1)
        for s in range(num_sets):
            mask = sets == s
            assert np.array_equal(
                got[mask], reuse_distances(trace[mask])
            )

    def test_rejects_bad_num_sets(self):
        with pytest.raises(InvalidParameterError, match="power of two"):
            stack_distances([1, 2], num_sets=3)

    def test_cold_marks_first_occurrences(self):
        distances = stack_distances([5, 6, 5, 6])
        assert distances.tolist() == [COLD, COLD, 1, 1]


class TestHitMask:
    @settings(max_examples=60, deadline=None)
    @given(lines=lines_strategy)
    def test_matches_scalar_level(self, lines):
        for num_sets in (1, 2, 8):
            for ways in (1, 2, 8, 64):
                got = hit_mask(lines, num_sets, ways)
                assert np.array_equal(
                    got, scalar_hits(lines, num_sets, ways)
                )

    def test_blocked_and_reference_agree_on_long_traces(self):
        # Long enough to exercise multi-block rows, the prefix scan
        # and the short-set shortcut at once.
        rng = np.random.default_rng(3)
        trace = np.concatenate(
            [
                (rng.zipf(1.4, size=4000) % 900),
                np.arange(2000) % 1100,  # sequential runs
            ]
        )
        rng.shuffle(trace[::3])
        for num_sets, ways in ((1, 4), (8, 8), (64, 8), (64, 16)):
            fast = hit_mask(trace, num_sets, ways)
            slow = lru_hit_mask(trace, num_sets, ways)
            assert np.array_equal(fast, slow)

    def test_fully_associative_matches_lru_misses_oracle(self):
        rng = np.random.default_rng(4)
        trace = rng.integers(0, 50, size=600)
        for capacity in (1, 4, 16):
            mask = hit_mask(trace, 1, capacity)
            assert int((~mask).sum()) == lru_misses(
                reuse_distances(trace), capacity
            )

    def test_rejects_bad_geometry(self):
        with pytest.raises(InvalidParameterError, match="power of two"):
            hit_mask([1], 3, 2)
        with pytest.raises(InvalidParameterError, match="positive"):
            hit_mask([1], 4, 0)

    def test_huge_line_ids_use_reference_path(self):
        # Beyond FAST_LINE_LIMIT the blocked path must defer, not
        # misclassify.
        trace = np.array([1 << 40, 5, 1 << 40, 5, 1 << 40])
        got = hit_mask(trace, 2, 2)
        assert np.array_equal(got, scalar_hits(trace, 2, 2))


class TestHierarchyReplay:
    GEOMETRIES = [
        [(2, 1)],
        [(2, 2), (8, 2)],
        [(1, 4), (2, 8), (8, 8)],
        [(2, 2), (4, 2), (8, 4), (16, 4)],  # 4 levels
    ]

    @settings(max_examples=40, deadline=None)
    @given(lines=lines_strategy)
    def test_matches_step_trace(self, lines):
        for geometry in self.GEOMETRIES:
            h_step = make_hierarchy(geometry)
            h_replay = make_hierarchy(geometry)
            serving_step = h_step.step_trace(lines)
            serving_replay = h_replay.replay(lines)
            assert np.array_equal(serving_step, serving_replay)
            assert [
                (level.refs, level.misses) for level in h_step.levels
            ] == [
                (level.refs, level.misses)
                for level in h_replay.levels
            ]

    def test_replay_rejects_non_lru(self):
        hierarchy = make_hierarchy([(2, 2)], policy="fifo")
        assert hierarchy.supports_replay is False
        with pytest.raises(InvalidParameterError, match="LRU"):
            hierarchy.replay([1, 2, 3])

    def test_step_trace_works_for_any_policy(self):
        for policy in ("fifo", "random"):
            hierarchy = make_hierarchy([(2, 2)], policy=policy)
            rng = np.random.default_rng(5)
            trace = rng.integers(0, 12, size=200)
            serving = hierarchy.step_trace(trace)
            expected = scalar_hits(trace, 2, 2, policy=policy)
            assert np.array_equal(serving == 1, expected)


class TestTraceBuffer:
    def test_interleaves_all_three_channels(self):
        # One declared slot whose 64-byte elements start at line 10.
        slot = SimpleNamespace(name="l", length=4, itemsize=64, base=640)
        code = touch_code(0)
        buffer = TraceBuffer(line_shift=6, slots=[slot])
        buffer.touches.append(code + 0)
        buffer.record_run(20, nlines=3, count=5)
        buffer.record_block(
            np.array([0, 1, 2]), np.array([True, False, True]),
            extra_l1=2, prefetched=1,
        )
        buffer.touches.append(code + 1)
        buffer.record_run(30, nlines=1, count=1)
        buffer.touches.append(code + 2)
        trace = buffer.freeze()
        # Segments at one position keep their record order.
        assert trace.lines.tolist() == [10, 20, 21, 22, 0, 1, 2, 11, 30, 12]
        # Prefetched run fills (21, 22) and the block's prefetched
        # line (1) are not demand accesses.
        assert trace.demand_idx.tolist() == [0, 1, 4, 6, 7, 8, 9]
        assert trace.extra_l1 == 4 + 2  # 5 run elements on 1 demand line
        assert trace.prefetched_refs == 2 + 1
        assert trace.total_refs == buffer.total_refs == 7 + 6

    def test_deferred_bounds_error_names_the_array(self):
        slot = SimpleNamespace(name="ranks", length=10, itemsize=8, base=0)
        buffer = TraceBuffer(line_shift=6, slots=[slot])
        buffer.touches.extend([touch_code(0) + 0, touch_code(0) + 99])
        with pytest.raises(InvalidParameterError, match="'ranks'"):
            buffer.freeze()

    def test_empty_freeze(self):
        trace = TraceBuffer(line_shift=6).freeze()
        assert trace.num_accesses == 0
        assert trace.num_demand == 0


def lru_memories():
    """A (step, replay) pair over identical small LRU hierarchies."""
    return (
        Memory(make_hierarchy([(2, 2), (4, 4)]), cache_backend="step"),
        Memory(
            make_hierarchy([(2, 2), (4, 4)]), cache_backend="replay"
        ),
    )


def drive(memory):
    array = memory.array("a", 64, 8)
    other = memory.array("b", 32, 4)
    for i in (0, 8, 0, 63, 8):
        array.touch(i)
    array.touch_run(4, 40)
    other.touch_many(np.array([0, 31, 0, 15]))
    array.touch(0)


class TestMemoryBackends:
    def test_backend_equivalence_on_mixed_touches(self):
        step, replay = lru_memories()
        drive(step)
        drive(replay)
        assert replay.replaying is True
        assert replay.level_counts == step.level_counts
        assert replay.stats() == step.stats()
        assert replay.cost() == step.cost()
        assert replay.total_refs == step.total_refs
        assert replay.prefetched_refs == step.prefetched_refs

    def test_mid_run_reads_stay_exact(self):
        step, replay = lru_memories()
        a_step = step.array("a", 64, 8)
        a_replay = replay.array("a", 64, 8)
        for i in (0, 9, 18, 0):
            a_step.touch(i)
            a_replay.touch(i)
        assert replay.level_counts == step.level_counts  # mid-run
        for i in (27, 0, 9):
            a_step.touch(i)
            a_replay.touch(i)
        assert replay.level_counts == step.level_counts
        assert replay.stats() == step.stats()

    def test_invalid_backend_rejected(self):
        with pytest.raises(InvalidParameterError, match="cache_backend"):
            Memory(cache_backend="warp")

    def test_non_lru_hierarchy_falls_back_to_stepping(self):
        for policy in ("fifo", "random"):
            replay = Memory(
                make_hierarchy([(2, 2)], policy=policy),
                cache_backend="replay",
            )
            step = Memory(
                make_hierarchy([(2, 2)], policy=policy),
                cache_backend="step",
            )
            assert replay.replaying is False
            a_replay = replay.array("a", 64, 8)
            a_step = step.array("a", 64, 8)
            for i in (0, 8, 16, 0, 8):
                a_replay.touch(i)
                a_step.touch(i)
            assert replay.level_counts == step.level_counts

    def test_recording_wrapper_falls_back_but_still_records(self):
        inner = make_hierarchy([(2, 2)])
        wrapper = RecordingHierarchy(inner)
        memory = Memory(wrapper, cache_backend="replay")
        assert memory.replaying is False
        array = memory.array("a", 16, 8)
        array.touch(0)
        array.touch(8)
        assert wrapper.trace().shape[0] == 2

    def test_recorded_trace_requires_active_replay(self):
        memory = Memory(make_hierarchy([(2, 2)]), cache_backend="step")
        with pytest.raises(InvalidParameterError, match="replay"):
            memory.recorded_trace()

    def test_recorded_trace_freezes_current_touches(self):
        memory = Memory(
            make_hierarchy([(2, 2)]), cache_backend="replay"
        )
        array = memory.array("a", 64, 8)
        array.touch(0)
        array.touch_run(8, 16)
        trace = memory.recorded_trace()
        assert trace.num_accesses == trace.lines.shape[0] > 0
        assert trace.total_refs == memory.total_refs

    def test_touch_many_rejects_bad_indices_lazily(self):
        memory = Memory(
            make_hierarchy([(2, 2)]), cache_backend="replay"
        )
        array = memory.array("scores", 8, 8)
        array.touch_many(np.array([0, 12]))  # deferred: no error yet
        with pytest.raises(InvalidParameterError, match="'scores'"):
            memory.level_counts

    def test_touch_many_rejects_bad_dtype_and_shape(self):
        for backend in ("step", "replay"):
            memory = Memory(
                make_hierarchy([(2, 2)]), cache_backend=backend
            )
            array = memory.array("a", 8, 8)
            with pytest.raises(InvalidParameterError, match="integer"):
                array.touch_many(np.array([0.5, 1.0]))
            with pytest.raises(InvalidParameterError, match="1-D"):
                array.touch_many(np.array([[1], [2]]))

    def test_reset_discards_recorded_trace(self):
        step, replay = lru_memories()
        drive(step)
        drive(replay)
        step.reset()
        replay.reset()
        assert replay.level_counts == step.level_counts
        a_step = step.arrays["a"]
        a_replay = replay.arrays["a"]
        a_step.touch(0)
        a_replay.touch(0)
        assert replay.level_counts == step.level_counts


class TestAllAlgorithmsEquivalence:
    """Every traced algorithm: replay == step, counter for counter."""

    @pytest.mark.parametrize("name", sorted(algorithms.REGISTRY))
    def test_backend_equivalence(self, name, small_social):
        spec = algorithms.spec(name)
        results = {}
        for backend in ("step", "replay"):
            memory = Memory(
                make_hierarchy([(2, 2), (4, 4), (8, 8)]),
                cache_backend=backend,
            )
            spec.traced(small_social, memory)
            results[backend] = (
                memory.level_counts,
                memory.stats(),
                memory.cost(),
                memory.total_refs,
                memory.prefetched_refs,
            )
        assert results["replay"] == results["step"]
