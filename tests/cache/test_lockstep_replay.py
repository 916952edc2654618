"""Lockstep replay: the blocked classifier's wide-window path.

When a level's window cuts into at least
``repro.cache.replay.LOCKSTEP_MIN_ROWS`` blocks, the blocked classifier
replays every block's LRU stack at once, one column per step, instead
of counting inversions.  The threshold is a module constant, so these
tests monkeypatch it to 1 to put every trace on that path: verdicts
must equal the merge-counting reference, alone and with stacks carried
between windows and calls.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheHierarchy, CacheLevel
from repro.cache import replay as trace_replay
from repro.cache.replay import hit_mask, lru_hit_mask

#: (num_sets, ways): direct-mapped, fully associative, odd ways, the
#: scaled L1/L2/L3 shapes and the widest stack the fast path takes.
GEOMETRIES = [(1, 1), (1, 4), (2, 3), (2, 8), (8, 8), (16, 16), (4, 64)]


@st.composite
def traces(draw):
    """A random line trace of up to 3 000 accesses over few or many
    distinct lines, with runs of repeats (the distance-0 collapse)."""
    length = draw(st.integers(min_value=1, max_value=3000))
    distinct = draw(st.sampled_from([2, 12, 61, 400, 5000]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, distinct, size=length)
    repeat = rng.random(length) < 0.2
    repeat[0] = False
    for i in np.flatnonzero(repeat).tolist():
        lines[i] = lines[i - 1]
    return lines.astype(np.int64)


def count_lockstep(patch):
    """Wrap the lockstep replay so a test sees that it ran; returns
    the list of block counts, one per call."""
    calls = []
    lockstep = trace_replay._lockstep_hits

    def counted(data, states, columns):
        calls.append(data.shape[0])
        return lockstep(data, states, columns)

    patch.setattr(trace_replay, "_lockstep_hits", counted)
    return calls


class TestLockstepMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(lines=traces(), geometry=st.sampled_from(GEOMETRIES))
    def test_hit_mask(self, lines, geometry):
        num_sets, ways = geometry
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_replay, "LOCKSTEP_MIN_ROWS", 1)
            got = hit_mask(lines, num_sets, ways)
        assert np.array_equal(got, lru_hit_mask(lines, num_sets, ways))

    @pytest.mark.parametrize("num_sets, ways", GEOMETRIES)
    def test_every_geometry_takes_the_path(self, num_sets, ways):
        lines = np.random.default_rng(5).integers(
            0, 8 * num_sets * ways, size=3000
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_replay, "LOCKSTEP_MIN_ROWS", 1)
            calls = count_lockstep(patch)
            got = hit_mask(lines, num_sets, ways)
        assert calls
        assert np.array_equal(got, lru_hit_mask(lines, num_sets, ways))

    @settings(max_examples=40, deadline=None)
    @given(
        lines=traces(),
        window=st.integers(min_value=1, max_value=700),
        cut=st.integers(min_value=0, max_value=3000),
    )
    def test_windowed_hierarchy_replay(self, lines, window, cut):
        """Carried stacks played in front of each window meet the
        lockstep path at every level; serving levels and counters
        equal the scalar step oracle."""
        def hierarchy():
            return CacheHierarchy([
                CacheLevel(2 * 3 * 64, 64, 3, "L1"),
                CacheLevel(4 * 8 * 64, 64, 8, "L2"),
                CacheLevel(8 * 16 * 64, 64, 16, "L3"),
            ])

        stepped = hierarchy()
        expected = stepped.step_trace(lines)
        replayed = hierarchy()
        cut = min(cut, lines.size)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_replay, "LOCKSTEP_MIN_ROWS", 1)
            patch.setattr(trace_replay, "WINDOW", window)
            got = np.concatenate([
                replayed.replay(lines[:cut]), replayed.replay(lines[cut:])
            ])
        assert np.array_equal(got, expected)
        assert [
            (level.refs, level.misses) for level in replayed.levels
        ] == [(level.refs, level.misses) for level in stepped.levels]


class TestWideWindow:
    """One full window of the scaled L1 (2 sets x 8 ways)."""

    N = 1 << 18

    @pytest.fixture(scope="class")
    def stream(self):
        return np.random.default_rng(11).integers(
            0, 4096, size=self.N, dtype=np.int64
        )

    def test_takes_the_lockstep_path_by_default(self, stream):
        with pytest.MonkeyPatch.context() as patch:
            calls = count_lockstep(patch)
            got = hit_mask(stream, 2, 8)
        assert calls and calls[0] >= trace_replay.LOCKSTEP_MIN_ROWS
        assert np.array_equal(got, lru_hit_mask(stream, 2, 8))

    def test_peak_memory_per_access(self, stream):
        hit_mask(stream, 2, 8)  # warm numpy's allocator caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            hit_mask(stream, 2, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_access = (peak - base) / self.N
        # 55 B here; the inversion pyramid took 136 B on this stream.
        assert per_access <= 64, f"{per_access:.1f} B per access"
