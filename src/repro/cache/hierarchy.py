"""Multi-level cache hierarchy with a configurable geometry.

Access protocol: a reference probes L1; on a miss it falls through to
the next level, and so on to main memory.  Every level it reaches
counts one reference there, and every level it missed fills the line on
the way back (a simple non-exclusive model — the common behaviour of
the Intel parts used by both the original paper and the replication).

Two standard geometries are provided:

* :func:`paper_hierarchy` — the replication's SGI UV2000 Xeon:
  32 KiB L1 / 256 KiB L2 / 20 MiB L3, 64-byte lines.
* :func:`scaled_hierarchy` — the default for experiments on the scaled
  synthetic datasets: 1 KiB / 4 KiB / 16 KiB.  The scaling keeps
  the ratio (graph working set) : (cache capacity) in the regime the
  paper studies.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.cache import replay as trace_replay
from repro.cache.level import CacheLevel
from repro.cache.replay import hit_mask, lru_stack
from repro.cache.stats import CacheStats
from repro.errors import InvalidParameterError

#: Hit level returned by :meth:`CacheHierarchy.access` for main memory.
MEMORY_LEVEL = 0


class CacheHierarchy:
    """An ordered stack of :class:`CacheLevel` objects (L1 first)."""

    __slots__ = ("levels", "name", "_carried")

    def __init__(self, levels: list[CacheLevel], name: str = "cache") -> None:
        if not levels:
            raise InvalidParameterError(
                "a cache hierarchy needs at least one level"
            )
        line_sizes = {level.line_size for level in levels}
        if len(line_sizes) != 1:
            raise InvalidParameterError(
                f"all levels must share one line size, got {line_sizes}"
            )
        self.levels = list(levels)
        self.name = name
        #: Per level, the input of its last replay window (carried
        #: stack in front): :func:`lru_stack` of it is the level's
        #: state, extracted only when another window follows.
        self._carried: list[np.ndarray | None] = [None] * len(levels)

    # ------------------------------------------------------------------
    @property
    def line_size(self) -> int:
        """Line size in bytes (shared by every level)."""
        return self.levels[0].line_size

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def access(self, line: int) -> int:
        """Reference a cache line.

        Returns the 1-based level that served the reference, or
        :data:`MEMORY_LEVEL` (0) if it fell through to main memory.
        """
        for depth, level in enumerate(self.levels, start=1):
            if level.access(line):
                return depth
        return MEMORY_LEVEL

    def access_address(self, address: int) -> int:
        """Reference the line containing a byte address."""
        return self.access(address // self.line_size)

    # ------------------------------------------------------------------
    @property
    def supports_replay(self) -> bool:
        """Whether :meth:`replay` is exact for this geometry.

        Trace replay classifies hits by LRU stack distance, so every
        level must use the ``"lru"`` policy; FIFO/random levels need
        the scalar :meth:`access` path.
        """
        return all(level.policy == "lru" for level in self.levels)

    def replay(self, lines) -> np.ndarray:
        """Vectorised replay of a line-id access trace.

        Equivalent to calling :meth:`access` once per entry of
        ``lines``, as far as every level's ``refs``/``misses`` counters
        and each access's serving level are concerned.  Each level is
        classified array-wise with :func:`~repro.cache.replay.hit_mask`;
        the reference stream of level N+1 is the miss stream of level N
        (the non-exclusive fill model makes that exact).

        A call continues from the LRU state the previous ``replay``
        call left, the way :meth:`access` continues from its own;
        :meth:`flush` clears that state and :meth:`reset_statistics`
        keeps it.  Counters are *incremented*.  The state is carried
        separately from the scalar path's cache contents: replay
        neither reads nor fills what :meth:`access` sees.

        ``lines`` is classified in windows of
        :data:`~repro.cache.replay.WINDOW` accesses.  Before each
        window, every set's carried stack is played oldest first in
        front of its level's input, and the verdicts for that prefix
        are dropped.  The prefix rebuilds each set's stack exactly, so
        the result does not depend on the window boundaries, on either
        classifier path.

        Returns the 1-based serving level per access
        (:data:`MEMORY_LEVEL` for accesses that fell through).
        """
        if not self.supports_replay:
            raise InvalidParameterError(
                "trace replay is only exact for all-LRU hierarchies; "
                f"{self.name!r} has non-LRU levels"
            )
        stream = np.ascontiguousarray(lines, dtype=np.int64)
        n = stream.shape[0]
        window = trace_replay.WINDOW
        with obs.profile(
            "cache.replay.levels", accesses=n,
            levels=self.num_levels, hierarchy=self.name,
        ):
            if n <= window:
                serving = self._replay_window(stream)
            else:
                serving = np.empty(n, dtype=np.int16)
                for lo in range(0, n, window):
                    serving[lo:lo + window] = self._replay_window(
                        stream[lo:lo + window]
                    )
        # The last window may be a view of a larger array: carry a
        # copy so the hierarchy does not keep that array alive.
        first = self._carried[0]
        if first is not None and first.base is not None:
            self._carried[0] = first.copy()
        return serving

    def _replay_window(self, stream: np.ndarray) -> np.ndarray:
        """Serving levels of one window, carried state in front."""
        n = stream.shape[0]
        # Narrow bookkeeping dtypes: the per-level compress/scatter
        # passes are memory-bound and serving levels are tiny ints.
        serving = np.zeros(n, dtype=np.int16)
        origin = np.arange(
            n, dtype=np.int32 if n < (1 << 31) else np.int64
        )
        for depth, level in enumerate(self.levels, start=1):
            if stream.shape[0] == 0:
                break
            carried = self._carried[depth - 1]
            if carried is None:
                sequence = stream
            else:
                sequence = np.concatenate([
                    lru_stack(
                        carried, level.num_sets, level.associativity
                    ),
                    stream,
                ])
            hits = hit_mask(
                sequence, level.num_sets, level.associativity
            )[sequence.shape[0] - stream.shape[0]:]
            self._carried[depth - 1] = sequence
            misses = ~hits
            level.refs += int(stream.shape[0])
            level.misses += int(misses.sum())
            serving[origin[hits]] = depth
            stream = stream[misses]
            origin = origin[misses]
        return serving

    def step_trace(self, lines) -> np.ndarray:
        """Scalar reference replay: one :meth:`access` per entry.

        The oracle :meth:`replay` is checked against — identical
        counter and serving-level semantics — but built on the plain
        per-access step path, so it works for *any* replacement
        policy.  Unlike :meth:`replay` it also materialises the final
        cache contents, exactly as live stepping would.  Call on a
        cold (flushed) hierarchy for step-identical numbers.
        """
        stream = np.ascontiguousarray(lines, dtype=np.int64)
        access = self.access
        return np.fromiter(
            (access(line) for line in stream.tolist()),
            dtype=np.int64,
            count=stream.shape[0],
        )

    # ------------------------------------------------------------------
    def snapshot(self) -> CacheStats:
        """Current counters as a :class:`CacheStats` (3-level view).

        Hierarchies with fewer than three levels report zero for the
        missing ones; deeper hierarchies fold extra middle levels into
        L2 and always report the last level as L3.
        """
        first = self.levels[0]
        last = self.levels[-1]
        middle = self.levels[1:-1]
        l2_refs = sum(level.refs for level in middle)
        l2_misses = sum(level.misses for level in middle)
        if len(self.levels) == 1:
            return CacheStats(
                first.refs, first.misses, 0, 0, first.refs, first.misses
            )
        return CacheStats(
            first.refs,
            first.misses,
            l2_refs,
            l2_misses,
            last.refs,
            last.misses,
        )

    def publish_telemetry(self, prefix: str = "cache") -> None:
        """Add this hierarchy's per-level refs/misses to the telemetry
        counters (``cache.l1.refs``, ``cache.l1.misses``, ...).

        Counters accumulate across calls, so publishing after every
        simulated run totals the traffic of the whole process.  No-op
        while telemetry is disabled.
        """
        if not obs.enabled():
            return
        for level in self.levels:
            name = level.name.lower()
            obs.inc(f"{prefix}.{name}.refs", int(level.refs))
            obs.inc(f"{prefix}.{name}.misses", int(level.misses))

    def reset_statistics(self) -> None:
        """Zero all counters, keeping cache contents (for warm runs)."""
        for level in self.levels:
            level.reset_statistics()

    def flush(self) -> None:
        """Empty every level, drop the replay state and zero all
        counters (cold start)."""
        for level in self.levels:
            level.flush()
        self._carried = [None] * len(self.levels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(
            f"{level.name}={level.capacity >> 10}KiB" for level in self.levels
        )
        return f"CacheHierarchy({self.name}: {inner})"


def paper_hierarchy(line_size: int = 64) -> CacheHierarchy:
    """The replication's hardware: 32 KiB / 256 KiB / 20 MiB.

    20 MiB is not a power-of-two set count with 16 ways, so the L3 is
    rounded to the nearest valid geometry (16 MiB, 16-way).
    """
    return CacheHierarchy(
        [
            CacheLevel(32 * 1024, line_size, 8, "L1"),
            CacheLevel(256 * 1024, line_size, 8, "L2"),
            CacheLevel(16 * 1024 * 1024, line_size, 16, "L3"),
        ],
        name="paper",
    )


def scaled_hierarchy(
    l1: int = 1024,
    l2: int = 4 * 1024,
    l3: int = 16 * 1024,
    line_size: int = 64,
) -> CacheHierarchy:
    """The experiment default: a hierarchy scaled to the scaled datasets.

    The synthetic analogues are ~1/2000 of the paper's graphs, so the
    caches shrink with them to keep the **working-set-to-cache ratio**
    in the paper's regime: per-node property arrays (4 B x n, i.e.
    3-48 KiB here) relate to this 1 KiB / 4 KiB / 16 KiB hierarchy the
    way the paper's 9 MB-380 MB arrays relate to its real
    32 KiB / 256 KiB / 20 MiB one — the smallest dataset (epinion)
    almost fits in the last level, the largest overflows it by an
    order of magnitude.
    """
    return CacheHierarchy(
        [
            CacheLevel(l1, line_size, 8, "L1"),
            CacheLevel(l2, line_size, 8, "L2"),
            CacheLevel(l3, line_size, 16, "L3"),
        ],
        name="scaled",
    )
