"""Memory layout model: maps array elements to cache lines.

An instrumented algorithm does not touch real memory in any observable
way (CPython hides it); instead it declares the arrays a C
implementation would allocate — the CSR ``offsets``/``adjacency``
arrays plus its own property arrays — and *touches* elements as it
runs.  :class:`Memory` lays those arrays out contiguously (line-aligned
bases, realistic element sizes) and drives every touch through the
cache hierarchy, tallying which level served each reference.

This is the heart of the substitution documented in DESIGN.md: node
ids with close values land on the same cache line of the same array,
exactly the effect a graph ordering manipulates.

One production simulation path and one oracle (see
docs/performance.md):

* ``"replay"`` (the default) — touches are recorded into growable
  trace buffers (:class:`~repro.cache.replay.TraceBuffer`) and
  replayed vectorised through :meth:`CacheHierarchy.replay` the first
  time a result is read.  Unsupported geometries (non-LRU levels,
  wrapper hierarchies) silently fall back to stepping.
* ``"step"`` — every touch steps the hierarchy inline, one scalar
  :meth:`CacheHierarchy.access` at a time.  The reference oracle,
  byte-identical to replay on all-LRU hierarchies; only differential
  tests and ``bench --suite cache`` select it.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.cache.cost import DEFAULT_COST_MODEL, CostModel, RunCost
from repro.cache.hierarchy import CacheHierarchy, scaled_hierarchy
from repro.cache.replay import CacheTrace, TraceBuffer
from repro.cache.stats import CacheStats
from repro.errors import InvalidParameterError

#: Cache simulation backends accepted by :class:`Memory`.
CACHE_BACKENDS = ("step", "replay")


class TracedArray:
    """A declared array whose element accesses hit the simulator.

    Create via :meth:`Memory.array`.  ``touch(i)`` models reading or
    writing element ``i``; ``touch_many(indices)`` models one reference
    per index, in order (``touch_all`` is a retained alias);
    ``touch_run(start, count)`` models a sequential scan and exploits
    the guarantee that consecutive elements on one line hit L1 after
    the line is first referenced; ``touch_runs(starts, lengths)`` is
    its batched form.  ``element_lines(indices)`` exposes the
    element-to-line mapping for the frontier runtime's block emitter.
    """

    __slots__ = ("name", "length", "itemsize", "_base", "_memory")

    def __init__(
        self,
        name: str,
        length: int,
        itemsize: int,
        base: int,
        memory: "Memory",
    ) -> None:
        self.name = name
        self.length = length
        self.itemsize = itemsize
        self._base = base
        self._memory = memory

    def touch(self, index: int) -> None:
        """Model one reference to element ``index``.

        Out-of-range indices raise instead of silently aliasing the
        *neighbouring* array's cache lines (arrays are laid out
        contiguously, so a stale or negative index would otherwise
        corrupt the locality statistics without any symptom).
        """
        if index < 0 or index >= self.length:
            raise InvalidParameterError(
                f"touch({index}) is outside array {self.name!r} "
                f"of length {self.length}"
            )
        memory = self._memory
        line = (self._base + index * self.itemsize) >> memory._line_shift
        if memory._record:
            memory._trace.touches.append(line)
            memory._dirty = True
        else:
            memory._level_counts[memory._hierarchy.access(line)] += 1

    def touch_many(self, indices) -> None:
        """Model one reference per element of ``indices``, in order.

        Semantically ``for i in indices: self.touch(i)``; in replay
        mode the whole batch is captured as one vectorised trace
        segment, which removes the per-edge Python from the traced
        algorithms' hot loops.
        """
        idx = np.asarray(indices)
        if idx.ndim != 1:
            raise InvalidParameterError(
                f"touch_many expects a 1-D index array, got shape "
                f"{idx.shape}"
            )
        if idx.dtype.kind not in "iu":
            raise InvalidParameterError(
                f"touch_many expects integer indices, got dtype {idx.dtype}"
            )
        if idx.shape[0] == 0:
            return
        memory = self._memory
        if memory._record:
            # Deferred: conversion, bounds check and line arithmetic
            # all happen vectorised at freeze time (see TraceBuffer).
            memory._trace.record_many(
                idx, self._base, self.itemsize, self.length, self.name
            )
            memory._dirty = True
            return
        idx = idx.astype(np.int64, copy=False)
        if int(idx.min()) < 0 or int(idx.max()) >= self.length:
            raise InvalidParameterError(
                f"touch_many indices outside array {self.name!r} "
                f"of length {self.length}"
            )
        lines = (self._base + idx * self.itemsize) >> memory._line_shift
        counts = memory._level_counts
        access = memory._hierarchy.access
        for line in lines.tolist():
            counts[access(line)] += 1

    def touch_all(self, indices) -> None:
        """Alias of :meth:`touch_many` (the original spelling)."""
        self.touch_many(indices)

    def touch_run(self, start: int, count: int) -> None:
        """Model a sequential scan of ``count`` elements from ``start``.

        Each element counts as one reference (the hardware counters the
        paper reads count every load).  The first line of the run is a
        demand access; every following line is brought in by the
        stream prefetcher — it still updates cache state and hierarchy
        counters, but its latency is hidden (no stall contribution;
        see :meth:`CostModel.cost`).  Element references on a resident
        line are L1 hits by LRU.
        """
        if count <= 0:
            return
        if start < 0 or start + count > self.length:
            raise InvalidParameterError(
                f"touch_run({start}, {count}) is outside array "
                f"{self.name!r} of length {self.length}"
            )
        memory = self._memory
        shift = memory._line_shift
        itemsize = self.itemsize
        base = self._base
        first_line = (base + start * itemsize) >> shift
        last_line = (base + (start + count - 1) * itemsize) >> shift
        if memory._record:
            memory._trace.record_run(
                first_line, last_line - first_line + 1, count
            )
            memory._dirty = True
            return
        counts = memory._level_counts
        access = memory._hierarchy.access
        per_line = (1 << shift) // itemsize
        remaining = count
        # First (possibly partial) line: a demand access.
        offset_in_line = (
            (base + start * itemsize) & ((1 << shift) - 1)
        ) // itemsize
        on_first = min(remaining, per_line - offset_in_line)
        counts[access(first_line)] += 1
        counts[1] += on_first - 1
        remaining -= on_first
        # Subsequent lines: prefetched fills + L1-hit element reads.
        prefetched = 0
        line = first_line + 1
        while line <= last_line:
            on_line = min(remaining, per_line)
            access(line)
            prefetched += 1
            counts[1] += on_line
            remaining -= on_line
            line += 1
        memory._prefetched_refs += prefetched

    def touch_runs(self, starts, lengths) -> None:
        """Model a batch of sequential scans, in order.

        Semantically ``for s, c in zip(starts, lengths):
        self.touch_run(s, c)`` — zero-length runs are skipped, bounds
        are checked per run.  In replay mode the whole batch lands in
        the trace buffer with one vectorised append instead of one
        Python call per run.
        """
        s = np.asarray(starts)
        c = np.asarray(lengths)
        if s.ndim != 1 or c.ndim != 1 or s.shape != c.shape:
            raise InvalidParameterError(
                f"touch_runs expects aligned 1-D arrays, got shapes "
                f"{s.shape} and {c.shape}"
            )
        if s.dtype.kind not in "iu" or c.dtype.kind not in "iu":
            raise InvalidParameterError(
                f"touch_runs expects integer arrays, got dtypes "
                f"{s.dtype} and {c.dtype}"
            )
        s = s.astype(np.int64, copy=False)
        c = c.astype(np.int64, copy=False)
        live = c > 0
        if not live.all():
            s = s[live]
            c = c[live]
        if s.shape[0] == 0:
            return
        if int(s.min()) < 0 or int((s + c).max()) > self.length:
            raise InvalidParameterError(
                f"touch_runs spans outside array {self.name!r} "
                f"of length {self.length}"
            )
        memory = self._memory
        if memory._record:
            shift = memory._line_shift
            first = (self._base + s * self.itemsize) >> np.int64(shift)
            last = (
                self._base + (s + c - 1) * self.itemsize
            ) >> np.int64(shift)
            memory._trace.record_runs(first, last - first + 1, c)
            memory._dirty = True
            return
        for start, count in zip(s.tolist(), c.tolist()):
            self.touch_run(start, count)

    def element_lines(self, indices) -> np.ndarray:
        """Cache line ids of ``indices`` (vectorised, bounds-checked).

        The building block of the frontier runtime's batched emission:
        algorithms resolve whole per-iteration index vectors to line
        ids here and hand the assembled access stream to
        :meth:`Memory.touch_block` in one call.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.shape[0] and (
            int(idx.min()) < 0 or int(idx.max()) >= self.length
        ):
            raise InvalidParameterError(
                f"element_lines indices outside array {self.name!r} "
                f"of length {self.length}"
            )
        return (
            self._base + idx * self.itemsize
        ) >> np.int64(self._memory._line_shift)

    def line_of(self, index: int) -> int:
        """Cache line id of element ``index`` (for tests)."""
        return (
            self._base + index * self.itemsize
        ) >> self._memory._line_shift

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TracedArray({self.name}: {self.length} x {self.itemsize} B "
            f"@ {self._base:#x})"
        )


class Memory:
    """Simulated address space + cache hierarchy + cost accounting.

    ``cache_backend`` selects the simulation strategy (see the module
    docstring): ``"replay"`` records a trace and replays it
    vectorised, ``"step"`` is the scalar oracle.  Replay silently
    degrades to stepping when the hierarchy cannot be replayed exactly
    (non-LRU levels, or wrappers such as
    :class:`~repro.cache.reuse.RecordingHierarchy`), so results are
    backend-independent by construction.
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        cache_backend: str = "replay",
    ) -> None:
        if cache_backend not in CACHE_BACKENDS:
            raise InvalidParameterError(
                f"cache_backend must be one of {CACHE_BACKENDS}, "
                f"got {cache_backend!r}"
            )
        self._hierarchy = hierarchy or scaled_hierarchy()
        line_size = self._hierarchy.line_size
        self._line_shift = line_size.bit_length() - 1
        self._next_base = 0
        self.cost_model = cost_model
        self.cache_backend = cache_backend
        self._record = (
            cache_backend == "replay"
            and isinstance(self._hierarchy, CacheHierarchy)
            and self._hierarchy.supports_replay
        )
        self._trace: TraceBuffer | None = (
            TraceBuffer(self._line_shift) if self._record else None
        )
        self._dirty = False
        self._level_counts = [0] * (self._hierarchy.num_levels + 1)
        #: Pure-CPU cycles added via :meth:`work`.
        self.extra_work = 0.0
        self._prefetched_refs = 0
        self.arrays: dict[str, TracedArray] = {}

    # ------------------------------------------------------------------
    @property
    def hierarchy(self) -> CacheHierarchy:
        return self._hierarchy

    @property
    def replaying(self) -> bool:
        """Whether this memory actually records for vectorised replay
        (False when ``cache_backend="replay"`` fell back to stepping).
        """
        return self._record

    def recorded_trace(self) -> "CacheTrace":
        """The touches recorded so far, frozen as a
        :class:`~repro.cache.replay.CacheTrace` (replay backend only).

        The public handle for benchmarks and tests that want to drive
        :meth:`CacheHierarchy.replay` / :meth:`CacheHierarchy.step_trace`
        on a real workload's trace directly.
        """
        if not self._record:
            raise InvalidParameterError(
                "recorded_trace() requires an actively recording "
                "cache_backend='replay' memory"
            )
        return self._trace.freeze()

    def array(self, name: str, length: int, itemsize: int) -> TracedArray:
        """Declare (allocate) an array and return its traced handle.

        Arrays are laid out consecutively, each base aligned to a cache
        line — the layout a sensible C allocator would produce.
        ``itemsize`` may not exceed the line size: a multi-line element
        would make "the line of element i" ill-defined and previously
        sent ``touch_run`` into an infinite loop (``per_line == 0``).
        """
        if itemsize < 1 or (itemsize & (itemsize - 1)):
            raise InvalidParameterError(
                f"itemsize must be a positive power of two, got {itemsize}"
            )
        if itemsize > (1 << self._line_shift):
            raise InvalidParameterError(
                f"itemsize {itemsize} exceeds the cache line size "
                f"{1 << self._line_shift}; elements must fit one line"
            )
        if length < 0:
            raise InvalidParameterError(
                f"array length must be non-negative, got {length}"
            )
        if name in self.arrays:
            raise InvalidParameterError(
                f"array {name!r} is already declared"
            )
        array = TracedArray(name, length, itemsize, self._next_base, self)
        line_size = 1 << self._line_shift
        span = max(length * itemsize, 1)
        self._next_base += (span + line_size - 1) // line_size * line_size
        self.arrays[name] = array
        return array

    def work(self, cycles: float) -> None:
        """Account pure-CPU work that performs no data reference."""
        self.extra_work += cycles

    def touch_block(
        self,
        lines: np.ndarray,
        demand: np.ndarray,
        extra_l1: int = 0,
        prefetched: int = 0,
    ) -> None:
        """Drive a pre-resolved access block through the simulator.

        The frontier runtime's ingestion point: ``lines`` are int64
        cache line ids in exact emission order (resolved via
        :meth:`TracedArray.element_lines`, so they are valid by
        construction), ``demand`` marks which of them are demand
        accesses (``False`` = prefetched fill of a sequential scan:
        updates cache state but is not charged to ``level_counts``).
        ``extra_l1`` counts run-compressed element references that are
        L1 hits by construction; ``prefetched`` counts the ``False``
        entries for :attr:`prefetched_refs`.

        In replay mode the block is appended to the trace buffer by
        reference (one Python call per block); in step mode it is
        stepped scalar — exactly the accesses the scalar emitters
        would make, so backends stay counter-identical.
        """
        if lines.ndim != 1 or demand.shape != lines.shape:
            raise InvalidParameterError(
                f"touch_block expects aligned 1-D arrays, got shapes "
                f"{lines.shape} and {demand.shape}"
            )
        if self._record:
            self._trace.record_block(lines, demand, extra_l1, prefetched)
            self._dirty = True
            return
        counts = self._level_counts
        access = self._hierarchy.access
        for line, dem in zip(lines.tolist(), demand.tolist()):
            if dem:
                counts[access(line)] += 1
            else:
                access(line)
        counts[1] += extra_l1
        self._prefetched_refs += prefetched

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _ensure_replayed(self) -> None:
        """Replay the recorded trace if results are stale.

        Replay always recomputes from the *full* retained trace (LRU
        hit/miss depends on all prior state, so there is no exact
        incremental form) and overwrites the hierarchy counters, which
        keeps mid-run ``stats()`` calls exact.
        """
        if not self._record or not self._dirty:
            return
        trace = self._trace.freeze()
        with obs.span(
            "cache.replay",
            accesses=trace.num_accesses,
            demand=trace.num_demand,
        ):
            self._hierarchy.flush()
            serving = self._hierarchy.replay(trace.lines)
            counts = np.bincount(
                serving[trace.demand_idx],
                minlength=self._hierarchy.num_levels + 1,
            )
            self._level_counts = [int(c) for c in counts]
            self._level_counts[1] += trace.extra_l1
            self._prefetched_refs = trace.prefetched_refs
        if obs.enabled():
            obs.inc("cache.replay.runs")
            obs.inc("cache.replay.accesses", trace.num_accesses)
        self._dirty = False

    @property
    def level_counts(self) -> list[int]:
        """References by serving level: ``[memory, L1, L2, L3, ...]``.

        In replay mode reading this (or :meth:`stats`/:meth:`cost`)
        triggers the lazy vectorised replay, so the numbers always
        reflect every touch recorded so far.
        """
        self._ensure_replayed()
        return self._level_counts

    @property
    def prefetched_refs(self) -> int:
        """Sequential-scan references hidden by the stream prefetcher."""
        if self._record:
            return self._trace.prefetched_refs
        return self._prefetched_refs

    @property
    def total_refs(self) -> int:
        """Demand data references issued so far.

        Prefetched line fetches are tracked separately in
        :attr:`prefetched_refs`; they are requests the hardware issues
        on its own, not loads the program executes.
        """
        if self._record:
            return self._trace.total_refs
        return sum(self._level_counts)

    def stats(self) -> CacheStats:
        """Hierarchy counters as a :class:`CacheStats` snapshot."""
        self._ensure_replayed()
        return self._hierarchy.snapshot()

    def cost(self) -> RunCost:
        """Simulated cycle cost of everything traced so far."""
        self._ensure_replayed()
        return self.cost_model.cost(
            self._level_counts, self.extra_work, self.prefetched_refs
        )

    def reset(self) -> None:
        """Flush caches and zero counters; declared arrays survive."""
        self._hierarchy.flush()
        self._level_counts = [0] * (self._hierarchy.num_levels + 1)
        self.extra_work = 0.0
        self._prefetched_refs = 0
        if self._record:
            self._trace = TraceBuffer(self._line_shift)
            self._dirty = False
