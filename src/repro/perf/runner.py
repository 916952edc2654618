"""Run (algorithm x ordering x dataset) cells through the simulator.

One *run* = take a dataset analogue, relabel it with an ordering,
declare its arrays in a fresh simulated memory and execute the traced
algorithm.  The result bundles the simulated cycle cost (the paper's
"runtime"), the cache statistics (the paper's Tables 3/4 columns) and
the wall-clock time of the ordering computation (its Table 9 / the
replication's Table 2).

Orderings and relabeled graphs are memoised per graph and
:class:`~repro.ordering.OrderingConfig` because the big experiments
revisit the same cell many times.
The memo is a bounded LRU (entry and byte caps) so unattended
full-profile sweeps cannot grow memory without limit.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.algorithms import base as algorithms
from repro.cache import (
    DEFAULT_COST_MODEL,
    CacheHierarchy,
    CacheStats,
    CostModel,
    Memory,
    RunCost,
    scaled_hierarchy,
)
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.graph.permute import relabel
from repro.ordering.base import OrderingConfig


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated algorithm run."""

    dataset: str
    algorithm: str
    ordering: str
    cost: RunCost
    stats: CacheStats
    #: Wall-clock seconds to compute the ordering (0 when memoised).
    ordering_seconds: float
    #: Wall-clock seconds spent simulating (diagnostic only).
    simulation_seconds: float

    @property
    def cycles(self) -> float:
        """Total simulated cycles — the runtime the figures compare."""
        return self.cost.total_cycles


@dataclass
class _CacheEntry:
    """One memoised (graph, ordering config) cell."""

    perm: np.ndarray
    seconds: float
    graph: CSRGraph | None = None

    @property
    def nbytes(self) -> int:
        total = int(self.perm.nbytes)
        if self.graph is not None:
            total += int(self.graph.offsets.nbytes)
            total += int(self.graph.adjacency.nbytes)
        return total


def _env_int(name: str) -> int | None:
    value = os.environ.get(name)
    return int(value) if value else None


class OrderingCache:
    """Memoises permutations and relabeled graphs per graph object.

    Keys include ``id(graph)``; the keyed graph object is pinned in
    ``_pinned`` so its id cannot be recycled by the allocator while
    any cache entry for it lives (a classic stale-memoisation hazard).

    The cache is a bounded LRU: ``max_entries`` caps the number of
    memoised (graph, ordering config) pairs and ``max_bytes`` caps
    the approximate array bytes held, so a full-profile sweep cannot
    grow memory without limit.  Evictions only cost a recompute and
    are counted on the ``runner.ordering_cache_evictions`` telemetry
    counter.  Either cap may be ``None`` (unbounded).

    The cache is **thread-safe**: every structural mutation (insert,
    LRU move-to-end, eviction, pin bookkeeping, clear) happens under
    one reentrant lock, so the serve daemon's worker threads can
    share :data:`GLOBAL_ORDERING_CACHE` without corrupting the LRU
    order or double-evicting pins.  Ordering computation and graph
    relabeling run *outside* the lock — two threads missing on the
    same key may both compute, and the first insert wins; that costs
    a duplicate compute, never a corrupted cache.
    """

    def __init__(
        self,
        max_entries: int | None = 128,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise InvalidParameterError(
                "max_entries must be >= 1 or None"
            )
        if max_bytes is not None and max_bytes < 1:
            raise InvalidParameterError("max_bytes must be >= 1 or None")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        self._entries: OrderedDict[
            tuple[int, str, int, tuple], _CacheEntry
        ] = OrderedDict()
        self._pinned: dict[int, CSRGraph] = {}
        self._pin_counts: dict[int, int] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def nbytes(self) -> int:
        """Approximate bytes held by memoised arrays."""
        with self._lock:
            return sum(
                entry.nbytes for entry in self._entries.values()
            )

    def _pin(self, graph: CSRGraph) -> None:
        graph_id = id(graph)
        self._pinned[graph_id] = graph
        self._pin_counts[graph_id] = (
            self._pin_counts.get(graph_id, 0) + 1
        )

    def _unpin(self, graph_id: int) -> None:
        remaining = self._pin_counts.get(graph_id, 0) - 1
        if remaining <= 0:
            self._pin_counts.pop(graph_id, None)
            self._pinned.pop(graph_id, None)
        else:
            self._pin_counts[graph_id] = remaining

    def _evict_over_caps(self) -> None:
        def over() -> bool:
            if (
                self.max_entries is not None
                and len(self._entries) > self.max_entries
            ):
                return True
            return (
                self.max_bytes is not None
                and self.nbytes() > self.max_bytes
            )

        # Keep at least the newest entry so the current lookup's
        # result is always returned memoised.
        while len(self._entries) > 1 and over():
            key, _ = self._entries.popitem(last=False)
            self._unpin(key[0])
            obs.inc("runner.ordering_cache_evictions")

    def _lookup(
        self, key: tuple[int, str, int, tuple]
    ) -> _CacheEntry | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def permutation(
        self,
        graph: CSRGraph,
        ordering: str,
        seed: int,
        params: dict | None = None,
    ) -> tuple[np.ndarray, float]:
        """The arrangement for (graph, ordering, seed, params) + time.

        ``params`` are ordering keyword arguments (e.g. ``window``),
        normalised by :class:`~repro.ordering.OrderingConfig`: runs
        with different declared parameters never share a cached
        arrangement, and parameters the ordering does not declare do
        not split the memo.
        """
        return self.get(graph, OrderingConfig(ordering, seed, params))

    def get(
        self, graph: CSRGraph, config: OrderingConfig
    ) -> tuple[np.ndarray, float]:
        """The arrangement ``config`` names for ``graph`` + time."""
        key = (id(graph), *config.key())
        with self._lock:
            entry = self._lookup(key)
        if entry is not None:
            obs.inc("runner.ordering_memo_hits")
            return entry.perm, entry.seconds
        obs.inc("runner.ordering_memo_misses")
        with obs.span(
            "ordering.compute",
            ordering=config.ordering,
            dataset=graph.name,
            n=graph.num_nodes,
            seed=config.seed,
        ):
            start = time.perf_counter()
            perm = config.compute(graph)
            seconds = time.perf_counter() - start
        entry = _CacheEntry(perm=perm, seconds=seconds)
        with self._lock:
            existing = self._lookup(key)
            if existing is not None:
                # Another thread computed and inserted first; its
                # entry (and pin) stands, ours is discarded.
                return existing.perm, existing.seconds
            self._entries[key] = entry
            self._pin(graph)
            self._evict_over_caps()
        return entry.perm, entry.seconds

    def insert(
        self,
        graph: CSRGraph,
        config: OrderingConfig,
        perm: np.ndarray,
        seconds: float,
    ) -> None:
        """Pre-seed the memo with an externally computed arrangement.

        The serve daemon's shared :class:`~repro.serve.store.\
OrderingStore` computes (or disk-loads) orderings once per logical
        key; inserting them here lets :func:`simulate` reuse them
        without recomputing.  An existing entry is kept.
        """
        key = (id(graph), *config.key())
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = _CacheEntry(
                perm=perm, seconds=seconds
            )
            self._pin(graph)
            self._evict_over_caps()

    def relabeled(
        self, graph: CSRGraph, config: OrderingConfig
    ) -> tuple[CSRGraph, np.ndarray, float]:
        """Relabeled graph, arrangement and ordering compute time."""
        key = (id(graph), *config.key())
        perm, seconds = self.get(graph, config)
        with self._lock:
            entry = self._entries.get(key)
            cached = entry.graph if entry is not None else None
        if cached is not None:
            return cached, perm, seconds
        relabeled = relabel(graph, perm)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                # Evicted while relabeling: return the fresh graph
                # uncached rather than resurrect the entry.
                return relabeled, perm, seconds
            if entry.graph is None:
                entry.graph = relabeled
                self._evict_over_caps()
            return entry.graph, perm, seconds

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._pinned.clear()
            self._pin_counts.clear()


#: Default shared cache (cleared freely; it is only a memoisation).
#: Bound it via ``REPRO_ORDERING_CACHE_ENTRIES`` /
#: ``REPRO_ORDERING_CACHE_BYTES`` (defaults: 128 entries, no byte cap).
GLOBAL_ORDERING_CACHE = OrderingCache(
    max_entries=_env_int("REPRO_ORDERING_CACHE_ENTRIES") or 128,
    max_bytes=_env_int("REPRO_ORDERING_CACHE_BYTES"),
)


def run_cell(
    graph: CSRGraph,
    algorithm: str,
    ordering: str,
    seed: int = 0,
    params: dict | None = None,
    hierarchy: CacheHierarchy | None = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    cache: OrderingCache | None = None,
    dataset_name: str | None = None,
    ordering_params: dict | None = None,
    cache_backend: str = "replay",
    algo_backend: str = "runtime",
    cancel_check: Callable[[], None] | None = None,
) -> RunResult:
    """Execute one experiment cell and return its :class:`RunResult`.

    The ordering is named by ``ordering``, ``seed`` and
    ``ordering_params``, normalised into one
    :class:`~repro.ordering.OrderingConfig`; see :func:`simulate`
    for the other arguments.
    """
    return simulate(
        graph,
        algorithm,
        OrderingConfig(ordering, seed, ordering_params),
        params=params,
        hierarchy=hierarchy,
        cost_model=cost_model,
        cache=cache,
        dataset_name=dataset_name,
        cache_backend=cache_backend,
        algo_backend=algo_backend,
        cancel_check=cancel_check,
    )


def simulate(
    graph: CSRGraph,
    algorithm: str,
    config: OrderingConfig,
    params: dict | None = None,
    hierarchy: CacheHierarchy | None = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    cache: OrderingCache | None = None,
    dataset_name: str | None = None,
    cache_backend: str = "replay",
    algo_backend: str = "runtime",
    cancel_check: Callable[[], None] | None = None,
) -> RunResult:
    """Run ``algorithm`` on ``graph`` arranged by ``config``.

    ``params`` are forwarded to the traced algorithm; any parameter
    named in the algorithm's ``source_params`` is interpreted as
    *logical* node ids on the original graph and mapped through the
    ordering's permutation, so every ordering does identical work.
    ``cache_backend``/``algo_backend`` only forward
    :class:`~repro.perf.experiments.Profile`'s fields to the simulator
    (:class:`~repro.cache.Memory`, :func:`repro.algorithms.traced_fn`);
    the defaults are the production path, and the scalar oracles are
    counter-identical to it.
    ``cancel_check`` is a cooperative cancellation hook (the serve
    daemon's deadline enforcement): it is invoked at the phase
    boundaries of the run — before the ordering is computed, after
    relabeling, and before the simulation — and should raise to
    abandon the run.
    """
    # None check, not truthiness: an empty OrderingCache is falsy.
    cache = GLOBAL_ORDERING_CACHE if cache is None else cache
    algorithm_spec = algorithms.spec(algorithm)
    traced = algorithms.traced_fn(algorithm_spec, algo_backend)
    if cancel_check is not None:
        cancel_check()
    relabeled, perm, ordering_seconds = cache.relabeled(graph, config)
    if cancel_check is not None:
        cancel_check()
    run_params = dict(params or {})
    for key in algorithm_spec.source_params:
        if key in run_params:
            value = run_params[key]
            if np.isscalar(value):
                run_params[key] = int(perm[int(value)])
            else:
                run_params[key] = [int(perm[int(v)]) for v in value]
    hierarchy = hierarchy or scaled_hierarchy()
    memory = Memory(
        hierarchy, cost_model=cost_model, cache_backend=cache_backend
    )
    if cancel_check is not None:
        cancel_check()
    with obs.span(
        "run.simulate",
        dataset=dataset_name or graph.name,
        algorithm=algorithm_spec.name,
        ordering=config.ordering,
        seed=config.seed,
        cache_backend=cache_backend,
        algo_backend=algo_backend,
    ):
        start = time.perf_counter()
        traced(relabeled, memory, **run_params)
        # Reading cost/stats triggers the lazy replay (if any) inside
        # the timed simulate span, and before the counter publish.
        cost = memory.cost()
        stats = memory.stats()
        simulation_seconds = time.perf_counter() - start
    hierarchy.publish_telemetry()
    return RunResult(
        dataset=dataset_name or graph.name,
        algorithm=algorithm_spec.name,
        ordering=config.ordering,
        cost=cost,
        stats=stats,
        ordering_seconds=ordering_seconds,
        simulation_seconds=simulation_seconds,
    )


def time_ordering(
    graph: CSRGraph, config: OrderingConfig, repeats: int = 1
) -> float:
    """Wall-clock seconds to compute an ordering (no memoisation).

    Returns the minimum over ``repeats`` timings, the standard
    noise-robust estimator for Table 2.
    """
    best = float("inf")
    for _ in range(max(repeats, 1)):
        with obs.span(
            "ordering.compute",
            ordering=config.ordering,
            dataset=graph.name,
            n=graph.num_nodes,
            seed=config.seed,
        ):
            start = time.perf_counter()
            config.compute(graph)
            best = min(best, time.perf_counter() - start)
    return best
