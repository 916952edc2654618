"""Run (algorithm x ordering x dataset) cells through the simulator.

One *run* = take a dataset analogue, relabel it with an ordering,
declare its arrays in a fresh simulated memory and execute the traced
algorithm.  The result bundles the simulated cycle cost (the paper's
"runtime"), the cache statistics (the paper's Tables 3/4 columns) and
the wall-clock time of the ordering computation (its Table 9 / the
replication's Table 2).

Orderings and relabeled graphs are memoised per graph content and
:class:`~repro.ordering.OrderingConfig`, because the big experiments
revisit the same cell many times and an ordering pays off only when
its cost is spread over many runs.  The memo is a bounded LRU (entry
and byte caps), so unattended full-profile sweeps cannot grow memory
without limit, with an optional crash-safe spill directory that the
serve daemon uses to keep orderings across restarts.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.algorithms import base as algorithms
from repro.cache import (
    DEFAULT_COST_MODEL,
    CacheHierarchy,
    CacheStats,
    CostModel,
    RunCost,
    scaled_hierarchy,
)
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.graph.permute import relabel
from repro.ioutil import atomic_open
from repro.ordering.base import OrderingConfig

#: Spill file schema version (bumped on incompatible layout changes;
#: 2 records the graph fingerprint).
SPILL_VERSION = 2

#: Suffix appended to a quarantined spill file.
QUARANTINE_SUFFIX = ".quarantined"

_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated algorithm run."""

    dataset: str
    algorithm: str
    ordering: str
    cost: RunCost
    stats: CacheStats
    #: Wall-clock seconds to compute the ordering; a memoised
    #: ordering reports the time its computation took.
    ordering_seconds: float
    #: Wall-clock seconds spent simulating (diagnostic only).
    simulation_seconds: float

    @property
    def cycles(self) -> float:
        """Total simulated cycles — the runtime the figures compare."""
        return self.cost.total_cycles


@dataclass
class _CacheEntry:
    """One memoised (graph content, ordering config) cell."""

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


class _Flight:
    """State shared by the leader and followers of one key."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None


class SingleFlight:
    """Deduplicate concurrent calls for the same key.

    The first caller for a key becomes the *leader* and runs the
    function; callers arriving while it runs become *followers* and
    wait for its result.  Each caller's ``cancel_check`` runs before
    it joins a flight and while it waits as a follower, and raises to
    abandon the call.  A leader starts the function as soon as it
    joins, so only an error of the function reaches the followers,
    never the leader's own cancellation or deadline; they can retry
    with a fresh flight.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[Any, _Flight] = {}
        #: Calls that waited on another caller's flight.
        self.shared = 0

    def do(
        self,
        key: Any,
        fn: Callable[[], Any],
        cancel_check: Callable[[], None] | None = None,
    ) -> Any:
        """Run ``fn`` once per concurrent ``key``; share the result."""
        if cancel_check is not None:
            cancel_check()
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = self._flights[key] = _Flight()
            else:
                self.shared += 1
        if leader:
            try:
                flight.result = fn()
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                with self._lock:
                    self._flights.pop(key, None)
                flight.done.set()
            return flight.result
        while not flight.done.wait(timeout=0.02):
            if cancel_check is not None:
                cancel_check()
        if flight.error is not None:
            raise flight.error
        return flight.result


class OrderingCache:
    """Memoises permutations and relabeled graphs by graph content.

    Entries are keyed by ``(graph.fingerprint, *config.key())``: graph
    objects with equal content share an entry, and a freed graph
    leaves no key behind that a new graph could alias.  The cache
    holds no reference to the graphs it was asked about.

    Memory is a bounded LRU: ``max_entries`` caps the number of
    memoised (graph, ordering config) pairs and ``max_bytes`` the
    approximate array bytes held, so a full-profile sweep cannot grow
    memory without limit.  Evictions only cost a recompute (or a disk
    load) and are counted as ``cache_evictions``.  Either cap may be
    ``None`` (unbounded).

    ``spill_root`` adds a disk tier.  Every computed ordering is
    spilled to an ``.npz`` file through the atomic
    :mod:`repro.ioutil` layer (temp file + fsync + rename + directory
    fsync), so a ``kill -9`` mid-spill leaves at worst a stray
    ``*.tmp``.  An ordering evicted from memory reloads from disk
    instead of recomputing, and :meth:`warm` rebuilds the memory set
    after a restart.  A corrupt, torn or out-of-date spill file is
    **quarantined** (renamed aside with a warning), never a crash; a
    spill written for a graph of other content is a miss, recomputed
    and overwritten.

    The cache is **thread-safe**: structural mutation happens under
    one reentrant lock, while computation, disk I/O and relabeling
    run outside it.  Concurrent misses on one key share one
    computation through :class:`SingleFlight`.
    """

    def __init__(
        self,
        max_entries: int | None = 128,
        max_bytes: int | None = None,
        spill_root: str | Path | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise InvalidParameterError(
                "max_entries must be >= 1 or None"
            )
        if max_bytes is not None and max_bytes < 1:
            raise InvalidParameterError("max_bytes must be >= 1 or None")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.spill_root = Path(spill_root) if spill_root else None
        if self.spill_root is not None:
            self.spill_root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        self._counts: dict[str, int] = {}
        self._flights = SingleFlight()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def nbytes(self) -> int:
        """Approximate bytes held by memoised arrays."""
        with self._lock:
            return sum(
                entry.nbytes for entry in self._entries.values()
            )

    def counts(self) -> dict[str, int]:
        """Memo events so far, by name (each present once nonzero):
        ``memo_hits``, ``memo_misses``, ``disk_hits``, ``computed``,
        ``cache_evictions``, ``spills``, ``quarantined``, ``warmed``,
        ``stray_tmp`` and ``singleflight_shared``."""
        with self._lock:
            counts = dict(self._counts)
        if self._flights.shared:
            counts["singleflight_shared"] = self._flights.shared
        return counts

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount
        obs.inc(f"runner.ordering_{name}", amount)

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
            self._entries.popitem(last=False)
            self._count("cache_evictions")

    def _hit(self, key: tuple) -> _CacheEntry | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._count("memo_hits")
        return entry

    def _insert(self, key: tuple, entry: _CacheEntry) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._evict_over_caps()

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
        perm, seconds, _ = self.get(
            graph, OrderingConfig(ordering, seed, params)
        )
        return perm, seconds

    def get(
        self,
        graph: CSRGraph,
        config: OrderingConfig,
        cancel_check: Callable[[], None] | None = None,
    ) -> tuple[np.ndarray, float, str]:
        """The arrangement ``config`` names for ``graph``, its compute
        time, and where it came from: ``memory``, ``disk`` or
        ``computed``.

        ``cancel_check`` bounds a wait on another caller's
        computation of the same key, and stops this caller before it
        starts one; it raises to abandon the lookup.
        """
        entry, source = self._fetch(graph, config, cancel_check)
        return entry.perm, entry.seconds, source

    def _fetch(
        self,
        graph: CSRGraph,
        config: OrderingConfig,
        cancel_check: Callable[[], None] | None,
    ) -> tuple[_CacheEntry, str]:
        key = (graph.fingerprint, *config.key())
        with self._lock:
            entry = self._hit(key)
        if entry is not None:
            return entry, "memory"
        return self._flights.do(
            key, lambda: self._miss(key, graph, config), cancel_check
        )

    def _miss(
        self, key: tuple, graph: CSRGraph, config: OrderingConfig
    ) -> tuple[_CacheEntry, str]:
        with self._lock:
            # A flight on this key may have landed since the lookup.
            entry = self._hit(key)
        if entry is not None:
            return entry, "memory"
        self._count("memo_misses")
        entry = self._load_spill(key, graph, config)
        if entry is not None:
            self._insert(key, entry)
            self._count("disk_hits")
            return entry, "disk"
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
        self._insert(key, entry)
        self._count("computed")
        self._spill(graph, config, entry)
        return entry, "computed"

    def relabeled(
        self,
        graph: CSRGraph,
        config: OrderingConfig,
        cancel_check: Callable[[], None] | None = None,
    ) -> tuple[CSRGraph, np.ndarray, float]:
        """Relabeled graph, arrangement and ordering compute time."""
        entry, _ = self._fetch(graph, config, cancel_check)
        if entry.graph is None:
            fresh = relabel(graph, entry.perm)
            with self._lock:
                if entry.graph is None:
                    entry.graph = fresh
                    self._evict_over_caps()
        return entry.graph, entry.perm, entry.seconds

    def clear(self) -> None:
        """Drop every memoised entry (spill files stay on disk)."""
        with self._lock:
            self._entries.clear()

    # -- the spill tier ------------------------------------------------
    def spill_path(
        self, name: str, config: OrderingConfig
    ) -> Path | None:
        """The spill file of ``config`` for a graph named ``name``
        (``None`` without a spill root)."""
        if self.spill_root is None:
            return None
        params_json = json.dumps(
            config.params, sort_keys=True, default=str
        )
        digest = hashlib.sha256(params_json.encode()).hexdigest()[:10]
        safe = "--".join(
            _SAFE_NAME.sub("_", part)
            for part in (name, config.ordering, f"s{config.seed}")
        )
        return self.spill_root / f"{safe}--{digest}.npz"

    def _spill(
        self, graph: CSRGraph, config: OrderingConfig, entry: _CacheEntry
    ) -> None:
        path = self.spill_path(graph.name, config)
        if path is None:
            return
        meta = json.dumps(
            {
                "version": SPILL_VERSION,
                "graph": graph.name,
                "fingerprint": graph.fingerprint,
                **config.as_json(),
                "seconds": entry.seconds,
            },
            default=str,
        )
        with atomic_open(path, "wb") as handle:
            np.savez_compressed(
                handle, perm=entry.perm, meta=np.array(meta)
            )
        self._count("spills")

    def _load_spill(
        self, key: tuple, graph: CSRGraph, config: OrderingConfig
    ) -> _CacheEntry | None:
        path = self.spill_path(graph.name, config)
        if path is None or not path.exists():
            return None
        parsed = self._read_spill(path)
        # A spill written for another graph of this name is a miss;
        # the recompute overwrites it.
        if parsed is None or parsed[0] != key:
            return None
        return parsed[1]

    def _read_spill(
        self, path: Path
    ) -> tuple[tuple, _CacheEntry] | None:
        """Parse one spill file into its memo key and entry.

        A file that is torn, of another :data:`SPILL_VERSION`, or
        whose metadata names no valid config (an ordering since
        removed, an undeclared parameter) is quarantined, not raised.
        """
        try:
            with np.load(path, allow_pickle=False) as data:
                perm = np.asarray(data["perm"])
                meta = json.loads(str(data["meta"]))
            if perm.ndim != 1 or not np.issubdtype(
                perm.dtype, np.integer
            ):
                raise InvalidParameterError(
                    "spill permutation is not a 1-D integer array"
                )
            if meta.get("version") != SPILL_VERSION:
                raise InvalidParameterError(
                    f"spill version {meta.get('version')!r} != "
                    f"{SPILL_VERSION}"
                )
            config = OrderingConfig.strict(
                meta["ordering"],
                meta["seed"],
                dict(meta.get("params", ())),
            )
            key = (str(meta["fingerprint"]), *config.key())
            return key, _CacheEntry(perm, float(meta.get("seconds", 0.0)))
        # _quarantine() records a warning event naming path + reason.
        except Exception as exc:  # repro: noqa[REP003] — quarantined
            self._quarantine(path, repr(exc))
            return None

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt spill file aside; never raise."""
        try:
            path.replace(path.with_name(path.name + QUARANTINE_SUFFIX))
        except OSError:
            # The file vanished or the rename failed; removing it is
            # the next-best containment.
            path.unlink(missing_ok=True)
        self._count("quarantined")
        obs.event(
            "runner.ordering_spill_quarantine",
            level="warning",
            path=str(path),
            reason=reason,
        )

    def warm(self) -> int:
        """Rebuild the memory set from the spill directory.

        Stray ``*.tmp`` files (a kill mid-spill) are removed; corrupt
        spill files are quarantined with a warning.  Returns the
        number of orderings loaded.
        """
        if self.spill_root is None:
            return 0
        for stray in sorted(self.spill_root.glob("*.tmp")):
            stray.unlink(missing_ok=True)
            self._count("stray_tmp")
        loaded = 0
        for path in sorted(self.spill_root.glob("*.npz")):
            parsed = self._read_spill(path)
            if parsed is not None:
                self._insert(*parsed)
                loaded += 1
        if loaded:
            self._count("warmed", loaded)
        return loaded


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

    The run itself is :func:`repro.algorithms.run_arranged`: ``params``
    are forwarded to the traced algorithm, with any parameter named in
    the algorithm's ``source_params`` read as *logical* node ids on the
    original graph, so every ordering does identical work.
    ``cache_backend``/``algo_backend`` only forward
    :class:`~repro.perf.experiments.Profile`'s fields to the simulator
    (:class:`~repro.cache.Memory`, :func:`repro.algorithms.traced_fn`);
    the defaults are the production path, and the scalar oracles are
    counter-identical to it.
    ``cancel_check`` is a cooperative cancellation hook (the serve
    daemon's deadline enforcement): it is invoked at the phase
    boundaries of the run — before the ordering is computed, and
    between relabeling and the simulation — and while the run waits
    on another caller's computation of the same ordering; it should
    raise to abandon the run.
    """
    # None check, not truthiness: an empty OrderingCache is falsy.
    cache = GLOBAL_ORDERING_CACHE if cache is None else cache
    algorithm_spec = algorithms.spec(algorithm)
    if cancel_check is not None:
        cancel_check()
    relabeled, perm, ordering_seconds = cache.relabeled(
        graph, config, cancel_check
    )
    if cancel_check is not None:
        cancel_check()
    hierarchy = hierarchy or scaled_hierarchy()
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
        cost, stats = algorithms.run_arranged(
            algorithm_spec.name, relabeled, perm, params,
            hierarchy=hierarchy, cost_model=cost_model,
            cache_backend=cache_backend, algo_backend=algo_backend,
        )
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
