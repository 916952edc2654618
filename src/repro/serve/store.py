"""The shared ordering store: sharded memory LRU + crash-safe spill.

The store replaces direct :data:`~repro.perf.runner.GLOBAL_ORDERING_CACHE`
use inside the service.  It differs from the in-process memo in three
service-shaped ways:

* **Keys are logical** — a dataset name plus the
  :class:`~repro.ordering.OrderingConfig` key, not ``id(graph)`` — so
  entries survive process restarts and can be rebuilt from disk.
* **Sharded locking** — the key space is hashed across independent
  shards, each with its own lock and LRU, so concurrent workers
  rarely contend.
* **Crash-safe spill** — every computed ordering is spilled to an
  ``.npz`` file through the atomic :mod:`repro.ioutil` layer (temp
  file + fsync + rename + directory fsync), so a ``kill -9``
  mid-spill leaves at worst a stray ``*.tmp``.  On startup
  :meth:`OrderingStore.warm` rebuilds the warm set from the spill
  directory; a corrupt or truncated spill file is **quarantined**
  (renamed aside with a warning) — never a crash.

Computation misses are deduplicated through
:class:`~repro.serve.admission.SingleFlight`: concurrent requests for
the same key share one computation.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.errors import InvalidParameterError
from repro.ioutil import atomic_open
from repro.ordering import OrderingConfig
from repro.serve.admission import (
    RequestContext,
    ServiceCounters,
    SingleFlight,
)

#: Spill file schema version (bumped on incompatible layout changes).
SPILL_VERSION = 1

#: Suffix appended to a quarantined spill file.
QUARANTINE_SUFFIX = ".quarantined"

_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]")


@dataclass
class StoreEntry:
    """One ordering held by the store."""

    perm: np.ndarray
    seconds: float
    #: Where this lookup was satisfied: memory | disk | computed.
    source: str = "computed"

    @property
    def nbytes(self) -> int:
        return int(self.perm.nbytes)


class _Shard:
    """One lock + LRU slice of the key space."""

    def __init__(self, max_entries: int) -> None:
        self.lock = threading.Lock()
        self.entries: OrderedDict[tuple, StoreEntry] = OrderedDict()
        self.max_entries = max_entries

    def get(self, key: tuple) -> StoreEntry | None:
        with self.lock:
            entry = self.entries.get(key)
            if entry is not None:
                self.entries.move_to_end(key)
            return entry

    def put(self, key: tuple, entry: StoreEntry) -> None:
        with self.lock:
            self.entries[key] = entry
            self.entries.move_to_end(key)
            while len(self.entries) > self.max_entries:
                self.entries.popitem(last=False)

    def snapshot(self) -> tuple[int, int]:
        with self.lock:
            return (
                len(self.entries),
                sum(entry.nbytes for entry in self.entries.values()),
            )


class OrderingStore:
    """Sharded memory LRU over an atomic on-disk spill directory.

    ``root=None`` disables spilling (pure in-memory store).  Evicted
    memory entries remain on disk, so a later request pays a disk
    load, not a recompute.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        shards: int = 8,
        max_entries_per_shard: int = 64,
        counters: ServiceCounters | None = None,
    ) -> None:
        if shards < 1:
            raise InvalidParameterError("shards must be >= 1")
        if max_entries_per_shard < 1:
            raise InvalidParameterError(
                "max_entries_per_shard must be >= 1"
            )
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.counters = counters or ServiceCounters()
        self._shards = [
            _Shard(max_entries_per_shard) for _ in range(shards)
        ]
        self._flights = SingleFlight(self.counters)

    # -- keys and paths ------------------------------------------------
    def _shard(self, key: tuple) -> _Shard:
        digest = hashlib.sha256(repr(key).encode()).digest()
        return self._shards[digest[0] % len(self._shards)]

    def spill_path(
        self, dataset: str, config: OrderingConfig
    ) -> Path | None:
        """The spill file a key persists to (``None`` when disabled)."""
        if self.root is None:
            return None
        params_json = json.dumps(
            config.params, sort_keys=True, default=str
        )
        digest = hashlib.sha256(params_json.encode()).hexdigest()[:10]
        safe = "--".join(
            _SAFE_NAME.sub("_", part)
            for part in (dataset, config.ordering, f"s{config.seed}")
        )
        return self.root / f"{safe}--{digest}.npz"

    # -- lookup / compute ----------------------------------------------
    def get_or_compute(
        self,
        dataset: str,
        config: OrderingConfig,
        compute: Callable[[], np.ndarray],
        ctx: RequestContext | None = None,
    ) -> StoreEntry:
        """Fetch an ordering from memory, disk, or one computation.

        ``compute`` runs at most once per concurrent key (single
        flight); ``ctx`` bounds a follower's wait by its deadline.
        """
        key = (dataset, *config.key())
        shard = self._shard(key)
        entry = shard.get(key)
        if entry is not None:
            self.counters.inc("serve.store_memory_hits")
            obs.inc("serve.store_memory_hits")
            return StoreEntry(entry.perm, entry.seconds, "memory")

        def miss() -> StoreEntry:
            loaded = self._load_spill(dataset, config)
            if loaded is not None:
                shard.put(key, loaded)
                self.counters.inc("serve.store_disk_hits")
                obs.inc("serve.store_disk_hits")
                return loaded
            if ctx is not None:
                ctx.check()
            start = time.perf_counter()
            perm = compute()
            seconds = time.perf_counter() - start
            fresh = StoreEntry(perm, seconds, "computed")
            shard.put(key, fresh)
            self.counters.inc("serve.store_computed")
            obs.inc("serve.store_computed")
            self._spill(dataset, config, fresh)
            return fresh

        return self._flights.do(key, miss, ctx)

    # -- spill / load / quarantine -------------------------------------
    def _spill(
        self, dataset: str, config: OrderingConfig, entry: StoreEntry
    ) -> None:
        path = self.spill_path(dataset, config)
        if path is None:
            return
        meta = json.dumps(
            {
                "version": SPILL_VERSION,
                "dataset": dataset,
                **config.as_json(),
                "seconds": entry.seconds,
            },
            default=str,
        )
        with atomic_open(path, "wb") as handle:
            np.savez_compressed(
                handle, perm=entry.perm, meta=np.array(meta)
            )
        self.counters.inc("serve.store_spills")
        obs.inc("serve.store_spills")

    def _load_spill(
        self, dataset: str, config: OrderingConfig
    ) -> StoreEntry | None:
        path = self.spill_path(dataset, config)
        if path is None or not path.exists():
            return None
        parsed = self._read_spill(path)
        if parsed is None:
            return None
        perm, meta, _ = parsed
        return StoreEntry(perm, float(meta.get("seconds", 0.0)), "disk")

    def _read_spill(
        self, path: Path
    ) -> tuple[np.ndarray, dict, OrderingConfig] | None:
        """Parse one spill file; quarantine instead of raising.

        A file whose metadata names no valid config (an ordering
        since removed, an undeclared parameter) is quarantined like a
        torn one.
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
            return perm, meta, config
        # quarantine() records a warning event naming path + reason.
        except Exception as exc:  # repro: noqa[REP003] — quarantined
            self.quarantine(path, repr(exc))
            return None

    def quarantine(self, path: Path, reason: str) -> Path:
        """Move a corrupt spill file aside; never crash the service."""
        target = path.with_name(path.name + QUARANTINE_SUFFIX)
        try:
            path.replace(target)
        except OSError:
            # The file vanished or the rename failed; removing it is
            # the next-best containment.
            path.unlink(missing_ok=True)
        self.counters.inc("serve.store_quarantined")
        obs.inc("serve.store_quarantined")
        obs.event(
            "serve.store_quarantine",
            level="warning",
            path=str(path),
            reason=reason,
        )
        return target

    # -- startup -------------------------------------------------------
    def warm(self) -> int:
        """Rebuild the memory warm set from the spill directory.

        Stray ``*.tmp`` files (a kill mid-spill) are removed; corrupt
        spill files are quarantined with a warning.  Returns the
        number of orderings loaded.
        """
        if self.root is None:
            return 0
        loaded = 0
        for stray in sorted(self.root.glob("*.tmp")):
            stray.unlink(missing_ok=True)
            self.counters.inc("serve.store_stray_tmp")
            obs.inc("serve.store_stray_tmp")
        for path in sorted(self.root.glob("*.npz")):
            parsed = self._read_spill(path)
            if parsed is None:
                continue
            perm, meta, config = parsed
            key = (meta.get("dataset"), *config.key())
            entry = StoreEntry(
                perm, float(meta.get("seconds", 0.0)), "disk"
            )
            self._shard(key).put(key, entry)
            loaded += 1
        if loaded:
            self.counters.inc("serve.store_warmed", loaded)
            obs.inc("serve.store_warmed", loaded)
        return loaded

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        entries = 0
        nbytes = 0
        for shard in self._shards:
            count, total = shard.snapshot()
            entries += count
            nbytes += total
        return {
            "entries": entries,
            "nbytes": nbytes,
            "shards": len(self._shards),
            "spill_root": str(self.root) if self.root else None,
        }
