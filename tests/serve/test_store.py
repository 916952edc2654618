"""OrderingStore: shards, spill, warm rebuild, quarantine, crash."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.ordering import OrderingConfig
from repro.serve.admission import Deadline, RequestContext
from repro.serve.store import (
    QUARANTINE_SUFFIX,
    OrderingStore,
    StoreEntry,
)


def perm_of(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64)[::-1].copy()


class TestMemoryPath:
    def test_compute_then_memory_hit(self, tmp_path):
        store = OrderingStore(root=tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return perm_of(8)

        first = store.get_or_compute(
            "epinion", OrderingConfig("gorder", 0), compute
        )
        second = store.get_or_compute(
            "epinion", OrderingConfig("gorder", 0), compute
        )
        assert len(calls) == 1
        assert first.source == "computed"
        assert second.source == "memory"
        np.testing.assert_array_equal(first.perm, second.perm)

    def test_params_are_part_of_the_key(self, tmp_path):
        store = OrderingStore(root=tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return perm_of(4)

        store.get_or_compute(
            "epinion", OrderingConfig("gorder", 0, {"window": 3}),
            compute,
        )
        store.get_or_compute(
            "epinion", OrderingConfig("gorder", 0, {"window": 5}),
            compute,
        )
        assert len(calls) == 2

    def test_memory_only_store(self):
        store = OrderingStore(root=None)
        entry = store.get_or_compute(
            "epinion", OrderingConfig("gorder", 0), lambda: perm_of(4)
        )
        assert entry.source == "computed"
        assert store.stats()["spill_root"] is None

    def test_eviction_bounded_per_shard(self, tmp_path):
        store = OrderingStore(
            root=None, shards=1, max_entries_per_shard=2
        )
        for seed in range(5):
            store.get_or_compute(
                "epinion", OrderingConfig("gorder", seed),
                lambda: perm_of(4),
            )
        assert store.stats()["entries"] == 2

    def test_concurrent_same_key_computes_once(self, tmp_path):
        store = OrderingStore(root=tmp_path)
        gate = threading.Event()
        calls = []
        results = []

        def compute():
            calls.append(1)
            gate.wait(timeout=5)
            return perm_of(16)

        def fetch():
            ctx = RequestContext("r", Deadline(None))
            results.append(
                store.get_or_compute(
                    "epinion", OrderingConfig("gorder", 0), compute,
                    ctx=ctx,
                )
            )

        threads = [
            threading.Thread(target=fetch) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        import time

        time.sleep(0.05)
        gate.set()
        for thread in threads:
            thread.join(timeout=5)
        assert len(calls) == 1
        assert len(results) == 4


class TestSpillAndWarm:
    def test_spill_written_atomically(self, tmp_path):
        store = OrderingStore(root=tmp_path)
        store.get_or_compute(
            "epinion", OrderingConfig("gorder", 0, {"window": 3}),
            lambda: perm_of(8),
        )
        path = store.spill_path(
            "epinion", OrderingConfig("gorder", 0, {"window": 3})
        )
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_restart_loads_from_disk(self, tmp_path):
        first = OrderingStore(root=tmp_path)
        original = first.get_or_compute(
            "epinion", OrderingConfig("gorder", 7), lambda: perm_of(8)
        )
        fresh = OrderingStore(root=tmp_path)
        reloaded = fresh.get_or_compute(
            "epinion", OrderingConfig("gorder", 7),
            lambda: pytest.fail("must not recompute"),
        )
        assert reloaded.source == "disk"
        np.testing.assert_array_equal(reloaded.perm, original.perm)

    def test_warm_rebuilds_memory_set(self, tmp_path):
        first = OrderingStore(root=tmp_path)
        for seed in (0, 1, 2):
            first.get_or_compute(
                "epinion", OrderingConfig("gorder", seed, {"window": 4}),
                lambda: perm_of(6),
            )
        fresh = OrderingStore(root=tmp_path)
        assert fresh.warm() == 3
        assert fresh.stats()["entries"] == 3
        entry = fresh.get_or_compute(
            "epinion", OrderingConfig("gorder", 1, {"window": 4}),
            lambda: pytest.fail("must not recompute"),
        )
        assert entry.source == "memory"

    def test_evicted_entry_reloads_from_disk(self, tmp_path):
        store = OrderingStore(
            root=tmp_path, shards=1, max_entries_per_shard=1
        )
        store.get_or_compute(
            "epinion", OrderingConfig("gorder", 0), lambda: perm_of(4)
        )
        store.get_or_compute(
            "epinion", OrderingConfig("gorder", 1), lambda: perm_of(4)
        )
        # Seed 0 was evicted from memory but kept on disk.
        entry = store.get_or_compute(
            "epinion", OrderingConfig("gorder", 0),
            lambda: pytest.fail("must not recompute"),
        )
        assert entry.source == "disk"


class TestSpillNames:
    def test_spill_file_names_are_stable(self, tmp_path):
        """File names pinned before the store keyed on OrderingConfig:
        a daemon restarted on an existing spill directory finds its
        files."""
        store = OrderingStore(root=tmp_path)
        keys = [
            ("epinion", "gorder", 7, {"window": 3, "hub_threshold": 10}),
            ("epinion", "gorder", 0, None),
            ("wiki", "auto", 3, {"query_volume": 2.5}),
        ]
        names = [
            store.spill_path(
                dataset, OrderingConfig(ordering, seed, params)
            ).name
            for dataset, ordering, seed, params in keys
        ]
        assert names == [
            "epinion--gorder--s7--d194b8a5b6.npz",
            "epinion--gorder--s0--4f53cda18c.npz",
            "wiki--auto--s3--49c37608fb.npz",
        ]

    def test_spill_of_a_removed_ordering_is_quarantined(self, tmp_path):
        store = OrderingStore(root=tmp_path)
        config = OrderingConfig("gorder", 0)
        store.get_or_compute("epinion", config, lambda: perm_of(4))
        path = store.spill_path("epinion", config)
        with np.load(path) as data:
            perm = data["perm"]
            meta = json.loads(str(data["meta"]))
        meta["ordering"] = "gorder-lazy"
        np.savez_compressed(
            path, perm=perm, meta=np.array(json.dumps(meta))
        )
        fresh = OrderingStore(root=tmp_path)
        assert fresh.warm() == 0
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()


class TestCrashSafety:
    def test_kill_mid_spill_leaves_store_loadable(self, tmp_path):
        """The acceptance scenario: kill -9 mid-spill, then restart.

        A kill mid-``atomic_open`` leaves a stray ``*.tmp``; a torn
        write that somehow hit the final name (pre-directory-fsync
        power loss) leaves a corrupt ``.npz``.  Restart must load
        everything valid, quarantine the corrupt file with a warning
        and remove the stray temp — never crash.
        """
        store = OrderingStore(root=tmp_path)
        store.get_or_compute(
            "epinion", OrderingConfig("gorder", 0), lambda: perm_of(8)
        )
        good = store.spill_path("epinion", OrderingConfig("gorder", 0))
        torn = store.spill_path("epinion", OrderingConfig("gorder", 1))
        torn.write_bytes(good.read_bytes()[:17])  # truncated npz
        (tmp_path / "half-written.npz.tmp").write_bytes(b"\x00\x01")

        fresh = OrderingStore(root=tmp_path)
        assert fresh.warm() == 1
        snapshot = fresh.counters.snapshot()
        assert snapshot["serve.store_quarantined"] == 1
        assert snapshot["serve.store_stray_tmp"] == 1
        assert not torn.exists()
        quarantined = torn.with_name(torn.name + QUARANTINE_SUFFIX)
        assert quarantined.exists()
        assert not list(tmp_path.glob("*.tmp"))
        # The good entry is served from the warm set.
        entry = fresh.get_or_compute(
            "epinion", OrderingConfig("gorder", 0),
            lambda: pytest.fail("must not recompute"),
        )
        assert entry.source == "memory"

    def test_corrupt_spill_on_lookup_recomputes(self, tmp_path):
        store = OrderingStore(root=tmp_path)
        store.get_or_compute(
            "epinion", OrderingConfig("gorder", 0), lambda: perm_of(8)
        )
        path = store.spill_path("epinion", OrderingConfig("gorder", 0))
        path.write_bytes(b"not an npz at all")
        fresh = OrderingStore(root=tmp_path)
        # warm() quarantines it; the next lookup recomputes cleanly.
        fresh.warm()
        entry = fresh.get_or_compute(
            "epinion", OrderingConfig("gorder", 0), lambda: perm_of(8)
        )
        assert entry.source == "computed"
        assert (
            fresh.counters.snapshot()["serve.store_quarantined"] == 1
        )

    def test_wrong_schema_quarantined(self, tmp_path):
        store = OrderingStore(root=tmp_path)
        path = tmp_path / "epinion--gorder--s0--deadbeef00.npz"
        np.savez_compressed(path, wrong_field=np.arange(4))
        assert store.warm() == 0
        assert (
            store.counters.snapshot()["serve.store_quarantined"] == 1
        )

    def test_quarantine_emits_warning_event(self, tmp_path):
        from repro import obs

        obs.configure(capture=True)
        try:
            store = OrderingStore(root=tmp_path)
            (tmp_path / "bad.npz").write_bytes(b"junk")
            store.warm()
            events = [
                record
                for record in obs.captured()
                if record["name"] == "serve.store_quarantine"
            ]
            assert len(events) == 1
            assert "bad.npz" in events[0]["attrs"]["path"]
        finally:
            obs.reset()


class TestStoreEntry:
    def test_nbytes(self):
        entry = StoreEntry(np.arange(10, dtype=np.int64), 0.1)
        assert entry.nbytes == 80
