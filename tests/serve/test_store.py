"""The daemon's ordering store: OrderingCache with a spill directory.

Memory hits, spill, warm rebuild, quarantine and crash recovery of
the one ordering memo the serve daemon reads for both endpoints.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.graph import generators
from repro.ordering import OrderingConfig
from repro.perf.runner import QUARANTINE_SUFFIX, OrderingCache


def graph_named(name: str = "epinion", n: int = 12, seed: int = 0):
    return generators.erdos_renyi(n, 3 * n, seed=seed, name=name)


@pytest.fixture
def graph():
    return graph_named()


def must_not_compute(monkeypatch):
    def fail(config, graph):
        pytest.fail("must not recompute")

    monkeypatch.setattr(OrderingConfig, "compute", fail)


class TestMemoryPath:
    def test_compute_then_memory_hit(self, graph, tmp_path):
        cache = OrderingCache(spill_root=tmp_path)
        first = cache.get(graph, OrderingConfig("gorder", 0))
        second = cache.get(graph, OrderingConfig("gorder", 0))
        assert cache.counts()["computed"] == 1
        assert first[2] == "computed"
        assert second[2] == "memory"
        assert second[0] is first[0]

    def test_params_are_part_of_the_key(self, graph, tmp_path):
        cache = OrderingCache(spill_root=tmp_path)
        cache.get(graph, OrderingConfig("gorder", 0, {"window": 3}))
        cache.get(graph, OrderingConfig("gorder", 0, {"window": 5}))
        assert cache.counts()["computed"] == 2

    def test_memory_only_store(self, graph):
        cache = OrderingCache()
        _, _, source = cache.get(graph, OrderingConfig("gorder", 0))
        assert source == "computed"
        assert cache.spill_root is None
        assert cache.spill_path(graph.name, OrderingConfig("gorder")) is None
        assert "spills" not in cache.counts()

    def test_concurrent_same_key_computes_once(
        self, graph, tmp_path, monkeypatch
    ):
        cache = OrderingCache(spill_root=tmp_path)
        gate = threading.Event()
        calls = []
        results = []

        def compute(config, graph):
            calls.append(1)
            gate.wait(timeout=5)
            return np.arange(graph.num_nodes, dtype=np.int64)

        monkeypatch.setattr(OrderingConfig, "compute", compute)

        def fetch():
            results.append(
                cache.get(
                    graph, OrderingConfig("gorder", 0), lambda: None
                )
            )

        threads = [
            threading.Thread(target=fetch) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        # Let the followers pile onto the flight: one that arrives
        # after the leader has finished is no follower.
        deadline = time.monotonic() + 5
        while (
            cache.counts().get("singleflight_shared", 0) < 3
            and time.monotonic() < deadline
        ):
            time.sleep(0.001)
        gate.set()
        for thread in threads:
            thread.join(timeout=5)
        assert len(calls) == 1
        assert len(results) == 4
        assert cache.counts()["singleflight_shared"] == 3


class TestSpillAndWarm:
    def test_spill_written_atomically(self, graph, tmp_path):
        cache = OrderingCache(spill_root=tmp_path)
        config = OrderingConfig("gorder", 0, {"window": 3})
        cache.get(graph, config)
        assert cache.spill_path(graph.name, config).exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_restart_loads_from_disk(self, graph, tmp_path, monkeypatch):
        first = OrderingCache(spill_root=tmp_path)
        original, _, _ = first.get(graph, OrderingConfig("gorder", 7))
        must_not_compute(monkeypatch)
        fresh = OrderingCache(spill_root=tmp_path)
        reloaded, _, source = fresh.get(
            graph, OrderingConfig("gorder", 7)
        )
        assert source == "disk"
        np.testing.assert_array_equal(reloaded, original)

    def test_warm_rebuilds_memory_set(self, graph, tmp_path, monkeypatch):
        first = OrderingCache(spill_root=tmp_path)
        for seed in (0, 1, 2):
            first.get(
                graph, OrderingConfig("gorder", seed, {"window": 4})
            )
        must_not_compute(monkeypatch)
        fresh = OrderingCache(spill_root=tmp_path)
        assert fresh.warm() == 3
        assert len(fresh) == 3
        _, _, source = fresh.get(
            graph, OrderingConfig("gorder", 1, {"window": 4})
        )
        assert source == "memory"

    def test_evicted_entry_reloads_from_disk(
        self, graph, tmp_path, monkeypatch
    ):
        cache = OrderingCache(max_entries=1, spill_root=tmp_path)
        cache.get(graph, OrderingConfig("gorder", 0))
        cache.get(graph, OrderingConfig("gorder", 1))
        # Seed 0 was evicted from memory but kept on disk.
        must_not_compute(monkeypatch)
        _, _, source = cache.get(graph, OrderingConfig("gorder", 0))
        assert source == "disk"


class TestSpillNames:
    def test_spill_file_names_are_stable(self, tmp_path):
        """File names pinned before the store keyed on OrderingConfig:
        a daemon restarted on an existing spill directory finds its
        files."""
        cache = OrderingCache(spill_root=tmp_path)
        keys = [
            ("epinion", "gorder", 7, {"window": 3, "hub_threshold": 10}),
            ("epinion", "gorder", 0, None),
            ("wiki", "auto", 3, {"query_volume": 2.5}),
        ]
        names = [
            cache.spill_path(
                dataset, OrderingConfig(ordering, seed, params)
            ).name
            for dataset, ordering, seed, params in keys
        ]
        assert names == [
            "epinion--gorder--s7--d194b8a5b6.npz",
            "epinion--gorder--s0--4f53cda18c.npz",
            "wiki--auto--s3--49c37608fb.npz",
        ]

    def test_spill_of_a_removed_ordering_is_quarantined(
        self, graph, tmp_path
    ):
        cache = OrderingCache(spill_root=tmp_path)
        config = OrderingConfig("gorder", 0)
        cache.get(graph, config)
        path = cache.spill_path(graph.name, config)
        with np.load(path) as data:
            perm = data["perm"]
            meta = json.loads(str(data["meta"]))
        meta["ordering"] = "gorder-lazy"
        np.savez_compressed(
            path, perm=perm, meta=np.array(json.dumps(meta))
        )
        fresh = OrderingCache(spill_root=tmp_path)
        assert fresh.warm() == 0
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()


class TestSpillFingerprint:
    """A spill file is served only to a graph of the content that
    wrote it, whatever the name it was filed under."""

    def test_spill_of_another_graph_is_recomputed(self, tmp_path):
        config = OrderingConfig("gorder", 0)
        tiny = graph_named(n=3)
        OrderingCache(spill_root=tmp_path).get(tiny, config)
        real = graph_named(n=40, seed=5)
        perm, _, source = OrderingCache(spill_root=tmp_path).get(
            real, config
        )
        assert source == "computed"
        assert len(perm) == real.num_nodes
        # The recompute overwrote the file: the next restart loads it.
        again, _, source = OrderingCache(spill_root=tmp_path).get(
            real, config
        )
        assert source == "disk"
        np.testing.assert_array_equal(again, perm)
        assert len(list(tmp_path.glob("*.npz"))) == 1

    def test_daemon_never_serves_a_foreign_spill(
        self, harness_factory, tmp_path
    ):
        """A 3-node graph's spill filed as ``epinion`` must not answer
        for the 760-node epinion graph after a restart."""
        root = str(tmp_path / "store")
        first = harness_factory(store_root=root)
        first.service._graphs["epinion"] = graph_named(n=3)
        status, payload, _ = first.post(
            "/order", {"dataset": "epinion"}
        )
        assert status == 200
        assert payload["nodes"] == 3
        second = harness_factory(store_root=root)
        status, payload, _ = second.post(
            "/order",
            {"dataset": "epinion", "include_permutation": True},
        )
        assert status == 200
        assert payload["source"] == "computed"
        assert len(payload["permutation"]) == payload["nodes"] == 760

    def test_version_1_spill_is_quarantined(self, graph, tmp_path):
        cache = OrderingCache(spill_root=tmp_path)
        config = OrderingConfig("gorder", 0)
        path = cache.spill_path(graph.name, config)
        meta = {"version": 1, "dataset": graph.name, **config.as_json(),
                "seconds": 0.5}
        np.savez_compressed(
            path,
            perm=np.arange(graph.num_nodes),
            meta=np.array(json.dumps(meta)),
        )
        _, _, source = cache.get(graph, config)
        assert source == "computed"
        assert cache.counts()["quarantined"] == 1
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()


class TestCrashSafety:
    def test_kill_mid_spill_leaves_store_loadable(
        self, graph, tmp_path, monkeypatch
    ):
        """The acceptance scenario: kill -9 mid-spill, then restart.

        A kill mid-``atomic_open`` leaves a stray ``*.tmp``; a torn
        write that somehow hit the final name (pre-directory-fsync
        power loss) leaves a corrupt ``.npz``.  Restart must load
        everything valid, quarantine the corrupt file with a warning
        and remove the stray temp — never crash.
        """
        cache = OrderingCache(spill_root=tmp_path)
        cache.get(graph, OrderingConfig("gorder", 0))
        good = cache.spill_path(graph.name, OrderingConfig("gorder", 0))
        torn = cache.spill_path(graph.name, OrderingConfig("gorder", 1))
        torn.write_bytes(good.read_bytes()[:17])  # truncated npz
        (tmp_path / "half-written.npz.tmp").write_bytes(b"\x00\x01")

        fresh = OrderingCache(spill_root=tmp_path)
        assert fresh.warm() == 1
        counts = fresh.counts()
        assert counts["quarantined"] == 1
        assert counts["stray_tmp"] == 1
        assert not torn.exists()
        quarantined = torn.with_name(torn.name + QUARANTINE_SUFFIX)
        assert quarantined.exists()
        assert not list(tmp_path.glob("*.tmp"))
        # The good entry is served from the warm set.
        must_not_compute(monkeypatch)
        _, _, source = fresh.get(graph, OrderingConfig("gorder", 0))
        assert source == "memory"

    def test_corrupt_spill_on_lookup_recomputes(self, graph, tmp_path):
        cache = OrderingCache(spill_root=tmp_path)
        cache.get(graph, OrderingConfig("gorder", 0))
        path = cache.spill_path(graph.name, OrderingConfig("gorder", 0))
        path.write_bytes(b"not an npz at all")
        fresh = OrderingCache(spill_root=tmp_path)
        # warm() quarantines it; the next lookup recomputes cleanly.
        fresh.warm()
        _, _, source = fresh.get(graph, OrderingConfig("gorder", 0))
        assert source == "computed"
        assert fresh.counts()["quarantined"] == 1

    def test_wrong_schema_quarantined(self, tmp_path):
        cache = OrderingCache(spill_root=tmp_path)
        path = tmp_path / "epinion--gorder--s0--deadbeef00.npz"
        np.savez_compressed(path, wrong_field=np.arange(4))
        assert cache.warm() == 0
        assert cache.counts()["quarantined"] == 1

    def test_quarantine_emits_warning_event(self, tmp_path):
        from repro import obs

        obs.configure(capture=True)
        try:
            cache = OrderingCache(spill_root=tmp_path)
            (tmp_path / "bad.npz").write_bytes(b"junk")
            cache.warm()
            events = [
                record
                for record in obs.captured()
                if record["name"] == "runner.ordering_spill_quarantine"
            ]
            assert len(events) == 1
            assert events[0]["level"] == "warning"
            assert "bad.npz" in events[0]["attrs"]["path"]
        finally:
            obs.reset()
