"""Unit tests for the experiment runner."""

import threading

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.graph import generators
from repro.ordering import OrderingConfig
from repro.perf import OrderingCache, run_cell, time_ordering


@pytest.fixture(scope="module")
def graph():
    return generators.social_graph(
        120, edges_per_node=5, seed=55, name="runner-test"
    )


class TestRunCell:
    def test_result_fields(self, graph):
        result = run_cell(graph, "nq", "gorder")
        assert result.dataset == "runner-test"
        assert result.algorithm == "nq"
        assert result.ordering == "gorder"
        assert result.cycles > 0
        assert result.stats.l1_refs > 0
        assert result.simulation_seconds >= 0

    def test_deterministic(self, graph):
        cache = OrderingCache()
        a = run_cell(graph, "pr", "rcm", params={"iterations": 2},
                     cache=cache)
        b = run_cell(graph, "pr", "rcm", params={"iterations": 2},
                     cache=cache)
        assert a.cycles == b.cycles
        assert a.stats == b.stats

    def test_scalar_source_mapped_through_permutation(self, graph):
        """SP from logical source s must do the same logical work for
        every ordering - the distance profile (sorted) is identical."""
        a = run_cell(graph, "sp", "original", params={"source": 3})
        b = run_cell(graph, "sp", "random", params={"source": 3},
                     seed=9)
        assert a.stats.l1_refs == pytest.approx(
            b.stats.l1_refs, rel=0.1
        )

    def test_sequence_sources_mapped(self, graph):
        result = run_cell(
            graph, "diam", "gorder", params={"sources": [0, 5]}
        )
        assert result.cycles > 0

    def test_dataset_name_override(self, graph):
        result = run_cell(graph, "nq", "original",
                          dataset_name="override")
        assert result.dataset == "override"

    def test_ordering_seconds_memoised(self, graph):
        cache = OrderingCache()
        first = run_cell(graph, "nq", "gorder", cache=cache)
        second = run_cell(graph, "bfs", "gorder", cache=cache)
        # Same cached ordering time reported for both runs.
        assert second.ordering_seconds == first.ordering_seconds


class TestOrderingCache:
    def test_memoises_permutation(self, graph):
        cache = OrderingCache()
        perm_a, _ = cache.permutation(graph, "gorder", 0)
        perm_b, _ = cache.permutation(graph, "gorder", 0)
        assert perm_a is perm_b

    def test_distinct_seeds_distinct_entries(self, graph):
        cache = OrderingCache()
        perm_a, _ = cache.permutation(graph, "random", 1)
        perm_b, _ = cache.permutation(graph, "random", 2)
        assert not (perm_a is perm_b)

    def test_relabeled_graph_memoised(self, graph):
        cache = OrderingCache()
        graph_a, _, _ = cache.relabeled(graph, OrderingConfig("rcm"))
        graph_b, _, _ = cache.relabeled(graph, OrderingConfig("rcm"))
        assert graph_a is graph_b

    def test_clear(self, graph):
        cache = OrderingCache()
        perm_a, _ = cache.permutation(graph, "rcm", 0)
        cache.clear()
        perm_b, _ = cache.permutation(graph, "rcm", 0)
        assert perm_a is not perm_b

    def test_params_are_part_of_the_key(self, graph):
        """Runs with different ordering knobs never share an entry."""
        cache = OrderingCache()
        default, _ = cache.permutation(graph, "gorder", 0)
        narrow, _ = cache.permutation(
            graph, "gorder", 0, params={"window": 3}
        )
        assert default is not narrow
        assert len(cache) == 2
        again, _ = cache.permutation(
            graph, "gorder", 0, params={"window": 3}
        )
        assert again is narrow

    def test_params_key_order_insensitive(self, graph):
        cache = OrderingCache()
        a, _ = cache.permutation(
            graph, "gorder", 0,
            params={"window": 3, "hub_threshold": 4},
        )
        b, _ = cache.permutation(
            graph, "gorder", 0,
            params={"hub_threshold": 4, "window": 3},
        )
        assert a is b
        assert len(cache) == 1

    def test_undeclared_params_do_not_split_the_memo(self, graph):
        """Gorder does not declare ``workers``: one entry, one compute."""
        cache = OrderingCache()
        a, _ = cache.permutation(graph, "gorder", 0, {"workers": 2})
        b, _ = cache.permutation(graph, "gorder", 0)
        assert len(cache) == 1
        assert a is b

    def test_empty_params_same_as_none(self, graph):
        cache = OrderingCache()
        a, _ = cache.permutation(graph, "gorder", 0)
        b, _ = cache.permutation(graph, "gorder", 0, params={})
        assert a is b


class TestCacheBounds:
    def test_entry_cap_evicts_least_recently_used(self, graph):
        cache = OrderingCache(max_entries=2)
        perm_a, _ = cache.permutation(graph, "original", 0)
        cache.permutation(graph, "indegsort", 0)
        cache.permutation(graph, "rcm", 0)  # evicts "original"
        assert len(cache) == 2
        perm_a2, _ = cache.permutation(graph, "original", 0)
        assert perm_a2 is not perm_a  # recomputed, still correct
        assert (perm_a2 == perm_a).all()

    def test_lru_order_refreshed_on_hit(self, graph):
        cache = OrderingCache(max_entries=2)
        cache.permutation(graph, "original", 0)
        cache.permutation(graph, "indegsort", 0)
        # Touch "original" so "indegsort" is the LRU victim.
        first, _ = cache.permutation(graph, "original", 0)
        cache.permutation(graph, "rcm", 0)
        again, _ = cache.permutation(graph, "original", 0)
        assert again is first

    def test_byte_cap(self, graph):
        cache = OrderingCache(max_entries=None, max_bytes=1)
        cache.relabeled(graph, OrderingConfig("original"))
        cache.relabeled(graph, OrderingConfig("indegsort"))
        # Over the byte cap, only the newest entry is retained.
        assert len(cache) == 1
        assert cache.nbytes() > 0

    def test_newest_entry_always_survives(self, graph):
        cache = OrderingCache(max_entries=1)
        perm_a, _ = cache.permutation(graph, "original", 0)
        perm_b, _ = cache.permutation(graph, "original", 0)
        assert perm_b is perm_a

    def test_eviction_counter(self, graph):
        from repro import obs

        obs.reset()
        obs.TELEMETRY.enable()
        try:
            cache = OrderingCache(max_entries=1)
            cache.permutation(graph, "original", 0)
            cache.permutation(graph, "indegsort", 0)
            counters = obs.counters()
            assert counters["runner.ordering_cache_evictions"] == 1
        finally:
            obs.reset()

    def test_eviction_releases_pin(self, graph):
        cache = OrderingCache(max_entries=1)
        cache.permutation(graph, "original", 0)
        cache.permutation(graph, "indegsort", 0)
        # One entry left -> exactly one pin on the keyed graph.
        assert list(cache._pinned) == [id(graph)]
        assert cache._pin_counts[id(graph)] == 1

    def test_invalid_caps_rejected(self):
        with pytest.raises(InvalidParameterError):
            OrderingCache(max_entries=0)
        with pytest.raises(InvalidParameterError):
            OrderingCache(max_bytes=0)

    def test_global_cache_is_bounded(self):
        from repro.perf import GLOBAL_ORDERING_CACHE

        assert GLOBAL_ORDERING_CACHE.max_entries is not None


class TestCacheContention:
    """Regression tests for thread-safety under eviction pressure.

    Before the lock, concurrent workers could corrupt the LRU dict
    mid-eviction (RuntimeError from a mutated OrderedDict) or strand
    pins after a double-evict.  These tests hammer a tiny cache from
    many threads; they must never raise and must leave the pin
    bookkeeping consistent with the surviving entries.
    """

    ORDERINGS = ("original", "indegsort", "hubsort", "random")

    def test_eviction_under_contention(self, graph):
        cache = OrderingCache(max_entries=2)
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=10)
                for step in range(30):
                    ordering = self.ORDERINGS[
                        (index + step) % len(self.ORDERINGS)
                    ]
                    perm, seconds = cache.permutation(
                        graph, ordering, seed=step % 2
                    )
                    assert sorted(perm) == list(
                        range(graph.num_nodes)
                    )
                    assert seconds >= 0
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert len(cache) <= 2
        # Pin accounting matches the surviving entries exactly.
        assert sum(cache._pin_counts.values()) == len(cache)

    def test_concurrent_same_key_converges(self, graph):
        """Racing misses on one key may compute twice but must agree
        and leave exactly one entry (first insert wins)."""
        cache = OrderingCache(max_entries=8)
        barrier = threading.Barrier(6)
        results = []

        def worker() -> None:
            barrier.wait(timeout=10)
            results.append(
                cache.permutation(graph, "indegsort", 0)[0]
            )

        threads = [
            threading.Thread(target=worker) for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(results) == 6
        first = results[0]
        for perm in results[1:]:
            assert (perm == first).all()
        assert len(cache) == 1

    def test_insert_preseeds_the_memo(self, graph):
        cache = OrderingCache(max_entries=4)
        perm = np.arange(graph.num_nodes, dtype=np.int64)
        cache.insert(graph, OrderingConfig("original"), perm, 0.125)
        got, seconds = cache.permutation(graph, "original", 0)
        assert got is perm
        assert seconds == 0.125

    def test_insert_never_clobbers(self, graph):
        cache = OrderingCache(max_entries=4)
        first, _ = cache.permutation(graph, "original", 0)
        cache.insert(
            graph,
            OrderingConfig("original"),
            np.zeros(graph.num_nodes, dtype=np.int64),
            9.0,
        )
        again, _ = cache.permutation(graph, "original", 0)
        assert again is first


class TestTimeOrdering:
    def test_positive(self, graph):
        assert time_ordering(graph, OrderingConfig("indegsort")) > 0

    def test_repeats_take_minimum(self, graph):
        config = OrderingConfig("indegsort")
        assert time_ordering(graph, config, repeats=2) > 0


class TestCachePinning:
    def test_cached_graph_ids_cannot_be_recycled(self):
        """The cache pins keyed graphs so a freed graph's id cannot
        alias a new one and return a stale permutation."""
        import gc

        from repro.graph import generators

        cache = OrderingCache()
        results = {}
        for round_number in range(8):
            # Without pinning, these short-lived graphs frequently
            # reuse each other's ids.
            transient = generators.erdos_renyi(
                60, 200, seed=round_number, name=f"g{round_number}"
            )
            perm, _ = cache.permutation(transient, "indegsort", 0)
            results[round_number] = (transient, perm.copy())
            del transient
            gc.collect()
        for round_number, (kept, perm) in results.items():
            from repro.ordering import indegsort_order

            expected = indegsort_order(kept)
            assert (perm == expected).all()


class TestRunnerConfiguration:
    def test_custom_hierarchy(self, graph):
        from repro.cache import CacheHierarchy, CacheLevel

        tiny = CacheHierarchy(
            [CacheLevel(512, 64, 8, "L1")], name="tiny"
        )
        big = CacheHierarchy(
            [CacheLevel(1 << 20, 64, 8, "L1")], name="big"
        )
        slow = run_cell(graph, "nq", "original", hierarchy=tiny)
        fast = run_cell(graph, "nq", "original", hierarchy=big)
        # A bigger cache can only reduce simulated cycles.
        assert fast.cycles <= slow.cycles

    def test_custom_cost_model(self, graph):
        from repro.cache import CostModel

        free_memory = CostModel(memory_stall=0.0, l2_stall=0.0,
                                l3_stall=0.0)
        result = run_cell(
            graph, "nq", "original", cost_model=free_memory
        )
        assert result.cost.stall_cycles == 0.0

    def test_stats_refs_positive(self, graph):
        result = run_cell(graph, "bfs", "rcm")
        assert result.stats.l1_refs > graph.num_nodes


class TestCacheBackendPlumbing:
    """run_cell must produce one answer regardless of backend."""

    def test_replay_matches_step(self, graph):
        step = run_cell(graph, "pr", "gorder",
                        params={"iterations": 2},
                        cache_backend="step")
        replay = run_cell(graph, "pr", "gorder",
                          params={"iterations": 2},
                          cache_backend="replay")
        assert replay.cycles == step.cycles
        assert replay.stats == step.stats

    def test_invalid_backend_rejected(self, graph):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="backend"):
            run_cell(graph, "nq", "original",
                     cache_backend="speculative")
