"""Unit tests for the experiment runner."""

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.ordering import OrderingConfig
from repro.perf import OrderingCache, run_cell, time_ordering
from repro.perf.runner import SingleFlight


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
    mid-eviction (RuntimeError from a mutated OrderedDict).  These
    tests hammer a tiny cache from many threads; they must never
    raise and must leave the entry count within its cap.
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
        assert cache.counts()["cache_evictions"] > 0

    def test_counts_add_up_under_contention(self, graph):
        """Single flight and the counts hold with frequent thread
        switches: each key computes once, and every lookup is exactly
        one memory hit, one shared flight or one miss."""
        cache = OrderingCache(max_entries=None)
        lookups = 16 * 20
        errors: list[BaseException] = []
        barrier = threading.Barrier(16)

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=10)
                for step in range(20):
                    ordering = self.ORDERINGS[
                        (index + step) % len(self.ORDERINGS)
                    ]
                    cache.permutation(graph, ordering, seed=0)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        counts = cache.counts()
        assert counts["computed"] == len(self.ORDERINGS)
        assert counts["memo_misses"] == len(self.ORDERINGS)
        assert (
            counts["memo_hits"]
            + counts.get("singleflight_shared", 0)
            + counts["memo_misses"]
            == lookups
        )

    def test_concurrent_same_key_converges(self, graph):
        """Racing misses on one key share one computation and leave
        exactly one entry."""
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
        assert cache.counts()["computed"] == 1


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


class _WeakGraph(CSRGraph):
    """A CSRGraph that can be weakly referenced (the base has slots)."""


def copy_of(graph: CSRGraph, cls: type = CSRGraph) -> CSRGraph:
    return cls(
        graph.num_nodes, graph.offsets.copy(), graph.adjacency.copy(),
        name=graph.name,
    )


class TestContentKey:
    def test_keyed_graph_is_not_kept_alive(self, graph):
        transient = copy_of(graph, _WeakGraph)
        cache = OrderingCache()
        cache.relabeled(transient, OrderingConfig("indegsort"))
        alive = weakref.ref(transient)
        del transient
        gc.collect()
        assert alive() is None
        assert len(cache) == 1

    def test_equal_content_shares_one_entry(self, graph):
        cache = OrderingCache()
        first, _ = cache.permutation(graph, "rcm", 0)
        twin = copy_of(graph)
        twin.name = "another-name"
        second, _ = cache.permutation(twin, "rcm", 0)
        assert second is first
        assert len(cache) == 1
        assert twin.fingerprint == graph.fingerprint

    def test_one_edge_apart_do_not_share(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        from repro.graph.builder import from_edges

        square = from_edges(edges, num_nodes=5, name="g")
        extra = from_edges(edges + [(3, 4)], num_nodes=5, name="g")
        assert square.fingerprint != extra.fingerprint
        cache = OrderingCache()
        cache.permutation(square, "rcm", 0)
        cache.permutation(extra, "rcm", 0)
        assert len(cache) == 2
        assert cache.counts()["computed"] == 2


def deadline_check(seconds: float):
    """A cancel_check that raises once ``seconds`` have passed."""
    end = time.monotonic() + seconds

    def check() -> None:
        if time.monotonic() >= end:
            raise TimeoutError("deadline passed")

    return check


def raises(error: BaseException):
    def check() -> None:
        raise error

    return check


class TestSingleFlight:
    def test_shares_one_computation(self):
        flights = SingleFlight()
        calls = []
        gate = threading.Event()
        results = []

        def compute():
            calls.append(1)
            gate.wait(timeout=5)
            return "value"

        def runner():
            results.append(flights.do("key", compute, lambda: None))

        threads = [
            threading.Thread(target=runner) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        # Let the followers pile onto the flight: one that arrives
        # after the leader has finished is no follower.
        deadline = time.monotonic() + 5
        while flights.shared < 3 and time.monotonic() < deadline:
            time.sleep(0.001)
        gate.set()
        for thread in threads:
            thread.join(timeout=5)
        assert len(calls) == 1
        assert results == ["value"] * 4
        assert flights.shared == 3

    def test_sequential_calls_compute_each_time(self):
        flights = SingleFlight()
        calls = []
        flights.do("key", lambda: calls.append(1))
        flights.do("key", lambda: calls.append(1))
        assert len(calls) == 2

    def test_leader_failure_propagates_to_followers(self):
        flights = SingleFlight()
        gate = threading.Event()
        errors = []

        def compute():
            gate.wait(timeout=5)
            raise ValueError("leader failed")

        def leader():
            try:
                flights.do("key", compute)
            except ValueError as exc:
                errors.append(("leader", str(exc)))

        def follower():
            try:
                flights.do("key", compute, lambda: None)
            except ValueError as exc:
                errors.append(("follower", str(exc)))

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        time.sleep(0.05)
        follower_thread = threading.Thread(target=follower)
        follower_thread.start()
        time.sleep(0.05)
        gate.set()
        leader_thread.join(timeout=5)
        follower_thread.join(timeout=5)
        assert sorted(role for role, _ in errors) == [
            "follower", "leader",
        ]

    def test_follower_bounded_by_deadline(self):
        flights = SingleFlight()
        gate = threading.Event()

        def slow():
            gate.wait(timeout=5)
            return "late"

        leader = threading.Thread(
            target=lambda: flights.do("key", slow)
        )
        leader.start()
        time.sleep(0.02)
        with pytest.raises(TimeoutError):
            flights.do("key", slow, deadline_check(0.05))
        gate.set()
        leader.join(timeout=5)

    def test_leader_cancellation_is_not_shared(self):
        """Only an error of the computation reaches the followers: a
        leader cancelled while it computes still hands its result
        over."""
        flights = SingleFlight()
        gate = threading.Event()
        cancelled = threading.Event()
        results = []

        def leader_check():
            if cancelled.is_set():
                raise TimeoutError("leader cancelled")

        def compute():
            gate.wait(timeout=5)
            return "value"

        leader = threading.Thread(
            target=lambda: results.append(
                flights.do("key", compute, leader_check)
            )
        )
        leader.start()
        time.sleep(0.02)
        cancelled.set()
        follower = threading.Thread(
            target=lambda: results.append(
                flights.do("key", compute, lambda: None)
            )
        )
        follower.start()
        time.sleep(0.05)
        gate.set()
        leader.join(timeout=5)
        follower.join(timeout=5)
        assert results == ["value", "value"]
        assert flights.shared == 1


class TestLeaderCancellation:
    @pytest.mark.parametrize(
        "error",
        [TimeoutError("deadline"), RuntimeError("cancelled")],
        ids=["deadline", "cancel"],
    )
    def test_follower_survives_a_cancelled_leader(self, graph, error):
        """A caller with time to spare gets the ordering when another
        caller of the same key is cancelled or runs out of time."""
        cache = OrderingCache()
        config = OrderingConfig("indegsort")
        joined = threading.Event()
        outcome = {}

        def leader_check():
            joined.wait(timeout=5)
            time.sleep(0.05)
            raise error

        def leader():
            try:
                cache.get(graph, config, leader_check)
            except type(error) as exc:
                outcome["leader"] = exc

        thread = threading.Thread(target=leader)
        thread.start()
        time.sleep(0.02)
        joined.set()
        perm, _, source = cache.get(graph, config, deadline_check(30))
        thread.join(timeout=5)
        assert outcome["leader"] is error
        assert source == "computed"
        assert sorted(perm) == list(range(graph.num_nodes))


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
