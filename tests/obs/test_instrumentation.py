"""Counter accuracy of the instrumented kernels on known tiny graphs."""

import pytest

from repro import obs
from repro.graph import from_edges
from repro.ordering.gorder import gorder_sequence
from repro.ordering.gorder_lazy import gorder_sequence_lazy
from repro.perf.runner import OrderingCache, run_cell


@pytest.fixture
def cycle4():
    """Directed 4-cycle: every node has out-degree = in-degree = 1."""
    return from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0)], num_nodes=4, name="cycle4"
    )


class TestGorderCounters:
    def test_exact_counts_on_cycle(self, cycle4):
        """On a 4-cycle each placement fires exactly 2 unit updates
        (one out-neighbour, one in-neighbour, no siblings), and the
        greedy pops n-1 times after the seeded start."""
        obs.configure()
        gorder_sequence(cycle4)
        counters = obs.counters()
        assert counters == {
            "gorder.heap_pops": 3, "gorder.priority_updates": 8,
        }

    def test_disabled_run_keeps_counters_empty(self, cycle4):
        gorder_sequence(cycle4)
        assert obs.counters() == {}

    def test_same_sequence_with_and_without_telemetry(self, cycle4):
        bare = gorder_sequence(cycle4)
        obs.configure()
        metered = gorder_sequence(cycle4)
        assert bare.tolist() == metered.tolist()

    def test_greedy_span_emitted(self, cycle4):
        obs.configure(capture=True)
        gorder_sequence(cycle4)
        ends = [
            e for e in obs.captured()
            if e["kind"] == "span_end" and e["name"] == "gorder.greedy"
        ]
        assert len(ends) == 1
        assert ends[0]["attrs"]["n"] == 4
        assert ends[0]["attrs"]["backend"] == "batched"


class TestGorderLazyCounters:
    def test_pops_and_pushes(self, cycle4):
        obs.configure()
        gorder_sequence_lazy(cycle4)
        counters = obs.counters()
        assert counters["gorder_lazy.heap_pops"] == 3
        # Every live update pushes one fresh entry; the 4-cycle fires
        # 8 update events of which those at placed nodes are dropped.
        assert 0 < counters["gorder_lazy.heap_pushes"] <= 8
        assert counters["gorder_lazy.lazy_discards"] >= 0

    def test_instrumented_lazy_is_still_a_permutation(self, cycle4):
        obs.configure()
        lazy = gorder_sequence_lazy(cycle4)
        assert sorted(lazy.tolist()) == [0, 1, 2, 3]

    def test_greedy_span_backend_attribute(self, cycle4):
        obs.configure(capture=True)
        gorder_sequence_lazy(cycle4)
        ends = [
            e for e in obs.captured()
            if e["kind"] == "span_end" and e["name"] == "gorder.greedy"
        ]
        assert ends[0]["attrs"]["backend"] == "lazy_heap"


class TestRunCellCounters:
    def test_cache_counters_match_stats_exactly(self, cycle4):
        obs.configure()
        result = run_cell(cycle4, "nq", "original", cache=OrderingCache())
        counters = obs.counters()
        stats = result.stats
        assert counters["cache.l1.refs"] == stats.l1_refs
        assert counters["cache.l1.misses"] == stats.l1_misses
        assert counters["cache.l2.refs"] == stats.l2_refs
        assert counters["cache.l3.refs"] == stats.l3_refs
        assert counters["cache.l1.refs"] > 0

    def test_cache_counters_accumulate_over_runs(self, cycle4):
        obs.configure()
        cache = OrderingCache()
        first = run_cell(cycle4, "nq", "original", cache=cache)
        second = run_cell(cycle4, "nq", "original", cache=cache)
        counters = obs.counters()
        assert (
            counters["cache.l1.refs"]
            == first.stats.l1_refs + second.stats.l1_refs
        )

    def test_memoisation_counters(self, cycle4):
        obs.configure()
        cache = OrderingCache()
        run_cell(cycle4, "nq", "gorder", cache=cache)
        run_cell(cycle4, "nq", "gorder", cache=cache)
        counters = obs.counters()
        assert counters["runner.ordering_memo_misses"] == 1
        assert counters["runner.ordering_memo_hits"] == 1

    def test_simulation_and_ordering_spans(self, cycle4):
        obs.configure(capture=True)
        run_cell(cycle4, "nq", "gorder", cache=OrderingCache())
        names = [
            e["name"] for e in obs.captured() if e["kind"] == "span_end"
        ]
        assert "ordering.compute" in names
        assert "run.simulate" in names
        assert "gorder.greedy" in names
