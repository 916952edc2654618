"""The frontier/bucket runtime: components and counter-identity.

Two layers of guarantees:

* component tests pin the building blocks (``claim_first``'s
  dense/sparse agreement, ``interleave_fields``'s exact stream
  assembly, ``BucketQueue``'s fusion contract, ``run_field``'s
  touch_run equivalence);
* parity tests run every runtime-ported algorithm against its scalar
  oracle and require identical results **and** identical per-level
  cache counters on both cache backends — the runtime's contract is
  reproducing the scalar touch sequence reference-for-reference, not
  approximating it;
* the differential harness runs the production simulator path
  (``Memory`` and ``traced_fn`` at their defaults) against the oracle
  pair (cache stepping, scalar emitters) on hypothesis graphs, for
  every registered algorithm under several headline orderings.  No CLI
  flag or serve field reaches the oracles, so this is their coverage.
"""

import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.algorithms import ALGO_BACKENDS, REGISTRY, traced_fn
from repro.algorithms.runtime import (
    BucketQueue,
    Frontier,
    TraceEmitter,
    claim_first,
    interleave_fields,
    run_field,
    segment_sums,
)
from repro.cache import CacheHierarchy, CacheLevel, Memory
from repro.errors import InvalidParameterError
from repro.graph import from_edges, generators
from repro.graph.permute import relabel
from repro.oracles import TRACED_SCALAR
from repro.ordering import accepted_params, compute_ordering
from repro.perf import Profile, run_cell

from tests.conftest import graph_strategy


def tiny_hierarchy():
    return CacheHierarchy(
        [
            CacheLevel(2 * 64, 64, 2, "L1"),
            CacheLevel(4 * 64, 64, 4, "L2"),
            CacheLevel(8 * 64, 64, 8, "L3"),
        ]
    )


# ---------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------
class TestSegmentSums:
    def test_basic(self):
        values = np.asarray([1, 2, 3, 4, 5, 6])
        lengths = np.asarray([2, 0, 3, 1])
        assert segment_sums(values, lengths).tolist() == [3, 0, 12, 6]

    def test_empty(self):
        out = segment_sums(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert out.shape == (0,)


class TestInterleaveFields:
    def test_interleaves_within_segments(self):
        # Two segments; field A contributes 1 line per segment, field
        # B contributes [2, 1] lines.  Within each segment the fields
        # appear in field order: a0 b0 b1 | a1 b2.
        field_a = (
            np.asarray([1, 1]),
            np.asarray([10, 11]),
            None,
        )
        field_b = (
            np.asarray([2, 1]),
            np.asarray([20, 21, 22]),
            np.asarray([True, False, True]),
        )
        lines, demand = interleave_fields([field_a, field_b])
        assert lines.tolist() == [10, 20, 21, 11, 22]
        assert demand.tolist() == [True, True, False, True, True]

    def test_empty_segments_are_skipped(self):
        field = (
            np.asarray([0, 2, 0]),
            np.asarray([7, 8]),
            None,
        )
        lines, demand = interleave_fields([field])
        assert lines.tolist() == [7, 8]
        assert demand.all()


class TestRunField:
    def test_matches_touch_runs(self):
        memory = Memory(tiny_hierarchy())
        array = memory.array("a", 64, 8)
        starts = np.asarray([0, 16, 3, 40])
        lengths = np.asarray([3, 8, 0, 2])
        field = run_field(array, starts, lengths)
        # Line-for-line what touch_runs emits, zero-length runs skipped.
        scalar = Memory(tiny_hierarchy())
        scalar_array = scalar.array("a", 64, 8)
        scalar_array.touch_runs(starts, lengths)
        batched = Memory(tiny_hierarchy())
        batched.array("a", 64, 8)
        batched.touch_block(
            field.lines, field.demand, field.extra_l1, field.prefetched
        )
        assert batched.level_counts == scalar.level_counts
        assert batched.total_refs == scalar.total_refs
        assert batched.prefetched_refs == scalar.prefetched_refs

    def test_per_segment_lengths_cover_empty_runs(self):
        memory = Memory(tiny_hierarchy())
        array = memory.array("a", 64, 8)
        field = run_field(
            array, np.asarray([0, 0, 32]), np.asarray([2, 0, 1])
        )
        assert field.lengths.shape == (3,)
        assert field.lengths[1] == 0
        # First line of each live run is demand, the rest prefetched.
        assert field.demand[0]
        assert int(field.prefetched) == int(
            field.lines.shape[0] - (field.lengths > 0).sum()
        )


class TestClaimFirst:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_and_sparse_agree(self, seed):
        rng = np.random.default_rng(seed)
        targets = rng.integers(0, 50, size=200)
        claimable = rng.random(200) < 0.5
        dense = claim_first(targets, 50, claimable, strategy="dense")
        sparse = claim_first(targets, 50, claimable, strategy="sparse")
        assert np.array_equal(dense, sparse)

    def test_first_position_wins(self):
        targets = np.asarray([3, 1, 3, 2, 1])
        first = claim_first(targets, 4)
        assert first.tolist() == [True, True, False, True, False]

    def test_claimable_filters_winners(self):
        targets = np.asarray([3, 3])
        claimable = np.asarray([False, True])
        first = claim_first(targets, 4, claimable)
        # The stream-first position is the claim; masking it out does
        # not promote the second occurrence (it mirrors the scalar
        # loop's "check visited, then claim" order).
        assert first.tolist() == [False, False]

    def test_empty_stream(self):
        out = claim_first(np.zeros(0, dtype=np.int64), 10)
        assert out.shape == (0,)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InvalidParameterError, match="strategy"):
            claim_first(np.asarray([0]), 4, strategy="magic")


class TestFrontier:
    def test_density_switch(self):
        assert Frontier(np.arange(10), 16).is_dense
        assert not Frontier(np.arange(1), 1000).is_dense

    def test_advance_gathers_csr_order(self):
        graph = from_edges(
            [(0, 1), (0, 2), (1, 2), (2, 0)], num_nodes=3
        )
        frontier = Frontier(np.asarray([2, 0]), graph.num_nodes)
        edges = frontier.advance(graph.offsets, graph.adjacency)
        assert edges.degrees.tolist() == [1, 2]
        assert edges.targets.tolist() == [0, 1, 2]
        assert edges.total == 3


class TestBucketQueue:
    def test_pop_bucket_serves_smallest(self):
        queue = BucketQueue()
        queue.push(np.asarray([5, 2, 5, 2]), np.asarray([0, 1, 2, 3]))
        key, items = queue.pop_bucket()
        assert key == 2
        assert sorted(items.tolist()) == [1, 3]
        key, items = queue.pop_bucket()
        assert key == 5
        assert sorted(items.tolist()) == [0, 2]
        assert queue.empty
        assert queue.pop_bucket() is None

    def test_pop_at_drains_fused_reinsertions(self):
        queue = BucketQueue()
        queue.push(np.asarray([3]), np.asarray([0]))
        key, _ = queue.pop_bucket()
        # Light relaxations land back in the active bucket ...
        queue.push(np.asarray([3, 4]), np.asarray([1, 2]))
        refill = queue.pop_at(key)
        assert refill.tolist() == [1]
        # ... and once the bucket stays empty, fusion stops.
        assert queue.pop_at(key) is None
        key, items = queue.pop_bucket()
        assert (key, items.tolist()) == (4, [2])

    def test_push_empty_is_noop(self):
        queue = BucketQueue()
        queue.push(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert queue.empty


class TestTraceEmitter:
    def test_flush_is_backend_identical(self):
        lines = np.asarray([0, 3, 1, 3, 0], dtype=np.int64)
        demand = np.asarray([True, True, False, True, True])
        memories = {}
        for backend in ("step", "replay"):
            memory = Memory(tiny_hierarchy(), cache_backend=backend)
            TraceEmitter(memory).flush(
                lines, demand, extra_l1=2, prefetched=1
            )
            memories[backend] = memory
        assert (
            memories["step"].level_counts
            == memories["replay"].level_counts
        )
        assert (
            memories["step"].total_refs
            == memories["replay"].total_refs
        )

    def test_empty_flush_records_nothing(self):
        memory = Memory(tiny_hierarchy())
        TraceEmitter(memory).flush(np.zeros(0, dtype=np.int64))
        assert memory.total_refs == 0


# ---------------------------------------------------------------------
# Backend dispatch
# ---------------------------------------------------------------------
RUNTIME_PORTED = ("nq", "bfs", "sp", "pr", "lp", "diam")


class TestBackendDispatch:
    def test_backends_enumerated(self):
        assert ALGO_BACKENDS == ("runtime", "scalar")

    @pytest.mark.parametrize("name", RUNTIME_PORTED)
    def test_scalar_backend_selects_the_oracle(self, name):
        spec = REGISTRY[name]
        assert traced_fn(spec, "runtime") is spec.traced
        assert traced_fn(spec, "scalar") is TRACED_SCALAR[name]
        assert TRACED_SCALAR[name] is not spec.traced

    def test_scalar_backend_falls_back_without_an_oracle(self):
        spec = REGISTRY["kcore"]  # scalar by design: no separate oracle
        assert "kcore" not in TRACED_SCALAR
        assert traced_fn(spec, "scalar") is spec.traced

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError, match="backend"):
            traced_fn(REGISTRY["bfs"], "gpu")


class TestOneDefault:
    """Every remaining simulator switch defaults to the production
    pair, and the selector no longer takes one."""

    @staticmethod
    def defaults(function, *names):
        parameters = inspect.signature(function).parameters
        return tuple(parameters[name].default for name in names)

    def test_production_pair_everywhere(self):
        production = ("replay", "runtime")
        assert self.defaults(Memory, "cache_backend") == production[:1]
        assert self.defaults(traced_fn, "algo_backend") == production[1:]
        assert self.defaults(
            run_cell, "cache_backend", "algo_backend"
        ) == production
        profile = Profile(name="d", datasets=("epinion",))
        assert (profile.cache_backend, profile.algo_backend) == production

    def test_auto_accepts_no_backend(self):
        accepted = accepted_params("auto")
        assert "cache_backend" not in accepted
        assert "algo_backend" not in accepted


# ---------------------------------------------------------------------
# Counter-identity parity: runtime vs scalar oracle
# ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def social():
    return generators.social_graph(120, edges_per_node=5, seed=7)


EDGE_CASES = {
    "empty": from_edges([], num_nodes=0),
    "edgeless": from_edges([], num_nodes=4),
    "selfloop": from_edges([(0, 0), (0, 1), (2, 2)], num_nodes=3),
    "path": from_edges([(0, 1), (1, 2), (2, 3)], num_nodes=4),
}


def parity_params(name):
    if name == "sp":
        return {"source": 0}
    if name in ("pr", "lp"):
        return {"iterations": 3}
    if name == "diam":
        return {"num_sources": 2, "seed": 0}
    return {}


def run_backend(graph, name, algo_backend, cache_backend, params):
    memory = Memory(tiny_hierarchy(), cache_backend=cache_backend)
    traced = traced_fn(REGISTRY[name], algo_backend)
    result = traced(graph, memory, **params)
    return (
        np.asarray(result),
        memory.level_counts,
        memory.total_refs,
        memory.prefetched_refs,
    )


def assert_counter_identical(graph, name, cache_backend, params=None):
    params = parity_params(name) if params is None else params
    scalar = run_backend(graph, name, "scalar", cache_backend, params)
    runtime = run_backend(graph, name, "runtime", cache_backend, params)
    assert np.array_equal(scalar[0], runtime[0])
    assert scalar[1:] == runtime[1:]


class TestCounterIdentity:
    @pytest.mark.parametrize("cache_backend", ["step", "replay"])
    @pytest.mark.parametrize("name", RUNTIME_PORTED)
    def test_social_graph(self, social, name, cache_backend):
        assert_counter_identical(social, name, cache_backend)

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    @pytest.mark.parametrize("name", RUNTIME_PORTED)
    def test_edge_case_graphs(self, name, case):
        graph = EDGE_CASES[case]
        if graph.num_nodes == 0 and name in ("sp", "diam"):
            # Both require a valid source; the empty graph has none.
            return
        assert_counter_identical(graph, name, "replay")

    @pytest.mark.parametrize("name", ("pr", "lp"))
    def test_zero_iterations(self, social, name):
        assert_counter_identical(
            social, name, "replay", {"iterations": 0}
        )


# ---------------------------------------------------------------------
# Differential harness: production path vs oracle pair
# ---------------------------------------------------------------------
DIFFERENTIAL_ORDERINGS = ("original", "rcm", "gorder")
#: Large enough that the arrays span more lines than the tiny
#: hierarchy's L1 holds, so the graphs exercise evictions.
DIFFERENTIAL_GRAPHS = graph_strategy(max_nodes=40, max_edges=120)


def differential_params(name):
    if name in ("sp", "dsssp"):
        return {"source": 0}
    if name in ("pr", "lp"):
        return {"iterations": 2}
    if name == "diam":
        return {"num_sources": 2, "seed": 0}
    return {}


def simulate(graph, name, oracle):
    """Result and every counter of one traced run.

    ``oracle`` selects cache stepping plus the scalar emitter; without
    it, ``Memory`` and ``traced_fn`` run at their defaults.
    """
    spec = REGISTRY[name]
    if oracle:
        memory = Memory(tiny_hierarchy(), cache_backend="step")
        traced = traced_fn(spec, "scalar")
    else:
        memory = Memory(tiny_hierarchy())
        traced = traced_fn(spec)
    result = traced(graph, memory, **differential_params(name))
    return result, (
        memory.level_counts,
        memory.total_refs,
        memory.prefetched_refs,
        memory.stats(),
    )


class TestProductionMatchesOracle:
    @pytest.mark.parametrize("ordering", DIFFERENTIAL_ORDERINGS)
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(graph=DIFFERENTIAL_GRAPHS)
    def test_random_graphs(self, name, ordering, graph):
        perm = compute_ordering(ordering, graph, seed=0)
        arranged = relabel(graph, perm)
        production, production_counters = simulate(
            arranged, name, oracle=False
        )
        oracle, oracle_counters = simulate(arranged, name, oracle=True)
        np.testing.assert_equal(production, oracle)
        # level_counts, total_refs, prefetched_refs, per-level
        # refs/misses (CacheStats).
        assert production_counters == oracle_counters
