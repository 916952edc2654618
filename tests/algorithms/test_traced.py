"""Traced algorithm variants: result equivalence + trace sanity.

The traced twins must compute exactly the same results as the pure
implementations while producing a non-trivial, ordering-sensitive
memory trace.
"""

import hashlib

import numpy as np
import pytest

from repro.algorithms import REGISTRY, traced_fn
from repro.cache import Memory, scaled_hierarchy
from repro.graph import datasets, from_edges, generators, relabel
from repro.ordering import gorder_order, random_order


@pytest.fixture(scope="module")
def graph():
    return generators.social_graph(150, edges_per_node=6, seed=33)


def params_for(name, graph):
    if name == "sp":
        return {"source": 1}
    if name == "pr":
        return {"iterations": 4}
    if name == "diam":
        return {"sources": [0, 3, 11]}
    return {}


ALGORITHMS = sorted(REGISTRY)


class TestEquivalence:
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_traced_matches_pure(self, graph, name):
        spec = REGISTRY[name]
        params = params_for(name, graph)
        pure = spec.pure(graph, **params)
        traced = spec.traced(graph, Memory(), **params)
        if isinstance(pure, np.ndarray):
            assert np.allclose(pure, traced)
        else:
            assert pure == traced

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_traced_matches_pure_on_toy_graphs(self, name):
        toy = from_edges([(0, 1), (1, 2), (2, 0), (1, 3)], num_nodes=5)
        spec = REGISTRY[name]
        params = params_for(name, toy)
        if name == "diam":
            params = {"sources": [0]}
        pure = spec.pure(toy, **params)
        traced = spec.traced(toy, Memory(), **params)
        if isinstance(pure, np.ndarray):
            assert np.allclose(pure, traced)
        else:
            assert pure == traced


class TestTraceSanity:
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_produces_references(self, graph, name):
        spec = REGISTRY[name]
        memory = Memory()
        spec.traced(graph, memory, **params_for(name, graph))
        assert memory.total_refs > graph.num_nodes
        stats = memory.stats()
        assert stats.l1_refs > 0
        assert stats.l1_misses > 0

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_reference_count_ordering_invariant(self, graph, name):
        """The algorithm does identical logical work under any
        relabeling, so demand reference counts match (the paper's
        'L1-ref is similar for all orderings' observation).

        Whole-graph algorithms are exactly invariant; for SP/Diam the
        sources are mapped through the permutation.  Label propagation
        is excluded: its ties break on raw node ids, so its sweep
        count (and hence its work) legitimately depends on the
        labeling.
        """
        if name == "lp":
            pytest.skip("label propagation tie-breaks on node ids")
        spec = REGISTRY[name]
        params = params_for(name, graph)
        perm = random_order(graph, seed=4)
        relabeled = relabel(graph, perm)
        mapped = dict(params)
        if name == "sp":
            mapped["source"] = int(perm[params["source"]])
        if name == "diam":
            mapped["sources"] = [int(perm[s]) for s in params["sources"]]
        memory_a = Memory()
        spec.traced(graph, memory_a, **params)
        memory_b = Memory()
        spec.traced(relabeled, memory_b, **mapped)
        # Queue/stack/heap traffic can differ slightly because the
        # visit order changes with ids; the bulk must match.
        assert memory_b.total_refs == pytest.approx(
            memory_a.total_refs, rel=0.15
        )

    def test_gorder_reduces_l1_misses_for_nq(self):
        big = generators.web_graph(
            3000, pages_per_host=100, out_degree=12, seed=5
        )
        spec = REGISTRY["nq"]
        random_memory = Memory(scaled_hierarchy())
        spec.traced(relabel(big, random_order(big, seed=1)), random_memory)
        gorder_memory = Memory(scaled_hierarchy())
        spec.traced(relabel(big, gorder_order(big)), gorder_memory)
        assert (
            gorder_memory.stats().l1_miss_rate
            < random_memory.stats().l1_miss_rate
        )


class TestSequentialTracePins:
    """SHA-256 of the frozen trace (``lines`` and ``demand_idx``) of
    the sequential emitters on ``wiki``, pinned from the per-call
    ``TracedArray.touch`` emitters they replaced: the sink must record
    exactly the same accesses in exactly the same order."""

    PINNED = {
        "kcore": (
            "7395a06e64ece29eca691e0e22f9afbc"
            "1357a0227ad238fa8d2d1a1f880b04ab",
            "f3a684a4d8b5e82175782c4fdf13e1d4"
            "c072dc8ad802da1fba92ec82069809d2",
        ),
        "scc": (
            "591cbbb8c96b9d83715c2b92036c84e6"
            "521096149ebb2fa45224f80f91358c42",
            "541ec2a67d64ad908b265ec38adfdf5b"
            "a18782553cf0d0bd022ad9f50130d3e0",
        ),
        "dfs": (
            "a7357db336a0cf5ab5a54ac9b2842390"
            "b88a8f96443cba5e5e06925b1c317268",
            "2d2ab88de6be52661e74be359abf1e11"
            "dbf36c334f220bb3dd0e36c577be137e",
        ),
        "ds": (
            "d67b6f1599e1a63d1a635dbb41e7632c"
            "48e7b1f2a05754277654f666fa2ed032",
            "7a3351f8f80910fa145379bdf4577e1f"
            "1d089636e2955b9f3f39016ce8ddde15",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_wiki_trace_pinned(self, name):
        memory = Memory()
        REGISTRY[name].traced(datasets.load("wiki"), memory)
        trace = memory.recorded_trace()
        digests = tuple(
            hashlib.sha256(
                np.ascontiguousarray(array, dtype=np.int64).tobytes()
            ).hexdigest()
            for array in (trace.lines, trace.demand_idx)
        )
        assert digests == self.PINNED[name]


class TestEmitterTracePins:
    """SHA-256 of the whole-record frozen trace (``lines`` and
    ``demand_idx``) on ``wiki`` of every other kind of emitter: the
    frontier runtime's blocks (NQ, BFS, SP, PR, LP, Diam), WKcore's
    batched runs (``touch_runs``), and the NQ, PR and LP scalar oracles'
    ``touch_many`` batches.  A scalar oracle records the same accesses
    in the same order as its runtime port, so the two share a pin."""

    PINNED = {
        "bfs": (
            "8be5e6c487c8004ae861b134eb06397e"
            "89bee89a063078f5ffb3006ae2bfbb4a",
            "6088ac8addafb881e00ef3e4a1e2b0f4"
            "dc2c596f4af659ad9f9dbd90dab8267d",
        ),
        "diam": (
            "cb96ca519305266c488f78b0b5bdd9cf"
            "7b783609499a9b669a18bdc699a25f33",
            "f2441fa00ee8d1c50d7e075980aa9023"
            "c0e935f533caceef0b61b20665a23f85",
        ),
        "lp": (
            "95f81b81a651d9608349dc1439a9f428"
            "252659a8ed50bd49e04f4726d8c98015",
            "c85f1477a00a2bee84741f8e8690b50d"
            "aaead4f78157b1149d268b950b4dd896",
        ),
        "nq": (
            "d37769335dc3a580663ec2d8b7147bf0"
            "3655477dd68cc86bd140e8cf321d2658",
            "3887a5a757840081d88851d9415f7e9d"
            "c5860a2ece538c013962a029f76ed25d",
        ),
        "pr": (
            "101143ff3c96ed67dba3b4c0660a858d"
            "66bbd36d7b107e0fb7e751c1d0994739",
            "b8c5e96fc8ff4606b360604af75085a8"
            "63736dc1f2bedf8236ee6e8dd1fdade2",
        ),
        "sp": (
            "1957fa2708ebd86c4ada374d29d92791"
            "b461dcd4e4f000f64844332406948fe7",
            "97eda5d323673468685baf26e4637735"
            "34c722ee0098b9f483fbae9c55a8b3d9",
        ),
        "wkcore": (
            "c1bcfa4a67c2d6e40fdba5e6fbb27798"
            "90fac97f70e58dac9285d4cdfa3e4e88",
            "1b271935920ab7dfa65f0c18c4e86365"
            "7cc3fb009363f6305cec2b432817533e",
        ),
    }

    @pytest.mark.parametrize(
        "name, backend",
        [(name, "runtime") for name in sorted(PINNED)]
        + [(name, "scalar") for name in ("lp", "nq", "pr")],
    )
    def test_wiki_trace_pinned(self, name, backend):
        memory = Memory()
        traced_fn(REGISTRY[name], backend)(datasets.load("wiki"), memory)
        trace = memory.recorded_trace()
        digests = tuple(
            hashlib.sha256(
                np.ascontiguousarray(array, dtype=np.int64).tobytes()
            ).hexdigest()
            for array in (trace.lines, trace.demand_idx)
        )
        assert digests == self.PINNED[name]
