"""``run_arranged``: the one function that runs an algorithm on an
arranged graph, checked against the simulator and emitter oracles."""

import numpy as np
import pytest

from repro.algorithms import REGISTRY, run_arranged, traced_fn
from repro.cache import Memory, scaled_hierarchy
from repro.errors import InvalidParameterError
from repro.graph import datasets, empty_graph, generators, relabel
from repro.ordering import OrderingConfig, compute_ordering
from repro.ordering.select import Workload
from repro.perf import simulate


@pytest.fixture(scope="module")
def graph():
    return generators.web_graph(
        500, pages_per_host=50, out_degree=6, seed=29
    )


@pytest.fixture(scope="module")
def arranged(graph):
    perm = compute_ordering("gorder", graph)
    return relabel(graph, perm), perm


def oracle_run(name, arranged_graph, **params):
    """The step simulator and the scalar emitter on ``arranged_graph``
    with ``params`` already in relabelled ids."""
    memory = Memory(scaled_hierarchy(), cache_backend="step")
    traced_fn(REGISTRY[name], "scalar")(arranged_graph, memory, **params)
    return memory.cost(), memory.stats()


class TestRunArranged:
    def test_probe_counter_identity_replay_vs_step(self, arranged):
        arranged_graph, perm = arranged
        cost, stats = run_arranged("nq", arranged_graph, perm)
        oracle_cost, oracle_stats = oracle_run("nq", arranged_graph)
        assert cost.total_cycles == oracle_cost.total_cycles
        assert stats == oracle_stats

    @pytest.mark.parametrize(
        "name, params",
        [
            ("sp", {"source": 3}),
            ("dsssp", {"source": 3}),
            ("diam", {"sources": [3, 7]}),
        ],
    )
    def test_sources_name_logical_nodes(self, arranged, name, params):
        arranged_graph, perm = arranged
        (key, value), = params.items()
        mapped = (
            int(perm[value]) if isinstance(value, int)
            else [int(perm[v]) for v in value]
        )
        assert mapped != value  # the arrangement moves the sources
        cost, stats = run_arranged(name, arranged_graph, perm, params)
        oracle_cost, oracle_stats = oracle_run(
            name, arranged_graph, **{key: mapped}
        )
        assert cost.total_cycles == oracle_cost.total_cycles
        assert stats == oracle_stats

    def test_params_left_unmapped_for_the_caller(self, arranged):
        arranged_graph, perm = arranged
        params = {"sources": [3, 7]}
        run_arranged("diam", arranged_graph, perm, params)
        assert params == {"sources": [3, 7]}

    @pytest.mark.parametrize("name", ["sp", "dsssp"])
    def test_omitted_source_is_logical_node_zero(self, arranged, name):
        arranged_graph, perm = arranged
        assert int(perm[0]) != 0  # the arrangement moves node 0
        cost, stats = run_arranged(name, arranged_graph, perm)
        oracle_cost, oracle_stats = oracle_run(
            name, arranged_graph, source=int(perm[0])
        )
        assert cost.total_cycles == oracle_cost.total_cycles
        assert stats == oracle_stats

    @pytest.mark.parametrize("source", [-1, 500])
    def test_source_outside_the_graph_is_reported(self, arranged, source):
        arranged_graph, perm = arranged
        with pytest.raises(InvalidParameterError, match="out of range"):
            run_arranged("sp", arranged_graph, perm, {"source": source})


class TestOmittedSourceEndToEnd:
    """Under ``random`` on epinion, node 0 of the relabelled graph is
    logical node 163: SP from it took 424 558 cycles, SP from logical
    node 0 takes 419 048."""

    CYCLES = 419_048

    @pytest.fixture(scope="class")
    def epinion(self):
        return datasets.load("epinion")

    def test_simulate(self, epinion):
        config = OrderingConfig("random")
        omitted = simulate(epinion, "sp", config)
        explicit = simulate(epinion, "sp", config, {"source": 0})
        assert omitted.cycles == explicit.cycles == self.CYCLES
        assert omitted.stats == explicit.stats

    def test_workload_step(self, epinion):
        perm = compute_ordering("random", epinion)
        assert int(perm[0]) == 163
        omitted = Workload.of("sp", "sp").run(epinion, perm)
        explicit = Workload.of("sp", ("sp", {"source": 0})).run(
            epinion, perm
        )
        assert omitted == explicit
        assert omitted[0] == self.CYCLES


class TestEmptyGraph:
    """A graph with no nodes has no source: SP and DSSSP report it as
    a parameter error on every path, as Diam does."""

    @pytest.fixture(scope="class")
    def empty(self):
        return empty_graph(0)

    @pytest.mark.parametrize("name", ["sp", "dsssp"])
    @pytest.mark.parametrize(
        "path", ["pure", "runtime", "scalar", "run_arranged", "simulate"]
    )
    def test_source_is_reported(self, empty, name, path):
        with pytest.raises(InvalidParameterError, match="out of range"):
            if path == "pure":
                REGISTRY[name].pure(empty)
            elif path in ("runtime", "scalar"):
                traced_fn(REGISTRY[name], path)(empty, Memory())
            elif path == "run_arranged":
                run_arranged(name, empty, np.arange(0))
            else:
                simulate(empty, name, OrderingConfig("original", 0))
