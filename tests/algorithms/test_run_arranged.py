"""``run_arranged``: the one function that runs an algorithm on an
arranged graph, checked against the simulator and emitter oracles."""

import pytest

from repro.algorithms import REGISTRY, run_arranged, traced_fn
from repro.cache import Memory, scaled_hierarchy
from repro.graph import generators, relabel
from repro.ordering import compute_ordering


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
