"""Relabeling invariance: algorithm *results* are properties of the
graph, not of its memory layout.

For every ordering-relabeled copy of a graph, each algorithm must
produce the same logical answer (mapped back through the
permutation).  This is the correctness backbone of the whole
experiment design: orderings may only change *performance*.

:class:`TestRelabelInvarianceOnRandomGraphs` checks it on hypothesis
graphs, under every registered ordering but ``auto`` (which only
picks one of the others), for the pure and the traced result of each
algorithm whose answer is a property of the graph alone.  Per-node
answers map back through the permutation; SCC and WCC compare as
partitions (component ids are arbitrary); PageRank compares to
float tolerance (relabeling reorders its sums).  Four algorithms
are excluded because their answer breaks ties by node id, so a
relabeling legitimately changes it:

* BFS numbers a forest whose roots are the lowest unvisited ids, so
  the distances depend on which node is called 0;
* DFS returns a preorder that visits neighbours in id order;
* DS's greedy picks the smallest id among equally good candidates,
  so it returns a different (still dominating) set;
* LP adopts the smallest label on frequency ties, and labels start
  as node ids.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.algorithms import (
    REGISTRY as ALGORITHMS,
    core_decomposition,
    delta_stepping,
    diameter,
    dominating_set,
    neighbor_query,
    pagerank,
    shortest_paths,
    strongly_connected_components,
    weighted_core_decomposition,
)
from repro.cache import Memory
from repro.graph import generators, relabel
from repro.ordering import (
    ORDERING_NAMES,
    REGISTRY as ORDERINGS,
    compute_ordering,
)

from tests.conftest import graph_strategy


@pytest.fixture(scope="module")
def graph():
    return generators.social_graph(120, edges_per_node=5, seed=77)


@pytest.fixture(scope="module", params=["gorder", "rcm", "random"])
def permuted(request, graph):
    perm = compute_ordering(request.param, graph, seed=13)
    return relabel(graph, perm), perm


class TestResultInvariance:
    def test_neighbor_query(self, graph, permuted):
        relabeled, perm = permuted
        original = neighbor_query(graph)
        transformed = neighbor_query(relabeled)
        assert np.array_equal(original, transformed[perm])

    def test_pagerank(self, graph, permuted):
        relabeled, perm = permuted
        original = pagerank(graph, iterations=40)
        transformed = pagerank(relabeled, iterations=40)
        assert np.allclose(original, transformed[perm])

    def test_shortest_paths(self, graph, permuted):
        relabeled, perm = permuted
        source = 3
        original = shortest_paths(graph, source)
        transformed = shortest_paths(relabeled, int(perm[source]))
        assert np.array_equal(original, transformed[perm])

    def test_scc_partition(self, graph, permuted):
        relabeled, perm = permuted
        original = strongly_connected_components(graph)
        transformed = strongly_connected_components(relabeled)[perm]
        # Component ids may differ; the partition must not.
        mapping: dict[int, int] = {}
        for a, b in zip(original.tolist(), transformed.tolist()):
            assert mapping.setdefault(a, b) == b
        assert len(set(mapping.values())) == len(mapping)

    def test_core_numbers(self, graph, permuted):
        relabeled, perm = permuted
        original = core_decomposition(graph)
        transformed = core_decomposition(relabeled)
        assert np.array_equal(original, transformed[perm])

    def test_diameter(self, graph, permuted):
        relabeled, perm = permuted
        sources = [0, 7, 19]
        original = diameter(graph, sources=sources)
        transformed = diameter(
            relabeled, sources=[int(perm[s]) for s in sources]
        )
        assert original == transformed

    def test_delta_stepping(self, graph, permuted):
        relabeled, perm = permuted
        source = 3
        original = delta_stepping(graph, source)
        transformed = delta_stepping(relabeled, int(perm[source]))
        assert np.array_equal(original, transformed[perm])

    def test_weighted_core_numbers(self, graph, permuted):
        relabeled, perm = permuted
        original = weighted_core_decomposition(graph)
        transformed = weighted_core_decomposition(relabeled)
        assert np.array_equal(original, transformed[perm])

    def test_dominating_set_still_dominates(self, graph, permuted):
        relabeled, _ = permuted
        chosen = dominating_set(relabeled)
        in_set = np.zeros(relabeled.num_nodes, dtype=bool)
        in_set[chosen] = True
        covered = in_set.copy()
        for u in chosen:
            covered[relabeled.out_neighbors(int(u))] = True
        assert covered.all()


class TestAllOrderingsPreserveResults:
    @pytest.mark.parametrize("ordering", ORDERING_NAMES)
    def test_pagerank_under_every_ordering(self, graph, ordering):
        perm = compute_ordering(ordering, graph, seed=5)
        relabeled = relabel(graph, perm)
        original = pagerank(graph, iterations=25)
        transformed = pagerank(relabeled, iterations=25)
        assert np.allclose(original, transformed[perm])


#: Algorithms whose answer breaks ties by node id (see the module
#: docstring); every other registered algorithm is checked.
TIE_BREAK_BY_ID = frozenset({"bfs", "dfs", "ds", "lp"})
#: Answers that are a labelling of the nodes into components.
PARTITIONS = frozenset({"scc", "wcc"})

def assert_same_partition(original, transformed):
    mapping: dict[int, int] = {}
    for a, b in zip(original.tolist(), transformed.tolist()):
        assert mapping.setdefault(a, b) == b
    assert len(set(mapping.values())) == len(mapping)


def logical_params(name, graph):
    params = {"iterations": 10} if name == "pr" else {}
    if name in ("sp", "dsssp"):
        params["source"] = graph.num_nodes - 1
    elif name == "diam":
        params["sources"] = [0, graph.num_nodes // 2]
    return params


def mapped_params(name, params, perm):
    mapped = dict(params)
    if name in ("sp", "dsssp"):
        mapped["source"] = int(perm[params["source"]])
    elif name == "diam":
        mapped["sources"] = [int(perm[s]) for s in params["sources"]]
    return mapped


def assert_invariant(name, original, transformed, perm):
    if name in PARTITIONS:
        assert_same_partition(original, transformed[perm])
    elif not isinstance(original, np.ndarray):
        assert original == transformed
    elif name == "pr":
        assert np.allclose(original, transformed[perm])
    else:
        assert np.array_equal(original, transformed[perm])


class TestRelabelInvarianceOnRandomGraphs:
    CHECKED = sorted(set(ALGORITHMS) - TIE_BREAK_BY_ID)

    def test_exclusions_name_registered_algorithms(self):
        assert TIE_BREAK_BY_ID <= set(ALGORITHMS)

    @pytest.mark.parametrize(
        "ordering", sorted(set(ORDERINGS) - {"auto"})
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph=graph_strategy())
    def test_pure_and_traced_results(self, ordering, graph):
        perm = compute_ordering(ordering, graph, seed=3)
        relabeled = relabel(graph, perm)
        for name in self.CHECKED:
            spec = ALGORITHMS[name]
            params = logical_params(name, graph)
            moved = mapped_params(name, params, perm)
            assert_invariant(
                name,
                spec.pure(graph, **params),
                spec.pure(relabeled, **moved),
                perm,
            )
            assert_invariant(
                name,
                spec.traced(graph, Memory(), **params),
                spec.traced(relabeled, Memory(), **moved),
                perm,
            )
