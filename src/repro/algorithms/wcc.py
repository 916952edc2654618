"""WCC — weakly connected components (extension algorithm).

Not one of the paper's nine, but the replication closes by noting
Gorder "could speed up other graph algorithms as well"; WCC via
union-find is the classic pointer-chasing counterexample candidate and
rounds out the suite.  Edge direction is ignored.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import declare_graph, no_emit
from repro.algorithms.union_find import UnionFind
from repro.cache.layout import Memory
from repro.graph.csr import CSRGraph


def weakly_connected_components(graph: CSRGraph) -> np.ndarray:
    """Component id per node (0-based, compacted)."""
    return _wcc(graph, memory=None)


def weakly_connected_components_traced(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """WCC with traced memory accesses (CSR scan + DSU chasing)."""
    return _wcc(graph, memory=memory)


def _wcc(graph: CSRGraph, memory: Memory | None) -> np.ndarray:
    n = graph.num_nodes
    dsu = UnionFind(n, memory=memory)
    offsets = graph.offsets.tolist()
    adjacency = graph.adjacency
    traced = declare_graph(memory, graph) if memory is not None else None
    emit = memory.touch_sink() if memory is not None else no_emit
    c_offsets = traced.offsets.code if traced is not None else 0
    for u in range(n):
        start = offsets[u]
        end = offsets[u + 1]
        emit(c_offsets + u)
        if traced is not None:
            traced.adjacency.touch_run(start, end - start)
        for v in adjacency[start:end].tolist():
            dsu.union(u, v)
    return dsu.components()
