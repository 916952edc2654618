"""DFS — whole-graph depth-first search.

Iterative DFS with an explicit stack, neighbours pushed in reverse so
the lexicographically smallest pops first.  Visited flags are set at
push time (the standard explicit-stack discipline — the ChDFS
*ordering* uses exactly the same discipline, which is what makes it
the fastest ordering for this algorithm in the replication).

Returns the preorder visit number of every node.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NODE_BYTES, declare_graph, no_emit
from repro.cache.layout import Memory
from repro.graph.csr import CSRGraph


def depth_first_search(graph: CSRGraph) -> np.ndarray:
    """Whole-graph DFS; returns per-node preorder visit index."""
    return _dfs(graph, memory=None)


def depth_first_search_traced(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Whole-graph DFS with traced memory accesses."""
    return _dfs(graph, memory=memory)


def _dfs(graph: CSRGraph, memory: Memory | None) -> np.ndarray:
    n = graph.num_nodes
    if memory is None:
        emit = no_emit
        c_visited = c_preorder = c_stack = c_offsets = 0
        traced_adjacency = None
    else:
        traced = declare_graph(memory, graph)
        c_visited = memory.array("visited", n, 1).code
        c_preorder = memory.array("preorder", n, NODE_BYTES).code
        c_stack = memory.array("stack", n, NODE_BYTES).code
        c_offsets = traced.offsets.code
        traced_adjacency = traced.adjacency
        emit = memory.touch_sink()
    offsets = graph.offsets.tolist()
    adjacency = graph.adjacency
    visited = [False] * n
    preorder = [0] * n
    counter = 0
    for root in range(n):
        # Restart scan probes the visited flag.
        emit(c_visited + root)
        if visited[root]:
            continue
        visited[root] = True
        stack = [root]
        emit(c_stack)
        while stack:
            emit(c_stack + len(stack) - 1)
            u = stack.pop()
            emit(c_preorder + u)
            preorder[u] = counter
            counter += 1
            emit(c_offsets + u)
            start = offsets[u]
            end = offsets[u + 1]
            if traced_adjacency is not None:
                traced_adjacency.touch_run(start, end - start)
            for v in reversed(adjacency[start:end].tolist()):
                emit(c_visited + v)
                if not visited[v]:
                    visited[v] = True
                    stack.append(v)
                    emit(c_stack + len(stack) - 1)
    return np.array(preorder, dtype=np.int64)
