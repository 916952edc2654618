"""Kcore — core decomposition by peeling.

Recursively removes the minimum-degree node of the undirected view; a
node's *core number* is the peel level ``k`` current when it is
removed.  Following the replication, degrees live in a **binary heap**
with lazy invalidation (stale entries skipped at pop), giving the
quasi-linear O(m log n) variant — and giving the cache model the heap
traffic to account, via :class:`TracedBinaryHeap`.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NODE_BYTES, no_emit
from repro.algorithms.traced_heap import TracedBinaryHeap
from repro.cache.layout import Memory
from repro.graph.csr import CSRGraph


def core_decomposition(graph: CSRGraph) -> np.ndarray:
    """Core number of every node (on the undirected view)."""
    return _peel(graph, memory=None)


def core_decomposition_traced(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Core decomposition with traced memory accesses."""
    return _peel(graph, memory=memory)


def _peel(graph: CSRGraph, memory: Memory | None) -> np.ndarray:
    undirected = graph.undirected()
    n = undirected.num_nodes
    offsets = undirected.offsets.tolist()
    adjacency = undirected.adjacency
    degrees = np.diff(undirected.offsets).tolist()
    if memory is None:
        heap = TracedBinaryHeap(None)
        emit = no_emit
        c_offsets = c_degree = c_core = c_removed = 0
        traced_adjacency = None
    else:
        # Heap capacity: one initial entry per node plus one re-push per
        # undirected edge endpoint decrement.
        heap = TracedBinaryHeap.declare(
            memory, "kcore_heap", n + undirected.num_edges
        )
        c_offsets = memory.array("u_offsets", n + 1, 8).code
        traced_adjacency = memory.array(
            "u_adjacency", undirected.num_edges, NODE_BYTES
        )
        c_degree = memory.array("degree", n, NODE_BYTES).code
        c_core = memory.array("core", n, NODE_BYTES).code
        c_removed = memory.array("removed", n, 1).code
        emit = memory.touch_sink()
    core = [0] * n
    removed = [False] * n
    for u in range(n):
        heap.push(degrees[u], u)
    level = 0
    for _ in range(n):
        while True:
            key, u = heap.pop()
            emit(c_removed + u)
            if removed[u]:
                continue  # lazily invalidated entry
            emit(c_degree + u)
            if key == degrees[u]:
                break
        removed[u] = True
        if key > level:
            level = key
        core[u] = level
        emit(c_core + u)
        emit(c_offsets + u)
        start = offsets[u]
        end = offsets[u + 1]
        if traced_adjacency is not None:
            traced_adjacency.touch_run(start, end - start)
        for v in adjacency[start:end].tolist():
            emit(c_removed + v)
            if not removed[v]:
                emit(c_degree + v)
                degrees[v] -= 1
                heap.push(degrees[v], v)
    return np.array(core, dtype=np.int64)
