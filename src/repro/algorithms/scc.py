"""SCC — strongly connected components via Tarjan's algorithm.

Iterative Tarjan [Tarjan 1972] with an explicit work stack (the
datasets are far deeper than CPython's recursion limit).  Returns a
component id per node; ids are assigned in the order components
complete, so they are deterministic.  Nodes in the same component get
the same id, and the partition is invariant under relabeling — the
integration tests rely on both properties.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NODE_BYTES, declare_graph, no_emit
from repro.cache.layout import Memory
from repro.graph.csr import CSRGraph

_UNSET = -1


def strongly_connected_components(graph: CSRGraph) -> np.ndarray:
    """Tarjan SCC; returns the component id of every node."""
    return _tarjan(graph, memory=None)


def strongly_connected_components_traced(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Tarjan SCC with traced memory accesses."""
    return _tarjan(graph, memory=memory)


def _tarjan(graph: CSRGraph, memory: Memory | None) -> np.ndarray:
    n = graph.num_nodes
    if memory is None:
        emit = no_emit
        c_disc = c_low = c_component = c_on_stack = c_stack = 0
        c_offsets = c_adjacency = 0
    else:
        traced = declare_graph(memory, graph)
        c_disc = memory.array("disc", n, NODE_BYTES).code
        c_low = memory.array("low", n, NODE_BYTES).code
        c_component = memory.array("component", n, NODE_BYTES).code
        c_on_stack = memory.array("on_stack", n, 1).code
        c_stack = memory.array("tarjan_stack", n, NODE_BYTES).code
        c_offsets = traced.offsets.code
        c_adjacency = traced.adjacency.code
        emit = memory.touch_sink()
    offsets = graph.offsets.tolist()
    adjacency = graph.adjacency.tolist()
    disc = [_UNSET] * n
    low = [0] * n
    component = [_UNSET] * n
    on_stack = [False] * n
    tarjan_stack: list[int] = []
    counter = 0
    components = 0
    for root in range(n):
        emit(c_disc + root)  # restart scan
        if disc[root] != _UNSET:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            u, edge_index = work[-1]
            if edge_index == 0:
                emit(c_disc + u)
                emit(c_low + u)
                disc[u] = low[u] = counter
                counter += 1
                tarjan_stack.append(u)
                emit(c_stack + len(tarjan_stack) - 1)
                on_stack[u] = True
                emit(c_on_stack + u)
                emit(c_offsets + u)
            start = offsets[u]
            end = offsets[u + 1]
            descended = False
            i = start + edge_index
            while i < end:
                emit(c_adjacency + i)
                v = adjacency[i]
                i += 1
                emit(c_disc + v)
                if disc[v] == _UNSET:
                    work[-1][1] = i - start
                    work.append([v, 0])
                    descended = True
                    break
                emit(c_on_stack + v)
                if on_stack[v] and disc[v] < low[u]:
                    emit(c_low + u)
                    low[u] = disc[v]
            if descended:
                continue
            emit(c_low + u)
            emit(c_disc + u)
            if low[u] == disc[u]:
                while True:
                    emit(c_stack + len(tarjan_stack) - 1)
                    w = tarjan_stack.pop()
                    on_stack[w] = False
                    emit(c_on_stack + w)
                    component[w] = components
                    emit(c_component + w)
                    if w == u:
                        break
                components += 1
            work.pop()
            if work:
                parent = work[-1][0]
                emit(c_low + parent)
                if low[u] < low[parent]:
                    low[parent] = low[u]
    return np.array(component, dtype=np.int64)
