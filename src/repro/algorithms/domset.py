"""DS — greedy dominating set.

The replication's greedy approximation: repeatedly select the node
covering the most still-uncovered nodes (itself plus its
out-neighbours), add it to the dominating set, and mark its coverage.
Selection uses a :class:`~repro.ordering.unit_heap.UnitHeap` — when a
node ``w`` becomes covered, the gain of ``w`` and of every in-neighbour
of ``w`` drops by exactly one, so all updates are O(1) unit
decrements, plus one vectorised O(n/256 + 256) scan per pop attempt.

Domination invariant (verified by tests): every node is in the set or
is an out-neighbour of a set member.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NODE_BYTES, declare_graph, no_emit
from repro.cache.layout import Memory
from repro.graph.csr import CSRGraph
from repro.ordering.unit_heap import UnitHeap


def dominating_set(graph: CSRGraph) -> np.ndarray:
    """Greedy dominating set; returns chosen nodes in selection order."""
    return _greedy(graph, memory=None)


def dominating_set_traced(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Greedy dominating set with traced memory accesses.

    The unit heap itself is a pointer structure over per-node slots;
    its traffic is modelled as one ``gain`` array access per unit
    update plus the ``covered`` flag probes.
    """
    return _greedy(graph, memory=memory)


def _greedy(graph: CSRGraph, memory: Memory | None) -> np.ndarray:
    n = graph.num_nodes
    if memory is None:
        emit = no_emit
        c_covered = c_gain = c_offsets = c_in_offsets = 0
        traced_adjacency = traced_in_adjacency = None
    else:
        traced = declare_graph(memory, graph, include_in_csr=True)
        assert traced.in_offsets is not None
        c_covered = memory.array("covered", n, 1).code
        c_gain = memory.array("gain", n, NODE_BYTES).code
        c_offsets = traced.offsets.code
        c_in_offsets = traced.in_offsets.code
        traced_adjacency = traced.adjacency
        traced_in_adjacency = traced.in_adjacency
        emit = memory.touch_sink()
    offsets = graph.offsets.tolist()
    adjacency = graph.adjacency
    in_offsets = graph.in_offsets.tolist()
    in_adjacency = graph.in_adjacency
    heap = UnitHeap(n)
    # gain(u) = 1 (itself) + out_degree(u).
    heap.increase_batch(np.arange(n), counts=np.diff(graph.offsets) + 1)
    covered = [False] * n
    chosen: list[int] = []
    remaining = n
    while remaining > 0:
        u = heap.pop_max()
        emit(c_gain + u)
        chosen.append(u)
        emit(c_offsets + u)
        start = offsets[u]
        degree = offsets[u + 1] - start
        if traced_adjacency is not None:
            traced_adjacency.touch_run(start, degree)
        for w in [u] + adjacency[start:start + degree].tolist():
            emit(c_covered + w)
            if covered[w]:
                continue
            covered[w] = True
            remaining -= 1
            heap.decrease(w)  # w no longer contributes to its own gain
            emit(c_gain + w)
            emit(c_in_offsets + w)
            in_start = in_offsets[w]
            in_degree = in_offsets[w + 1] - in_start
            if traced_in_adjacency is not None:
                traced_in_adjacency.touch_run(in_start, in_degree)
            for z in in_adjacency[in_start:in_start + in_degree].tolist():
                heap.decrease(z)
                emit(c_gain + z)
    return np.array(chosen, dtype=np.int64)
