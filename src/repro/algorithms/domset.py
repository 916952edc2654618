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

from repro.algorithms.common import NODE_BYTES, declare_graph
from repro.cache.layout import Memory
from repro.graph.csr import CSRGraph
from repro.ordering.unit_heap import UnitHeap


def dominating_set(graph: CSRGraph) -> np.ndarray:
    """Greedy dominating set; returns chosen nodes in selection order."""
    n = graph.num_nodes
    offsets = graph.offsets
    adjacency = graph.adjacency
    in_offsets = graph.in_offsets
    in_adjacency = graph.in_adjacency
    heap = UnitHeap(n)
    # gain(u) = 1 (itself) + out_degree(u).
    heap.increase_batch(np.arange(n), counts=np.diff(offsets) + 1)
    covered = np.zeros(n, dtype=bool)
    chosen: list[int] = []
    remaining = n
    while remaining > 0:
        u = heap.pop_max()
        chosen.append(u)
        for w in [u] + adjacency[offsets[u]:offsets[u + 1]].tolist():
            if covered[w]:
                continue
            covered[w] = True
            remaining -= 1
            heap.decrease(w)  # w no longer contributes to its own gain
            for z in in_adjacency[in_offsets[w]:in_offsets[w + 1]].tolist():
                heap.decrease(z)
    return np.array(chosen, dtype=np.int64)


def dominating_set_traced(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Greedy dominating set with traced memory accesses.

    The unit heap itself is a pointer structure over per-node slots;
    its traffic is modelled as one ``gain`` array access per unit
    update plus the ``covered`` flag probes.
    """
    n = graph.num_nodes
    traced = declare_graph(memory, graph, include_in_csr=True)
    traced_covered = memory.array("covered", n, 1)
    traced_gain = memory.array("gain", n, NODE_BYTES)
    offsets = graph.offsets
    adjacency = graph.adjacency
    in_offsets = graph.in_offsets
    in_adjacency = graph.in_adjacency
    heap = UnitHeap(n)
    heap.increase_batch(np.arange(n), counts=np.diff(offsets) + 1)
    covered = np.zeros(n, dtype=bool)
    chosen: list[int] = []
    remaining = n
    touch_covered = traced_covered.touch
    touch_gain = traced_gain.touch
    assert traced.in_offsets is not None
    assert traced.in_adjacency is not None
    while remaining > 0:
        u = heap.pop_max()
        touch_gain(u)  # repro: noqa[REP007]
        chosen.append(u)
        traced.offsets.touch(u)  # repro: noqa[REP007]
        start = int(offsets[u])
        degree = int(offsets[u + 1]) - start
        traced.adjacency.touch_run(start, degree)
        for w in [u] + adjacency[start:start + degree].tolist():
            touch_covered(w)  # repro: noqa[REP007]
            if covered[w]:
                continue
            covered[w] = True
            remaining -= 1
            heap.decrease(w)
            touch_gain(w)  # repro: noqa[REP007]
            traced.in_offsets.touch(w)  # repro: noqa[REP007]
            in_start = int(in_offsets[w])
            in_degree = int(in_offsets[w + 1]) - in_start
            traced.in_adjacency.touch_run(in_start, in_degree)
            for z in in_adjacency[in_start:in_start + in_degree].tolist():
                heap.decrease(z)
                touch_gain(z)  # repro: noqa[REP007]
    return np.array(chosen, dtype=np.int64)
