"""Simplified SlashBurn ordering.

The replication's variant of SlashBurn [Lim, Kang & Faloutsos 2014]:
iteratively *slash* the highest-degree remaining node (it goes to the
next free slot at the **front** of the arrangement) and *burn* every
node this isolates (they go to the free slots at the **back**).  The
process repeats on the shrinking middle until nothing remains, placing
hubs together at the front and the low-degree fringe at the back.

Degrees are maintained on the undirected view with a
:class:`~repro.ordering.unit_heap.UnitHeap` — removals decrement each
neighbour's degree by exactly 1, so the unit-update structure applies:
O(1) per update, plus one vectorised O(n/256 + 256) scan per pop attempt.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.permute import permutation_from_sequence
from repro.ordering.unit_heap import UnitHeap


def slashburn_order(graph: CSRGraph, seed: int = 0) -> np.ndarray:
    """Compute the simplified-SlashBurn arrangement."""
    del seed  # deterministic (smallest-id tie-break among equal-degree hubs)
    undirected = graph.undirected()
    n = undirected.num_nodes
    offsets = undirected.offsets
    adjacency = undirected.adjacency
    degrees = np.diff(offsets)
    heap = UnitHeap(n)
    heap.increase_batch(np.arange(n), counts=degrees)
    front: list[int] = []
    back_chunks: list[list[int]] = []
    # Nodes isolated from the start burn immediately (first back chunk).
    initial_isolated = np.flatnonzero(degrees == 0).tolist()
    if initial_isolated:
        for u in initial_isolated:
            heap.remove(u)
        back_chunks.append(initial_isolated)
    while len(heap):
        hub = heap.pop_max()
        front.append(hub)
        burned: list[int] = []
        for v in adjacency[offsets[hub]:offsets[hub + 1]]:
            v = int(v)
            if v in heap:
                heap.decrease(v)
                if heap.key_of(v) == 0:
                    heap.remove(v)
                    burned.append(v)
        if burned:
            back_chunks.append(burned)
    # Front chunks fill forward; back chunks fill the tail backwards,
    # so the latest chunk sits left of earlier ones.
    back: list[int] = []
    for chunk in reversed(back_chunks):
        back.extend(chunk)
    sequence = np.array(front + back, dtype=np.int64)
    return permutation_from_sequence(sequence)
