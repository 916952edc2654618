"""Incremental Gorder for evolving graphs (paper extension).

The replication's discussion notes that when networks evolve, Gorder
"needs to be adapted to integrate the modifications without running
the whole process again".  This module implements that adaptation for
the common append-only case: a batch of **new nodes** (ids
``n_old .. n-1``) arrives with their edges, and the existing
arrangement of the old nodes must not change (downstream systems may
have materialised it).

:func:`gorder_extend` places the new nodes after the old ones with
exactly the Gorder greedy: the unit heap tracks only the new
candidates, but score events flow from the full graph, and the
initial window is the tail of the existing arrangement — so the first
new node placed is the one with the highest proximity to the end of
the old order, and so on.  Cost is proportional to the new nodes'
neighbourhoods, not to the whole graph.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError, InvalidPermutationError
from repro.graph.csr import CSRGraph
from repro.graph.permute import invert_permutation, validate_permutation
from repro.ordering.gorder import DEFAULT_WINDOW
from repro.ordering.unit_heap import UnitHeap


def gorder_extend(
    graph: CSRGraph,
    base_perm: np.ndarray,
    window: int = DEFAULT_WINDOW,
    hub_threshold: int | None = None,
) -> np.ndarray:
    """Extend an arrangement of the first ``len(base_perm)`` nodes.

    Parameters
    ----------
    graph:
        The evolved graph.  Nodes ``0 .. len(base_perm) - 1`` are the
        previously ordered ones; the rest are new.
    base_perm:
        The existing arrangement of the old nodes (a permutation of
        ``range(len(base_perm))``).  Preserved verbatim.
    window, hub_threshold:
        As in :func:`repro.ordering.gorder.gorder_order`.

    Returns
    -------
    A full arrangement: old nodes keep their positions, new nodes fill
    positions ``len(base_perm) .. n - 1`` in greedy Gorder order.
    """
    if window < 1:
        raise InvalidParameterError(
            f"window must be at least 1, got {window}"
        )
    num_old = int(np.asarray(base_perm).shape[0])
    n = graph.num_nodes
    if num_old > n:
        raise InvalidPermutationError(
            f"base arrangement covers {num_old} nodes but the graph "
            f"has only {n}"
        )
    base_perm = validate_permutation(np.asarray(base_perm), num_old)
    num_new = n - num_old
    perm = np.empty(n, dtype=np.int64)
    perm[:num_old] = base_perm
    if num_new == 0:
        return perm

    out_offsets = graph.offsets
    out_adjacency = graph.adjacency
    in_offsets = graph.in_offsets
    in_adjacency = graph.in_adjacency
    out_degrees = graph.out_degrees()
    skip_limit = (
        np.iinfo(np.int64).max if hub_threshold is None else hub_threshold
    )

    # Old nodes are excluded up front: the candidate mask makes them
    # start removed in one vectorised fill instead of an O(n)
    # per-node remove loop.
    heap = UnitHeap(
        n, candidates=np.arange(num_old, n, dtype=np.int64)
    )

    def apply(u: int, entering: bool) -> None:
        # Score events only ever matter for new candidates; events
        # aimed at old (never-present) nodes are skipped outright
        # rather than replayed against removed heap entries.
        update = heap.increase if entering else heap.decrease
        for v in out_adjacency[out_offsets[u]:out_offsets[u + 1]]:
            v = int(v)
            if v >= num_old:
                update(v)
        for z in in_adjacency[in_offsets[u]:in_offsets[u + 1]]:
            z = int(z)
            if z >= num_old:
                update(z)
            if out_degrees[z] > skip_limit:
                continue
            for v in out_adjacency[out_offsets[z]:out_offsets[z + 1]]:
                v = int(v)
                if v != u and v >= num_old:
                    update(v)

    # Seed the window with the tail of the existing arrangement.
    old_sequence = invert_permutation(base_perm)
    tail = [int(u) for u in old_sequence[max(0, num_old - window):]]
    for u in tail:
        apply(u, entering=True)

    sequence: list[int] = list(tail)  # window view: tail + new picks
    for position in range(num_old, n):
        if len(sequence) > window:
            apply(sequence[len(sequence) - window - 1], entering=False)
        chosen = heap.pop_max()
        perm[chosen] = position
        apply(chosen, entering=True)
        sequence.append(chosen)
    return perm


def append_identity(base_perm: np.ndarray, num_nodes: int) -> np.ndarray:
    """Baseline extension: new nodes appended in id order."""
    num_old = int(np.asarray(base_perm).shape[0])
    if num_old > num_nodes:
        raise InvalidPermutationError(
            f"base arrangement covers {num_old} nodes but the graph "
            f"has only {num_nodes}"
        )
    base_perm = validate_permutation(np.asarray(base_perm), num_old)
    perm = np.empty(num_nodes, dtype=np.int64)
    perm[:num_old] = base_perm
    perm[num_old:] = np.arange(num_old, num_nodes, dtype=np.int64)
    return perm
