"""Gorder — the paper's graph ordering (its core contribution).

Gorder greedily builds a placement sequence maximising the locality
objective ``F(pi) = sum_{0 < pi_u - pi_v <= w} S(u, v)`` where
``S(u, v) = S_s(u, v) + S_n(u, v)`` counts common in-neighbours
(sibling score) plus direct edges between the pair (neighbour score).
Finding the optimal arrangement is NP-hard; the greedy insertion is a
``1/(2w)``-approximation (Theorem 5.2 of the paper).

One priority-queue kernel drives the greedy loop: per placement step
it gathers every affected candidate at once as numpy arrays (``N+(u)``,
``N−(u)``, and the sibling expansion: the concatenated out-adjacency
slices of the in-neighbours), then applies the newest entry's +1
events and the expiring node's −1 events as one fused
:meth:`~repro.ordering.unit_heap.UnitHeap.apply_step`: two scatter-adds
into the heap's key vector plus one scatter-max into its per-block key
bounds.  This removes the per-edge Python call and ``int()`` boxing
that made a literal Algorithm 2 loop the replication's slowest
component (its Table 2 hours).

:func:`repro.oracles.gorder_sequence_reference` keeps that literal
loop — one :meth:`~repro.ordering.unit_heap.UnitHeap.increase` /
``decrease`` call per score event — as the test and benchmark
oracle.  Both produce **byte-identical sequences**: the unit heap
breaks ties by smallest node id among maximal keys, a pure function
of the net key state, so collapsing a step's events into one batch
cannot change any pop.  :func:`gorder_naive` (literal greedy rescan,
O(n^2 * w * d), tests only) shares the same tie-break and therefore
also agrees exactly.

``hub_threshold`` optionally skips the sibling expansion through
common in-neighbours with out-degree above the threshold.  Such hubs
co-cite a large fraction of the graph, so their sibling score is a
near-uniform offset that rarely changes the argmax; skipping them
bounds the per-step cost (the original C++ implementation treats
high-degree nodes specially for the same reason).  ``None`` (default)
disables skipping and keeps the algorithm exact.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.graph.permute import permutation_from_sequence
from repro.ordering.metrics import pair_score
from repro.ordering.unit_heap import UnitHeap

#: The paper's default window size (chosen in its Figure 8 experiment).
DEFAULT_WINDOW = 5


def _validate_gorder_params(
    window: int, hub_threshold: int | None
) -> None:
    if window < 1:
        raise InvalidParameterError(
            f"window must be at least 1, got {window}"
        )
    if hub_threshold is not None and hub_threshold < 0:
        raise InvalidParameterError(
            f"hub_threshold must be non-negative, got {hub_threshold}"
        )


def gorder_sequence(
    graph: CSRGraph,
    window: int = DEFAULT_WINDOW,
    hub_threshold: int | None = None,
) -> np.ndarray:
    """The Gorder placement sequence (``sequence[i]`` = i-th node placed).

    One numpy gather and one fused heap batch per placement step (see
    the module docstring).  With telemetry on, the run also publishes
    ``gorder.heap_pops`` and ``gorder.priority_updates`` (unit score
    events) — totals the kernel already has, so a traced run executes
    exactly the untraced program.
    """
    _validate_gorder_params(window, hub_threshold)
    n = graph.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    out_offsets = graph.offsets
    out_adjacency = graph.adjacency
    in_offsets = graph.in_offsets
    in_adjacency = graph.in_adjacency
    out_degrees = graph.out_degrees()

    heap = UnitHeap(n)
    sequence = np.empty(n, dtype=np.int64)

    # ------------------------------------------------------------------
    # Precompute every node's event list in one vectorised expansion.
    # Each node's events are gathered twice (window entry and exit), so
    # building the full table up front halves the gather work and
    # replaces ~15 small numpy calls per gather with two slices and a
    # concatenate.  Size is the total event count — the same quantity
    # the reference loop spends one Python call on per event — i.e.
    # 2m + sum_z d_out(z)^2 entries (hub skipping prunes the square).
    #
    # The sibling table: for every in-neighbour z of every node u (the
    # in-adjacency, already grouped by u), splice in z's out-neighbour
    # list via a multi-range gather — index k of chunk j maps to
    # starts[j] + k, built by offsetting one flat arange per chunk —
    # then drop u itself from its own chunks.
    # int32 throughout: node ids and edge positions both fit, and the
    # expansion arrays are the largest the kernel touches.
    with obs.profile(
        "gorder.phase.expand", n=n, m=graph.num_edges,
    ) as expand_phase:
        owners = np.repeat(
            np.arange(n, dtype=np.int32), graph.in_degrees()
        )
        expand = in_adjacency
        if hub_threshold is not None:
            kept = out_degrees[expand] <= hub_threshold
            expand = expand[kept]
            owners = owners[kept]
        chunk_starts = out_offsets[expand].astype(np.int32)
        chunk_lengths = out_degrees[expand].astype(np.int32)
        sibling_owners = np.repeat(owners, chunk_lengths)
        total = int(chunk_lengths.sum(dtype=np.int64))
        # int64 only when the expansion overflows 32-bit indexing.
        count_dtype = (
            np.int32 if total <= np.iinfo(np.int32).max else np.int64
        )
        index = np.arange(total, dtype=count_dtype)
        index += np.repeat(
            chunk_starts - (
                np.cumsum(chunk_lengths, dtype=count_dtype)
                - chunk_lengths
            ),
            chunk_lengths,
        )
        siblings = out_adjacency[index]
        not_self = siblings != sibling_owners
        siblings = siblings[not_self]
        sib_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(sibling_owners[not_self], minlength=n),
            out=sib_offsets[1:],
        )
        # Python-int offset lists make the per-step slicing cheap.
        out_bounds = out_offsets.tolist()
        in_bounds = in_offsets.tolist()
        sib_bounds = sib_offsets.tolist()
        expand_phase.set(events=int(siblings.shape[0]))

    def gather(u: int) -> np.ndarray:
        """All unit score events of u's window entry/exit, duplicates kept."""
        return np.concatenate((
            out_adjacency[out_bounds[u]:out_bounds[u + 1]],
            in_adjacency[in_bounds[u]:in_bounds[u + 1]],
            siblings[sib_bounds[u]:sib_bounds[u + 1]],
        ))

    # Seed with the highest in-degree node (deterministic hub start).
    start = int(np.argmax(graph.in_degrees())) if n > 1 else 0
    with obs.profile(
        "gorder.greedy", n=n, m=graph.num_edges, window=window,
        backend="batched",
    ):
        heap.remove(start)
        sequence[0] = start
        # Algorithm 2 interleaves exit(i), pop(i), enter(i).  No pop
        # happens between enter(i) and exit(i+1), so the kernel fuses
        # those two updates into one heap.apply_step, whose net keys
        # are all the next pop reads.
        # A node's events are needed twice — at window entry and again
        # at exit — so a (window + 2)-slot ring keeps each gather
        # alive until its exit step comes round.
        ring_size = window + 2
        ring: list[np.ndarray | None] = [None] * ring_size
        events = gather(start)
        ring[0] = events
        for i in range(1, n):
            if i > window:
                heap.apply_step(
                    events, ring[(i - 1 - window) % ring_size]
                )
            else:
                heap.increase_batch(events)
            chosen = heap.pop_max()
            sequence[i] = chosen
            events = gather(chosen)
            ring[i % ring_size] = events
    if obs.enabled():
        # Every node's events enter once; the first n-1-window placed
        # nodes' events also exit.
        event_counts = (
            out_degrees + graph.in_degrees() + np.diff(sib_offsets)
        )
        exited = sequence[:max(n - 1 - window, 0)]
        obs.inc("gorder.heap_pops", n - 1)
        obs.inc(
            "gorder.priority_updates",
            int(event_counts.sum()) + int(event_counts[exited].sum()),
        )
    return sequence


def gorder_order(
    graph: CSRGraph,
    seed: int = 0,
    window: int = DEFAULT_WINDOW,
    hub_threshold: int | None = None,
) -> np.ndarray:
    """The Gorder arrangement ``pi`` (see :func:`gorder_sequence`)."""
    del seed  # deterministic
    return permutation_from_sequence(
        gorder_sequence(graph, window=window, hub_threshold=hub_threshold)
    )


def gorder_naive(
    graph: CSRGraph, window: int = DEFAULT_WINDOW
) -> np.ndarray:
    """Reference greedy without the priority queue (tests only).

    Rescans every remaining candidate at every step, computing its
    window score from the definition of ``S``.  Exponentially clearer,
    quadratically slower.  Ties resolve to the smallest node id, the
    same rule as the unit heap, so the fast kernels must match this
    output exactly.
    """
    if window < 1:
        raise InvalidParameterError(
            f"window must be at least 1, got {window}"
        )
    n = graph.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    start = int(np.argmax(graph.in_degrees())) if n > 1 else 0
    sequence = [start]
    remaining = [u for u in range(n) if u != start]
    while remaining:
        window_nodes = sequence[-window:]
        best_index = 0
        best_score = -1
        for index, v in enumerate(remaining):
            score = sum(pair_score(graph, u, v) for u in window_nodes)
            if score > best_score:
                best_score = score
                best_index = index
        sequence.append(remaining.pop(best_index))
    return permutation_from_sequence(np.array(sequence, dtype=np.int64))


def window_scores(
    graph: CSRGraph, sequence: np.ndarray, window: int = DEFAULT_WINDOW
) -> np.ndarray:
    """Score each placement step of ``sequence`` against its window.

    ``result[i] = sum_{j in [max(0, i-w), i)} S(sequence[i], sequence[j])``
    — used by tests to verify the greedy invariant (every placed node
    maximises its step score) and by ablations to inspect quality.

    Vectorised over the edge list in O(m * w): the neighbour score
    S_n is one mask over all edges; the sibling score S_s counts, for
    each window shift ``s``, the edges ``z -> b`` whose companion edge
    ``z -> a`` lands exactly ``s`` positions earlier — a sorted-key
    membership query.  :func:`repro.oracles.window_scores_reference` is
    the literal per-pair oracle it is tested against.
    """
    if window < 1:
        raise InvalidParameterError(
            f"window must be at least 1, got {window}"
        )
    sequence = np.asarray(sequence, dtype=np.int64)
    steps = int(sequence.shape[0])
    scores = np.zeros(steps, dtype=np.int64)
    if steps <= 1 or graph.num_edges == 0:
        return scores
    position = np.full(graph.num_nodes, -1, dtype=np.int64)
    position[sequence] = np.arange(steps, dtype=np.int64)
    sources, targets = graph.edge_array()
    source_pos = position[sources]
    target_pos = position[targets]
    # S_n: each directed edge with both endpoints placed within the
    # window contributes 1 to the later endpoint's step.
    gap = source_pos - target_pos
    near = (
        (source_pos >= 0)
        & (target_pos >= 0)
        & (gap != 0)
        & (np.abs(gap) <= window)
    )
    np.add.at(scores, np.maximum(source_pos, target_pos)[near], 1)
    # S_s: encode each placed-target edge z -> b as z * steps + pos(b);
    # for each shift s, edge z -> b scores step pos(b) iff the key of a
    # companion edge z -> a with pos(a) = pos(b) - s exists.
    placed = target_pos >= 0
    sources = sources[placed].astype(np.int64)
    target_pos = target_pos[placed]
    edge_keys = np.sort(sources * steps + target_pos)
    for shift in range(1, window + 1):
        valid = target_pos >= shift
        queries = sources[valid] * steps + (target_pos[valid] - shift)
        slots = np.searchsorted(edge_keys, queries)
        slots_clipped = np.minimum(slots, edge_keys.shape[0] - 1)
        hits = edge_keys[slots_clipped] == queries
        np.add.at(scores, target_pos[valid][hits], 1)
    return scores
