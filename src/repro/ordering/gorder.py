"""Gorder — the paper's graph ordering (its core contribution).

Gorder greedily builds a placement sequence maximising the locality
objective ``F(pi) = sum_{0 < pi_u - pi_v <= w} S(u, v)`` where
``S(u, v) = S_s(u, v) + S_n(u, v)`` counts common in-neighbours
(sibling score) plus direct edges between the pair (neighbour score).
Finding the optimal arrangement is NP-hard; the greedy insertion is a
``1/(2w)``-approximation (Theorem 5.2 of the paper).

One priority-queue kernel drives the greedy loop.  Before it starts,
:func:`event_table` lays every node's unit score events out in one
``int32`` table, a contiguous run per node: ``N+(u)``, ``N−(u)``, and
the sibling expansion (the out-lists of the in-neighbours, u itself
removed).  Per placement step the kernel reads one slice of that table
and applies the newest entry's +1 events and the expiring node's −1
events as one fused
:meth:`~repro.ordering.unit_heap.UnitHeap.apply_step`: two scatter-adds
into the heap's key vector plus one scatter-max into its per-block key
bounds.  This removes the per-edge Python call and ``int()`` boxing
that made a literal Algorithm 2 loop the replication's slowest
component (its Table 2 hours).  The table is filled in node chunks of
at most :data:`EXPAND_BUDGET` events, so its 4 B per event plus one
chunk's temporaries are all the expansion holds at once.

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

#: Score events one :func:`event_table` fill chunk expands at most.  A
#: chunk's temporaries take about 30 B per event, so at 2**18 building
#: the table adds about 8 MiB to the table's own 4 B per event.
EXPAND_BUDGET = 1 << 18


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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` over the pairs of ``starts``
    and ``lengths``: the index of a multi-range gather or scatter."""
    ends = np.cumsum(lengths, dtype=np.int64)
    index = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    index += np.repeat(starts - (ends - lengths), lengths)
    return index


def _sibling_counts(
    graph: CSRGraph, kept: np.ndarray | None
) -> np.ndarray:
    """Each node's exact number of sibling events (``int64``).

    Node u has one sibling event per out-edge ``z -> v`` (``v != u``)
    of each in-edge ``z -> u`` whose source is ``kept`` (``None``:
    all are).  ``CSRGraph`` keeps parallel edges: ``k`` copies of
    ``z -> u`` put z ``k`` times in u's in-list and u ``k`` times in
    z's out-list, so the run of ``k`` equal entries z in u's sorted
    in-list contributes ``k * (d_out(z) - k)`` events.
    """
    n = graph.num_nodes
    in_offsets = graph.in_offsets
    in_adjacency = graph.in_adjacency
    m = in_adjacency.shape[0]
    if m == 0:
        return np.zeros(n, dtype=np.int64)
    # Runs of equal in-neighbours; every non-empty row starts one.
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(in_adjacency[1:], in_adjacency[:-1], out=first[1:])
    first[in_offsets[:-1][graph.in_degrees() > 0]] = True
    starts = np.flatnonzero(first)
    runs = np.diff(starts, append=m)
    sources = in_adjacency[starts]
    events = runs * (graph.out_degrees()[sources] - runs)
    if kept is not None:
        events[~kept[sources]] = 0
    totals = np.zeros(starts.shape[0] + 1, dtype=np.int64)
    np.cumsum(events, out=totals[1:])
    row_runs = np.searchsorted(starts, in_offsets)
    return totals[row_runs[1:]] - totals[row_runs[:-1]]


def event_table(
    graph: CSRGraph, hub_threshold: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Every node's unit score events in one table: ``(bounds, table)``.

    Node u's events are ``table[bounds[u]:bounds[u + 1]]``: its
    out-neighbours, then its in-neighbours, then its siblings (the
    out-neighbours of every in-neighbour z, except u itself and except
    z above ``hub_threshold`` out-degree), duplicates kept.  Each is
    one +1 when u enters the window and one -1 when it leaves, the
    events :func:`repro.oracles.gorder_sequence_reference` applies one
    call at a time: ``2m + sum_z d_out(z)^2`` of them on a simple
    graph without hub skipping.

    The ``int32`` table is allocated once at its exact size (see
    :func:`_sibling_counts`) and filled in node chunks that expand at
    most :data:`EXPAND_BUDGET` events each (a node with more forms a
    chunk of its own), so building it takes 4 B per event plus one
    chunk's temporaries.
    """
    n = graph.num_nodes
    out_offsets = graph.offsets
    out_adjacency = graph.adjacency
    in_offsets = graph.in_offsets
    in_adjacency = graph.in_adjacency
    out_degrees = graph.out_degrees()
    in_degrees = graph.in_degrees()
    kept = None if hub_threshold is None else out_degrees <= hub_threshold
    sibling_counts = _sibling_counts(graph, kept)
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_degrees + in_degrees + sibling_counts, out=bounds[1:])
    table = np.empty(int(bounds[-1]), dtype=np.int32)
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(
            bounds, bounds[lo] + EXPAND_BUDGET, side="right"
        )) - 1
        hi = max(hi, lo + 1)  # a node over budget is a chunk of its own
        chunk = table[bounds[lo]:bounds[hi]]
        runs = bounds[lo:hi] - bounds[lo]
        outs = out_degrees[lo:hi]
        ins = in_degrees[lo:hi]
        # The chunk's out- and in-lists are one slice each.
        chunk[_ranges(runs, outs)] = (
            out_adjacency[out_offsets[lo]:out_offsets[hi]]
        )
        sources = in_adjacency[in_offsets[lo]:in_offsets[hi]]
        chunk[_ranges(runs + outs, ins)] = sources
        # Siblings: splice in each kept in-neighbour's out-list, then
        # drop the owner itself from its own lists.
        owners = np.repeat(np.arange(lo, hi, dtype=np.int32), ins)
        if kept is not None:
            keep = kept[sources]
            sources = sources[keep]
            owners = owners[keep]
        lengths = out_degrees[sources]
        siblings = out_adjacency[_ranges(out_offsets[sources], lengths)]
        siblings = siblings[siblings != np.repeat(owners, lengths)]
        chunk[_ranges(runs + outs + ins, sibling_counts[lo:hi])] = siblings
        lo = hi
    table.setflags(write=False)
    return bounds, table


def gorder_sequence(
    graph: CSRGraph,
    window: int = DEFAULT_WINDOW,
    hub_threshold: int | None = None,
) -> np.ndarray:
    """The Gorder placement sequence (``sequence[i]`` = i-th node placed).

    One :func:`event_table` slice and one fused heap batch per
    placement step (see the module docstring).  With telemetry on, the
    run also publishes ``gorder.heap_pops`` and
    ``gorder.priority_updates`` (unit score events) — totals the
    kernel already has, so a traced run executes exactly the untraced
    program.
    """
    _validate_gorder_params(window, hub_threshold)
    n = graph.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    heap = UnitHeap(n)
    sequence = np.empty(n, dtype=np.int64)
    with obs.profile(
        "gorder.phase.expand", n=n, m=graph.num_edges,
    ) as expand_phase:
        bounds, table = event_table(graph, hub_threshold)
        # Out- and in-lists hold m events each; the rest are siblings.
        expand_phase.set(events=int(bounds[-1]) - 2 * graph.num_edges)
        # Python ints make the per-step slicing cheap.
        bound = bounds.tolist()

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
        # are all the next pop reads.  A node's events enter and exit
        # as the same read-only table slice.
        events = table[bound[start]:bound[start + 1]]
        for i in range(1, n):
            if i > window:
                gone = sequence.item(i - 1 - window)
                heap.apply_step(
                    events, table[bound[gone]:bound[gone + 1]]
                )
            else:
                heap.increase_batch(events)
            chosen = heap.pop_max()
            sequence[i] = chosen
            events = table[bound[chosen]:bound[chosen + 1]]
    if obs.enabled():
        # Every node's events enter once; the first n-1-window placed
        # nodes' events also exit.
        exited = sequence[:max(n - 1 - window, 0)]
        obs.inc("gorder.heap_pops", n - 1)
        obs.inc(
            "gorder.priority_updates",
            int(bounds[-1]) + int(np.diff(bounds)[exited].sum()),
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
