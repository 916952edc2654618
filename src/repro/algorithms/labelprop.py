"""Label propagation community detection (extension algorithm).

Synchronous label propagation on the undirected view: every node
starts with its own label and repeatedly adopts the most frequent
label among its neighbours (ties broken by the smallest label, which
makes the algorithm deterministic).  Per edge it reads
``labels[neighbour]`` — the same random access pattern PageRank has,
so it slots naturally into the ordering experiments.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.runtime import (
    TraceEmitter,
    interleave_fields,
    run_field,
)
from repro.cache.layout import Memory
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph

#: Default sweep count; label propagation converges quickly.
DEFAULT_ITERATIONS = 10


def label_propagation(
    graph: CSRGraph, iterations: int = DEFAULT_ITERATIONS
) -> np.ndarray:
    """Community label per node after ``iterations`` sweeps."""
    return _propagate(graph, iterations, memory=None)


def label_propagation_traced(
    graph: CSRGraph,
    memory: Memory,
    iterations: int = DEFAULT_ITERATIONS,
) -> np.ndarray:
    """Label propagation with traced memory accesses.

    Runtime-backed: the synchronous sweep's touch sequence depends
    only on the graph structure, so the whole iteration's access block
    (per connected node the ``u_offsets`` touch, adjacency span,
    per-neighbour ``labels`` gather and the ``next_labels`` write) is
    assembled once and flushed once per sweep; the most-frequent /
    smallest-tie label reduction runs as one packed sort per sweep.
    Touch-sequence identical to
    :func:`~repro.oracles.label_propagation_traced_scalar`.
    """
    if iterations < 0:
        raise InvalidParameterError(
            f"iterations must be non-negative, got {iterations}"
        )
    undirected = graph.undirected()
    n = undirected.num_nodes
    offsets = undirected.offsets
    neighbors = undirected.adjacency.astype(np.int64, copy=False)
    traced_offsets = memory.array("u_offsets", n + 1, 8)
    traced_adjacency = memory.array(
        "u_adjacency", undirected.num_edges, 4
    )
    traced_labels = memory.array("labels", n, 4)
    traced_next = memory.array("next_labels", n, 4)
    starts = offsets[:-1].astype(np.int64, copy=False)
    widths = offsets[1:].astype(np.int64, copy=False) - starts
    live = widths > 0
    live_nodes = np.flatnonzero(live)
    live_widths = widths[live]
    num_live = int(live_nodes.shape[0])
    ones = np.ones(num_live, dtype=np.int64)
    runs = run_field(traced_adjacency, starts[live], live_widths)
    lines, demand = interleave_fields([
        (ones, traced_offsets.element_lines(live_nodes), None),
        runs.as_field(),
        (live_widths, traced_labels.element_lines(neighbors), None),
        (ones, traced_next.element_lines(live_nodes), None),
    ])
    emitter = TraceEmitter(memory)
    labels = np.arange(n, dtype=np.int64)
    segments = np.repeat(np.arange(num_live, dtype=np.int64), live_widths)
    total = int(neighbors.shape[0])
    for _ in range(iterations):
        # Most frequent neighbour label per node, smallest on ties:
        # pack (segment, label), sort, reduce groups, rank per segment
        # by (count desc, label asc).
        key = np.sort(segments * np.int64(n + 1) + labels[neighbors])
        head = np.empty(total, dtype=bool)
        if total:
            head[0] = True
            np.not_equal(key[1:], key[:-1], out=head[1:])
        head_at = np.flatnonzero(head)
        counts = np.diff(np.append(head_at, total))
        group_seg = key[head_at] // np.int64(n + 1)
        group_label = key[head_at] % np.int64(n + 1)
        order = np.lexsort((group_label, -counts, group_seg))
        seg_sorted = group_seg[order]
        best_mask = np.empty(seg_sorted.shape[0], dtype=bool)
        if seg_sorted.shape[0]:
            best_mask[0] = True
            np.not_equal(
                seg_sorted[1:], seg_sorted[:-1], out=best_mask[1:]
            )
        best = group_label[order][best_mask]
        emitter.flush(lines, demand, runs.extra_l1, runs.prefetched)
        changed = bool((best != labels[live_nodes]).any())
        updated = labels.copy()
        updated[live_nodes] = best
        labels = updated
        if not changed:
            break
    _, compact = np.unique(labels, return_inverse=True)
    return compact.astype(np.int64)


def _propagate(
    graph: CSRGraph, iterations: int, memory: Memory | None
) -> np.ndarray:
    if iterations < 0:
        raise InvalidParameterError(
            f"iterations must be non-negative, got {iterations}"
        )
    undirected = graph.undirected()
    n = undirected.num_nodes
    offsets = undirected.offsets
    adjacency = undirected.adjacency
    labels = np.arange(n, dtype=np.int64)
    next_labels = labels.copy()
    if memory is not None:
        traced_offsets = memory.array("u_offsets", n + 1, 8)
        traced_adjacency = memory.array(
            "u_adjacency", undirected.num_edges, 4
        )
        touch_label_all = memory.array("labels", n, 4).touch_all
        touch_next = memory.array("next_labels", n, 4).touch
    for _ in range(iterations):
        changed = False
        for u in range(n):
            start = int(offsets[u])
            end = int(offsets[u + 1])
            if start == end:
                continue
            if memory is not None:
                traced_offsets.touch(u)
                traced_adjacency.touch_run(start, end - start)
                touch_label_all(adjacency[start:end])
            counts: dict[int, int] = {}
            for v in adjacency[start:end].tolist():
                label = int(labels[v])
                counts[label] = counts.get(label, 0) + 1
            # Most frequent label, smallest on ties.
            best = min(
                counts, key=lambda label: (-counts[label], label)
            )
            if memory is not None:
                touch_next(u)
            next_labels[u] = best
            if best != labels[u]:
                changed = True
        labels, next_labels = next_labels, labels
        next_labels[:] = labels
        if not changed:
            break
    # Compact labels to 0..k-1 for stable comparisons.
    _, compact = np.unique(labels, return_inverse=True)
    return compact.astype(np.int64)
