"""PR — PageRank by power iteration.

Push-style power iteration with damping ``alpha = 0.85`` (the usual
configuration, as in the replication): each node pushes
``rank[u] / out_degree[u]`` to its out-neighbours — a random write to
``next_rank[v]`` per edge, the dominant cache-sensitive access.
Dangling nodes redistribute their mass uniformly, so ranks stay a
probability distribution (sum 1), which the tests verify.

The paper runs 100 iterations; the experiment profiles use fewer
(iteration count scales cost linearly and identically for every
ordering, so relative results are unchanged).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import FLOAT_BYTES, NODE_BYTES, declare_graph
from repro.algorithms.runtime import (
    TraceEmitter,
    interleave_fields,
    run_field,
)
from repro.cache.layout import Memory
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph

#: Damping factor used by both papers.
DAMPING = 0.85
#: The paper's iteration count.
PAPER_ITERATIONS = 100


def pagerank(
    graph: CSRGraph,
    iterations: int = PAPER_ITERATIONS,
    damping: float = DAMPING,
) -> np.ndarray:
    """Vectorised PageRank; returns the rank distribution."""
    _check_params(iterations, damping)
    n = graph.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    sources, targets = graph.edge_array()
    out_degrees = graph.out_degrees().astype(np.float64)
    dangling = out_degrees == 0
    safe_degrees = np.where(dangling, 1.0, out_degrees)
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    teleport = (1.0 - damping) / n
    for _ in range(iterations):
        contribution = rank / safe_degrees
        pushed = np.bincount(
            targets, weights=contribution[sources], minlength=n
        )
        dangling_mass = rank[dangling].sum() / n
        rank = teleport + damping * (pushed + dangling_mass)
    return rank


def pagerank_traced(
    graph: CSRGraph,
    memory: Memory,
    iterations: int = 5,
    damping: float = DAMPING,
) -> np.ndarray:
    """Push-style PageRank with traced memory accesses.

    Runtime-backed: the per-iteration touch sequence is independent of
    the rank values, so the whole sweep's access block is assembled
    once and flushed once per iteration.  Float arithmetic is bitwise
    the scalar oracle's — ``np.add.at`` over the concatenated edge
    stream applies element-wise in the same index order as the
    per-node calls, and the dangling mass accumulates sequentially in
    node order.
    """
    _check_params(iterations, damping)
    n = graph.num_nodes
    traced = declare_graph(memory, graph)
    traced_rank = memory.array("rank", n, FLOAT_BYTES)
    traced_next = memory.array("next_rank", n, FLOAT_BYTES)
    traced_degree = memory.array("out_degree", n, NODE_BYTES)
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    offsets = graph.offsets
    out_degrees = graph.out_degrees().astype(np.int64, copy=False)
    live = out_degrees > 0
    dangling = np.flatnonzero(~live)
    neighbors = graph.adjacency.astype(np.int64, copy=False)
    nodes = np.arange(n, dtype=np.int64)
    starts = offsets[:-1].astype(np.int64, copy=False)
    ones = np.ones(n, dtype=np.int64)
    runs = run_field(traced.adjacency, starts, out_degrees)
    lines, demand = interleave_fields([
        (ones, traced_rank.element_lines(nodes), None),
        (ones, traced_degree.element_lines(nodes), None),
        (live.astype(np.int64), traced.offsets.element_lines(nodes[live]),
         None),
        runs.as_field(),
        (out_degrees, traced_next.element_lines(neighbors), None),
    ])
    emitter = TraceEmitter(memory)
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    next_rank = np.zeros(n, dtype=np.float64)
    teleport = (1.0 - damping) / n
    live_degrees = out_degrees[live].astype(np.float64)
    for _ in range(iterations):
        next_rank[:] = 0.0
        contribution = np.repeat(
            rank[live] / live_degrees, out_degrees[live]
        )
        np.add.at(next_rank, neighbors, contribution)
        dangling_mass = 0.0
        for value in rank[dangling].tolist():
            dangling_mass += value
        emitter.flush(lines, demand, runs.extra_l1, runs.prefetched)
        dangling_share = dangling_mass / n
        # Final sequential combine pass over both rank arrays.
        traced_next.touch_run(0, n)
        traced_rank.touch_run(0, n)
        rank[:] = teleport + damping * (next_rank + dangling_share)
    return rank


def pagerank_traced_scalar(
    graph: CSRGraph,
    memory: Memory,
    iterations: int = 5,
    damping: float = DAMPING,
) -> np.ndarray:
    """Scalar-loop PageRank emitter: the runtime port's oracle."""
    _check_params(iterations, damping)
    n = graph.num_nodes
    traced = declare_graph(memory, graph)
    traced_rank = memory.array("rank", n, FLOAT_BYTES)
    traced_next = memory.array("next_rank", n, FLOAT_BYTES)
    traced_degree = memory.array("out_degree", n, NODE_BYTES)
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    offsets = graph.offsets
    adjacency = graph.adjacency
    out_degrees = graph.out_degrees()
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    next_rank = np.zeros(n, dtype=np.float64)
    teleport = (1.0 - damping) / n
    touch_next_all = traced_next.touch_all
    for _ in range(iterations):
        next_rank[:] = 0.0
        dangling_mass = 0.0
        for u in range(n):
            traced_rank.touch(u)
            traced_degree.touch(u)
            degree = int(out_degrees[u])
            if degree == 0:
                dangling_mass += rank[u]
                continue
            contribution = rank[u] / degree
            traced.offsets.touch(u)
            start = int(offsets[u])
            traced.adjacency.touch_run(start, degree)
            neighbors = adjacency[start:start + degree]
            touch_next_all(neighbors)  # the random per-edge writes
            # np.add.at applies element-wise in index order — the
            # float accumulation is bitwise the per-edge loop's, and
            # next_rank is this iteration's local accumulator, so the
            # in-place update never escapes the oracle.
            np.add.at(next_rank, neighbors, contribution)  # repro: noqa[REP010]
        dangling_share = dangling_mass / n
        # Final sequential combine pass over both rank arrays.
        traced_next.touch_run(0, n)
        traced_rank.touch_run(0, n)
        rank[:] = teleport + damping * (next_rank + dangling_share)
    return rank


def _check_params(iterations: int, damping: float) -> None:
    if iterations < 0:
        raise InvalidParameterError(
            f"iterations must be non-negative, got {iterations}"
        )
    if not 0.0 <= damping <= 1.0:
        raise InvalidParameterError(
            f"damping must be in [0, 1], got {damping}"
        )
