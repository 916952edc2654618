"""The scalar oracles every fast path here is checked against.

An ordering may change where data sits, never what an algorithm
computes; every number the reproduction reports is trusted because
the production path matches these literal implementations:

* the six scalar-loop trace emitters (:data:`TRACED_SCALAR`), one
  Python call per simulated touch, which the vectorised frontier
  runtime must reproduce reference-for-reference
  (``traced_fn(spec, "scalar")`` selects them);
* :func:`gorder_sequence_reference`, the literal Algorithm 2 loop the
  batched Gorder kernel must match byte for byte, and
  :func:`window_scores_reference`, the per-pair definition of the
  window score;
* :func:`anneal_reference`, the literal MinLA/MinLogA annealing loop
  over numpy scalars that
  :func:`~repro.ordering.minla.minla_order` and
  :func:`~repro.ordering.minla.minloga_order` must match byte for
  byte;
* :func:`dbg_classes_reference`, the pure-python DBG degree classes.

Only tests and the ``bench`` comparisons import this module.  It
stays free of telemetry, file I/O and unseeded randomness by
structure rather than by lint: ``tests/test_oracles.py`` checks that
it imports none of ``repro.obs``, ``repro.ioutil``, ``repro.perf``
and ``repro.serve``, and runs every function it exports on random
graphs with RNG, file I/O and telemetry patched to raise.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Sequence

import numpy as np

from repro.algorithms.bfs import UNVISITED
from repro.algorithms.common import (
    FLOAT_BYTES,
    NODE_BYTES,
    TracedGraph,
    declare_graph,
)
from repro.algorithms.diameter import DEFAULT_SOURCES, pick_sources
from repro.algorithms.labelprop import DEFAULT_ITERATIONS, _propagate
from repro.algorithms.pagerank import DAMPING, _check_params
from repro.algorithms.sp import (
    INFINITY,
    _check_source,
    _declare_sp_arrays,
)
from repro.cache.layout import Memory, TracedArray
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.graph.permute import identity_permutation
from repro.ordering.gorder import DEFAULT_WINDOW, _validate_gorder_params
from repro.ordering.metrics import pair_score
from repro.ordering.unit_heap import UnitHeap

__all__ = [
    "TRACED_SCALAR",
    "anneal_reference",
    "breadth_first_search_traced_scalar",
    "dbg_classes_reference",
    "diameter_traced_scalar",
    "gorder_sequence_reference",
    "label_propagation_traced_scalar",
    "neighbor_query_traced_scalar",
    "pagerank_traced_scalar",
    "shortest_paths_traced_scalar",
    "window_scores_reference",
]


# ---------------------------------------------------------------------
# Scalar-loop trace emitters
# ---------------------------------------------------------------------
def neighbor_query_traced_scalar(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Scalar-loop NQ emitter: the runtime port's oracle."""
    n = graph.num_nodes
    traced = declare_graph(memory, graph)
    traced_degree = memory.array("degree", n, NODE_BYTES)
    traced_q = memory.array("q", n, 8)
    offsets = graph.offsets
    adjacency = graph.adjacency
    degrees = graph.out_degrees()
    q = np.zeros(n, dtype=np.int64)
    touch_degree_many = traced_degree.touch_many
    for u in range(n):
        traced.offsets.touch(u)
        start = int(offsets[u])
        end = int(offsets[u + 1])
        traced.adjacency.touch_run(start, end - start)
        neighbors = adjacency[start:end]
        touch_degree_many(neighbors)
        traced_q.touch(u)
        q[u] = degrees[neighbors].sum()
    return q


def breadth_first_search_traced_scalar(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Scalar-loop BFS emitter: the runtime port's oracle."""
    n = graph.num_nodes
    traced = declare_graph(memory, graph)
    traced_distance = memory.array("distance", n, NODE_BYTES)
    traced_queue = memory.array("queue", n, NODE_BYTES)
    offsets = graph.offsets
    adjacency = graph.adjacency
    distance = np.full(n, UNVISITED, dtype=np.int64)
    queue = np.empty(n, dtype=np.int64)
    touch_distance = traced_distance.touch
    touch_queue = traced_queue.touch
    for root in range(n):
        # The restart scan probes distance.
        traced_distance.touch(root)
        if distance[root] != UNVISITED:
            continue
        distance[root] = 0
        head = 0
        tail = 1
        queue[0] = root
        touch_queue(0)
        while head < tail:
            touch_queue(head)
            u = int(queue[head])
            head += 1
            traced.offsets.touch(u)
            start = int(offsets[u])
            end = int(offsets[u + 1])
            traced.adjacency.touch_run(start, end - start)
            next_distance = distance[u] + 1
            for v in adjacency[start:end].tolist():
                touch_distance(v)
                if distance[v] == UNVISITED:
                    distance[v] = next_distance
                    queue[tail] = v
                    touch_queue(tail)
                    tail += 1
    return distance


def shortest_paths_traced_scalar(
    graph: CSRGraph, memory: Memory, source: int = 0
) -> np.ndarray:
    """Scalar-loop SPFA emitter: the runtime port's oracle."""
    _check_source(graph, source)
    traced = declare_graph(memory, graph)
    n = graph.num_nodes
    arrays = _declare_sp_arrays(memory, n, suffix="")
    return _sp_traced_core(graph, traced, arrays, source)


def _sp_traced_core(
    graph: CSRGraph,
    traced: TracedGraph,
    arrays: dict[str, TracedArray],
    source: int,
) -> np.ndarray:
    """One traced SPFA run over pre-declared arrays (scalar oracle)."""
    n = graph.num_nodes
    offsets = graph.offsets
    adjacency = graph.adjacency
    distance = np.full(n, INFINITY, dtype=np.int64)
    in_queue = np.zeros(n, dtype=bool)
    touch_distance = arrays["distance"].touch
    touch_in_queue = arrays["in_queue"].touch
    touch_queue = arrays["queue"].touch
    distance[source] = 0
    touch_distance(source)
    queue = deque([source])
    in_queue[source] = True
    touch_in_queue(source)
    head = 0  # position in the modelled circular queue array
    tail = 1
    touch_queue(0)
    while queue:
        touch_queue(head % n)
        head += 1
        u = queue.popleft()
        in_queue[u] = False
        touch_in_queue(u)
        touch_distance(u)
        candidate = distance[u] + 1
        traced.offsets.touch(u)
        start = int(offsets[u])
        end = int(offsets[u + 1])
        traced.adjacency.touch_run(start, end - start)
        for v in adjacency[start:end].tolist():
            touch_distance(v)
            if candidate < distance[v]:
                distance[v] = candidate
                touch_in_queue(v)
                if not in_queue[v]:
                    in_queue[v] = True
                    queue.append(v)
                    touch_queue(tail % n)
                    tail += 1
    return distance


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
    touch_next_many = traced_next.touch_many
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
            touch_next_many(neighbors)  # the random per-edge writes
            # np.add.at applies element-wise in index order — the
            # float accumulation is bitwise the per-edge loop's, and
            # next_rank is this iteration's local accumulator, so the
            # in-place update never escapes the oracle.
            np.add.at(next_rank, neighbors, contribution)
        dangling_share = dangling_mass / n
        # Final sequential combine pass over both rank arrays.
        traced_next.touch_run(0, n)
        traced_rank.touch_run(0, n)
        rank[:] = teleport + damping * (next_rank + dangling_share)
    return rank


def diameter_traced_scalar(
    graph: CSRGraph,
    memory: Memory,
    sources: Sequence[int] | None = None,
    num_sources: int = DEFAULT_SOURCES,
    seed: int = 0,
) -> int:
    """Scalar-loop diameter emitter: the runtime port's oracle."""
    if sources is None:
        sources = pick_sources(graph, num_sources, seed)
    traced = declare_graph(memory, graph)
    arrays = _declare_sp_arrays(memory, graph.num_nodes, suffix="")
    best = 0
    for source in sources:
        distance = _sp_traced_core(graph, traced, arrays, int(source))
        finite = distance[distance != INFINITY]
        if finite.shape[0]:
            best = max(best, int(finite.max()))
    return best


def label_propagation_traced_scalar(
    graph: CSRGraph,
    memory: Memory,
    iterations: int = DEFAULT_ITERATIONS,
) -> np.ndarray:
    """Scalar-loop label propagation emitter: the runtime oracle."""
    return _propagate(graph, iterations, memory=memory)


#: Algorithm registry name -> its scalar-loop emitter, for the
#: algorithms whose production emitter is a vectorised runtime port.
#: An algorithm missing here has one traced implementation, which is
#: its own oracle.
TRACED_SCALAR: dict[str, Callable[..., Any]] = {
    "nq": neighbor_query_traced_scalar,
    "bfs": breadth_first_search_traced_scalar,
    "sp": shortest_paths_traced_scalar,
    "pr": pagerank_traced_scalar,
    "diam": diameter_traced_scalar,
    "lp": label_propagation_traced_scalar,
}


# ---------------------------------------------------------------------
# Ordering oracles
# ---------------------------------------------------------------------
def gorder_sequence_reference(
    graph: CSRGraph,
    window: int = DEFAULT_WINDOW,
    hub_threshold: int | None = None,
) -> np.ndarray:
    """Literal Algorithm 2: one heap call per unit score event.

    The oracle :func:`~repro.ordering.gorder.gorder_sequence` is
    tested and benchmarked against (byte-identical output, see that
    module's docstring); it publishes no telemetry.
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
    skip_limit = (
        np.iinfo(np.int64).max if hub_threshold is None else hub_threshold
    )
    heap = UnitHeap(n)
    sequence = np.empty(n, dtype=np.int64)

    def apply(u: int, entering: bool) -> None:
        """Propagate u's window-entry (+1) or -exit (-1) score events."""
        update = heap.increase if entering else heap.decrease
        for v in out_adjacency[out_offsets[u]:out_offsets[u + 1]]:
            update(int(v))  # S_n: edge u -> v
        for z in in_adjacency[in_offsets[u]:in_offsets[u + 1]]:
            z = int(z)
            update(z)  # S_n: edge z -> u
            if out_degrees[z] > skip_limit:
                continue  # hub co-citation: skipped, see gorder's docstring
            for v in out_adjacency[out_offsets[z]:out_offsets[z + 1]]:
                v = int(v)
                if v != u:
                    update(v)  # S_s: z is a common in-neighbour of u, v

    start = int(np.argmax(graph.in_degrees())) if n > 1 else 0
    heap.remove(start)
    sequence[0] = start
    apply(start, entering=True)
    for i in range(1, n):
        if i > window:
            apply(int(sequence[i - 1 - window]), entering=False)
        chosen = heap.pop_max()
        sequence[i] = chosen
        apply(chosen, entering=True)
    return sequence


def anneal_reference(
    graph: CSRGraph,
    seed: int,
    steps: int | None,
    standard_energy: float | None,
    logarithmic: bool,
) -> np.ndarray:
    """Literal simulated annealing for MinLA (``logarithmic=False``)
    and MinLogA: one numpy scalar read per position and step.

    The oracle :func:`~repro.ordering.minla.minla_order` and
    :func:`~repro.ordering.minla.minloga_order` are tested against
    (byte-identical output, see that module's docstring).
    """
    n = graph.num_nodes
    if n <= 1:
        return identity_permutation(n)
    if steps is None:
        steps = graph.num_edges
    if steps < 0:
        raise InvalidParameterError(f"steps must be >= 0, got {steps}")
    if standard_energy is None:
        standard_energy = graph.num_edges / n
    if standard_energy < 0:
        raise InvalidParameterError(
            f"standard_energy must be >= 0, got {standard_energy}"
        )
    # Incident lists on the undirected view: a swap of u's position only
    # changes energy terms of edges touching u.
    undirected = graph.undirected()
    offsets = undirected.offsets
    adjacency = undirected.adjacency
    rng = np.random.default_rng(seed)
    position = identity_permutation(n)
    log = math.log
    use_log = logarithmic
    k = standard_energy
    pairs = rng.integers(0, n, size=(steps, 2))
    coins = rng.random(steps)
    for step in range(steps):
        u = int(pairs[step, 0])
        v = int(pairs[step, 1])
        if u == v:
            continue
        pos_u = int(position[u])
        pos_v = int(position[v])
        delta = 0.0
        for w in adjacency[offsets[u]:offsets[u + 1]]:
            w = int(w)
            if w == v:
                continue  # the (u, v) term is invariant under the swap
            pos_w = int(position[w])
            if use_log:
                delta += log(abs(pos_v - pos_w)) - log(abs(pos_u - pos_w))
            else:
                delta += abs(pos_v - pos_w) - abs(pos_u - pos_w)
        for w in adjacency[offsets[v]:offsets[v + 1]]:
            w = int(w)
            if w == u:
                continue
            pos_w = int(position[w])
            if use_log:
                delta += log(abs(pos_u - pos_w)) - log(abs(pos_v - pos_w))
            else:
                delta += abs(pos_u - pos_w) - abs(pos_v - pos_w)
        if delta > 0.0:
            if k <= 0.0:
                continue  # local search: reject all uphill moves
            temperature = 1.0 - step / steps
            if temperature <= 0.0:
                continue
            if coins[step] >= math.exp(-delta / (k * temperature)):
                continue
        position[u] = pos_v
        position[v] = pos_u
    return position


def window_scores_reference(
    graph: CSRGraph, sequence: np.ndarray, window: int = DEFAULT_WINDOW
) -> np.ndarray:
    """Literal per-pair :func:`~repro.ordering.gorder.window_scores`.

    Evaluates ``pair_score`` for every (step, window slot) pair —
    O(n * w * d) Python work, kept as the unambiguous definition the
    vectorised version is verified against.
    """
    if window < 1:
        raise InvalidParameterError(
            f"window must be at least 1, got {window}"
        )
    sequence = np.asarray(sequence, dtype=np.int64)
    scores = np.zeros(sequence.shape[0], dtype=np.int64)
    for i in range(1, sequence.shape[0]):
        u = int(sequence[i])
        scores[i] = sum(
            pair_score(graph, u, int(sequence[j]))
            for j in range(max(0, i - window), i)
        )
    return scores


def dbg_classes_reference(degrees, num_groups: int) -> list[int]:
    """Pure-python oracle for
    :func:`~repro.ordering.lightweight.dbg_classes` (tests compare)."""
    if num_groups < 1:
        raise InvalidParameterError(
            f"num_groups must be positive, got {num_groups}"
        )
    return [
        min((int(d) + 1).bit_length() - 1, num_groups - 1)
        for d in degrees
    ]
