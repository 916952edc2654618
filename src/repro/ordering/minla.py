"""MinLA and MinLogA orderings via simulated annealing.

The objectives (over the directed edge set E):

* MinLA:    ``E(pi) = sum_(u,v) |pi_u - pi_v|``
* MinLogA:  ``E(pi) = sum_(u,v) log |pi_u - pi_v|``

Both exact problems are NP-hard; following the replication we run
simulated annealing with a linearly decreasing temperature
``T(s) = 1 - s / S`` and Metropolis acceptance
``p(e, T) = exp(-e / (k * T))`` for an energy increase ``e``, where
``S`` is the step budget and ``k`` the *standard energy* scale.
Setting ``k = 0`` degenerates to pure local search (only improving
swaps accepted) — which the replication found as good as any annealing
schedule (its Figure 3).

Defaults follow the replication: ``S = m`` and ``k = m / n``.

The annealing loop runs over Python lists (positions, one neighbour
list per node, the random step stream converted ``STEP_SLICE`` steps
at a time) and looks each edge's energy up in a table (``math.log``
values for MinLogA), so it reads no numpy scalar per step.  It draws
the same random stream and sums the same terms in the same order as
the literal loop :func:`repro.oracles.anneal_reference`, so its
output is byte-identical to that oracle's.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.graph.permute import identity_permutation

#: Steps of the random stream converted to Python lists at a time.  As
#: lists a step costs about 112 B against the arrays' 24 B, so the
#: conversion stays bounded (about 112 KiB) however many steps a run
#: takes.
STEP_SLICE = 1 << 10


def minla_order(
    graph: CSRGraph,
    seed: int = 0,
    steps: int | None = None,
    standard_energy: float | None = None,
) -> np.ndarray:
    """Simulated-annealing arrangement for the **linear** objective."""
    return _anneal(graph, seed, steps, standard_energy, logarithmic=False)


def minloga_order(
    graph: CSRGraph,
    seed: int = 0,
    steps: int | None = None,
    standard_energy: float | None = None,
) -> np.ndarray:
    """Simulated-annealing arrangement for the **log** objective."""
    return _anneal(graph, seed, steps, standard_energy, logarithmic=True)


def _anneal(
    graph: CSRGraph,
    seed: int,
    steps: int | None,
    standard_energy: float | None,
    logarithmic: bool,
) -> np.ndarray:
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
    # changes energy terms of edges touching u.  The view has no
    # self-loops, so no edge has length 0.
    undirected = graph.undirected()
    offsets = undirected.offsets.tolist()
    adjacency = undirected.adjacency
    # The lists hold the shared int objects of ``nodes``, not one
    # object per entry: 8 B per entry instead of 40.
    nodes = list(range(n))
    neighbours = [
        [nodes[w] for w in adjacency[offsets[u]:offsets[u + 1]].tolist()]
        for u in range(n)
    ]
    del undirected, adjacency  # freed before the step stream is drawn
    rng = np.random.default_rng(seed)
    position = list(range(n))
    # cost[d] is the energy of an edge of length d, as a float: the log
    # values are math.log's own, and float(a) - float(b) == a - b for
    # lengths below 2**53, so every term and the summation order match
    # the literal loop.  Index 0 is never read.
    if logarithmic:
        cost = [0.0] + [math.log(d) for d in range(1, n)]
    else:
        cost = [float(d) for d in range(n)]
    k = standard_energy
    pairs = rng.integers(0, n, size=(steps, 2))
    coins = rng.random(steps)
    for start in range(0, steps, STEP_SLICE):
        stop = min(start + STEP_SLICE, steps)
        for step, u, v, coin in zip(
            range(start, stop),
            pairs[start:stop, 0].tolist(),
            pairs[start:stop, 1].tolist(),
            coins[start:stop].tolist(),
        ):
            if u == v:
                continue
            pos_u = position[u]
            pos_v = position[v]
            delta = 0.0
            for w in neighbours[u]:
                if w != v:  # the (u, v) term is invariant under the swap
                    pos_w = position[w]
                    delta += cost[abs(pos_v - pos_w)] - cost[
                        abs(pos_u - pos_w)
                    ]
            for w in neighbours[v]:
                if w != u:
                    pos_w = position[w]
                    delta += cost[abs(pos_u - pos_w)] - cost[
                        abs(pos_v - pos_w)
                    ]
            if delta > 0.0:
                if k <= 0.0:
                    continue  # local search: reject all uphill moves
                temperature = 1.0 - step / steps
                if temperature <= 0.0:
                    continue
                if coin >= math.exp(-delta / (k * temperature)):
                    continue
            position[u] = pos_v
            position[v] = pos_u
    return np.array(position, dtype=np.int64)
