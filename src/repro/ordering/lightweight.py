"""Lightweight degree-based reorderings from the follow-on literature.

The replication's discussion cites "When is Graph Reordering an
Optimization?" [Balaji & Lucia, IISWC 2018], which benchmarks Gorder
against *lightweight* reorderings that cost seconds instead of hours.
This module implements the standard ones so the trade-off can be
reproduced here:

* **HubSort** — hub vertices (in-degree above average) are packed at
  the front sorted by descending degree; the cold tail keeps its
  original relative order.  Preserves most of the original locality
  while densifying the hot working set.
* **HubCluster** — like HubSort but hubs keep their original relative
  order too (no sort), the cheapest hub-packing variant.
* **DBG** — Degree-Based Grouping [Faldu, Diamond & Grot 2019]: nodes
  are partitioned into coarse power-of-two degree classes, classes
  laid out hot-to-cold, original order preserved *within* each class.
  DBG's explicit goal is exactly HubSort's benefit without destroying
  the original order's locality.
* **BOBA** — a first-touch edge-stream pass [Okanovic et al.]: one
  traversal of the edge list packs endpoints in the order they are
  first seen, so vertices that appear together in the stream land on
  nearby cache lines.

All run in O(n + m + sort) time and are deterministic.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.graph.permute import permutation_from_sequence


def _hub_mask(graph: CSRGraph) -> np.ndarray:
    """Hubs = nodes whose in-degree exceeds the average degree.

    On a regular graph no in-degree exceeds the mean, so the mask is
    all-False and the hub orderings degrade to the identity — they
    must stay well-defined, not crash, in that case.
    """
    degrees = graph.in_degrees()
    if graph.num_nodes == 0:
        return np.zeros(0, dtype=bool)
    return degrees > degrees.mean()


def hubsort_order(graph: CSRGraph, seed: int = 0) -> np.ndarray:
    """HubSort: sorted hubs first, original-order tail after."""
    del seed  # deterministic
    degrees = graph.in_degrees()
    hubs = _hub_mask(graph)
    hub_ids = np.flatnonzero(hubs)
    # Stable sort by descending degree keeps ties in original order.
    hub_ids = hub_ids[np.argsort(-degrees[hub_ids], kind="stable")]
    cold_ids = np.flatnonzero(~hubs)
    return permutation_from_sequence(
        np.concatenate([hub_ids, cold_ids])
    )


def hubcluster_order(graph: CSRGraph, seed: int = 0) -> np.ndarray:
    """HubCluster: hubs first (original order), tail after."""
    del seed  # deterministic
    hubs = _hub_mask(graph)
    return permutation_from_sequence(
        np.concatenate([np.flatnonzero(hubs), np.flatnonzero(~hubs)])
    )


def dbg_classes(degrees: np.ndarray, num_groups: int) -> np.ndarray:
    """Integer log-scale degree classes, exact for any int64 degree.

    Class of degree ``d`` is ``min((d + 1).bit_length() - 1,
    num_groups - 1)`` — the bit-length form of ``floor(log2(d + 1))``.
    Class ``k`` covers degrees in ``[2**k - 1, 2**(k + 1) - 1)``, so
    the boundaries are exact int64s and a right-sided ``searchsorted``
    assigns classes without ever casting the degree vector to float
    (``np.log2`` mis-rounds integers above 2**53 whose nearest double
    is the next power of two).
    """
    if num_groups < 1:
        raise InvalidParameterError(
            f"num_groups must be positive, got {num_groups}"
        )
    degrees = np.asarray(degrees, dtype=np.int64)
    boundaries = np.array(
        [(1 << k) - 1 for k in range(1, min(num_groups, 63))],
        dtype=np.int64,
    )
    return np.searchsorted(
        boundaries, degrees, side="right"
    ).astype(np.int64)


def dbg_order(
    graph: CSRGraph, seed: int = 0, num_groups: int = 8
) -> np.ndarray:
    """Degree-Based Grouping with ``num_groups`` log-scale classes.

    Class of node ``u`` is ``min(floor(log2(deg_in(u) + 1)),
    num_groups - 1)`` computed in exact integer arithmetic (see
    :func:`dbg_classes`); classes are laid out from hottest (highest)
    to coldest, original order preserved within each class.  Well
    defined for ``num_groups=1`` (identity), zero-degree nodes (class
    0) and the empty graph.
    """
    del seed  # deterministic
    classes = dbg_classes(graph.in_degrees(), num_groups)
    # Stable sort on negated class: hot classes first, original order
    # within a class.
    sequence = np.argsort(-classes, kind="stable")
    return permutation_from_sequence(sequence)


def boba_order(graph: CSRGraph, seed: int = 0) -> np.ndarray:
    """BOBA: pack endpoints in edge-stream first-touch order.

    One pass over the CSR edge stream (sources ascending, adjacency
    order within a source) assigns each vertex the position at which
    it is first touched — source before target within an edge.
    Vertices never touched by an edge keep their original relative
    order at the tail.  Deterministic.
    """
    del seed  # deterministic
    n = graph.num_nodes
    with obs.span("ordering.boba", n=n, m=graph.num_edges):
        sources, targets = graph.edge_array()
        endpoints = np.empty(2 * sources.shape[0], dtype=np.int64)
        endpoints[0::2] = sources
        endpoints[1::2] = targets
        values, first_seen = np.unique(endpoints, return_index=True)
        touched = values[np.argsort(first_seen, kind="stable")]
        seen = np.zeros(n, dtype=bool)
        seen[touched] = True
        sequence = np.concatenate([touched, np.flatnonzero(~seen)])
    return permutation_from_sequence(sequence)
