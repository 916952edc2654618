"""Linear Deterministic Greedy (LDG) streaming-partition ordering.

LDG [Stanton & Kliot 2012] streams nodes in their original order into
``ceil(n / k)`` bins of capacity ``k`` and places each node in the bin
maximising ``(1 + |N(u) ∩ B|) * (1 - |B| / k)`` — neighbours attract,
fullness repels.  The paper uses ``k = 64`` so one bin of node data
fits a cache line's worth of 4-byte entries per property array.

The arrangement concatenates the bins; in both the paper and the
replication this ordering performs poorly (barely better than random),
and reproducing *that* is part of reproducing the result.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.graph.permute import permutation_from_sequence

#: Paper's bin size: 64 node entries per bin.
DEFAULT_BIN_SIZE = 64


def ldg_order(
    graph: CSRGraph, seed: int = 0, bin_size: int = DEFAULT_BIN_SIZE
) -> np.ndarray:
    """Compute the LDG arrangement with bins of ``bin_size`` nodes."""
    del seed  # deterministic (streams in original order)
    if bin_size < 1:
        raise InvalidParameterError(
            f"bin_size must be positive, got {bin_size}"
        )
    undirected = graph.undirected()
    n = undirected.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = undirected.offsets.tolist()
    adjacency = undirected.adjacency
    num_bins = (n + bin_size - 1) // bin_size
    bins: list[list[int]] = [[] for _ in range(num_bins)]
    sizes = [0] * num_bins
    bin_of = [-1] * n
    # Min-heap of ``size * num_bins + bin``, one entry pushed per size
    # a bin reaches.  Sizes only grow, so an entry whose size is no
    # longer its bin's is stale; past those, the top is the emptiest
    # bin, smallest id first.
    emptiest_heap = list(range(num_bins))
    for u in range(n):
        # Count already-placed neighbours per bin.
        counts: dict[int, int] = {}
        for v in adjacency[offsets[u]:offsets[u + 1]].tolist():
            b = bin_of[v]
            if b >= 0:
                counts[b] = counts.get(b, 0) + 1
        best_bin = -1
        best_score = -1.0
        for b, shared in counts.items():
            if sizes[b] >= bin_size:
                continue
            score = (1.0 + shared) * (1.0 - sizes[b] / bin_size)
            if score > best_score:
                best_score = score
                best_bin = b
        # A neighbour-free bin scores (1)(1 - |B|/k); the emptiest
        # such bin is the best fallback candidate.
        while True:
            key = emptiest_heap[0]
            emptiest = key % num_bins
            if key // num_bins == sizes[emptiest]:
                break
            heapq.heappop(emptiest_heap)
        if sizes[emptiest] < bin_size:
            score = 1.0 - sizes[emptiest] / bin_size
            if score > best_score:
                best_score = score
                best_bin = emptiest
        if best_bin < 0:  # every bin full (can't happen with ceil bins)
            best_bin = emptiest
        bins[best_bin].append(u)
        sizes[best_bin] += 1
        heapq.heappush(emptiest_heap, sizes[best_bin] * num_bins + best_bin)
        bin_of[u] = best_bin
    sequence = np.array(
        [u for bin_nodes in bins for u in bin_nodes], dtype=np.int64
    )
    return permutation_from_sequence(sequence)
