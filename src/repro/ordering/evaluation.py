"""One-call quality evaluation of a node arrangement.

Downstream users picking an ordering want a single comparable report,
not five separate metric calls.  :func:`evaluate_ordering` bundles the
locality objective, the linear-arrangement energies, the compression
estimate and a simulated cache probe into one
:class:`OrderingEvaluation`, and :func:`evaluate_all` sweeps the
registry to produce a comparison table.

The probe runs the same simulator path as the experiment runner
(vectorised trace replay over the frontier runtime's traces) and costs
the same cycles as the selector's probe workload
(:data:`repro.ordering.select.PROBE`); amortising ordering cost
against those savings is :mod:`repro.ordering.select`'s job.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.algorithms import base as algorithms
from repro.cache import Memory, scaled_hierarchy
from repro.graph.csr import CSRGraph
from repro.graph.permute import relabel, validate_permutation
from repro.ordering import base as registry
from repro.ordering.compression import bits_per_edge
from repro.ordering.gorder import DEFAULT_WINDOW
from repro.ordering.metrics import (
    average_gap,
    bandwidth,
    gorder_score,
    minla_energy,
)


@dataclass(frozen=True)
class OrderingEvaluation:
    """All quality numbers for one arrangement of one graph."""

    ordering: str
    gorder_f: int  # the paper's objective (higher is better)
    minla: int  # linear arrangement energy (lower is better)
    average_gap: float
    bandwidth: int
    bits_per_edge: float  # compression estimate (lower is better)
    l1_miss_rate: float  # NQ probe on the simulated hierarchy
    cache_miss_rate: float
    probe_cycles: float
    #: Measured wall-time of computing the arrangement; NaN when the
    #: arrangement was supplied rather than computed.
    ordering_seconds: float = float("nan")

    def as_row(self) -> list:
        seconds = (
            "-" if math.isnan(self.ordering_seconds)
            else f"{self.ordering_seconds:.3f}"
        )
        return [
            self.ordering,
            self.gorder_f,
            self.minla,
            f"{self.average_gap:.0f}",
            self.bandwidth,
            f"{self.bits_per_edge:.2f}",
            f"{100 * self.l1_miss_rate:.1f}%",
            f"{100 * self.cache_miss_rate:.1f}%",
            f"{self.probe_cycles / 1e6:.2f}M",
            seconds,
        ]

    @staticmethod
    def headers() -> list[str]:
        return [
            "ordering", "F(pi)", "E_LA", "avg-gap", "bandwidth",
            "bits/edge", "L1-mr", "Cache-mr", "NQ cycles", "order-s",
        ]


def probe_arrangement(graph: CSRGraph, perm: np.ndarray):
    """Run the NQ cache probe for one arrangement.

    Returns ``(total_cycles, stats)`` for the relabelled graph on the
    scaled hierarchy.
    """
    memory = Memory(scaled_hierarchy())
    algorithms.spec("nq").traced(relabel(graph, perm), memory)
    return memory.cost().total_cycles, memory.stats()


def evaluate_ordering(
    graph: CSRGraph,
    perm: np.ndarray,
    name: str = "custom",
    window: int = DEFAULT_WINDOW,
    ordering_seconds: float = float("nan"),
) -> OrderingEvaluation:
    """Evaluate one arrangement on every quality axis."""
    perm = validate_permutation(perm, graph.num_nodes)
    probe_cycles, stats = probe_arrangement(graph, perm)
    return OrderingEvaluation(
        ordering=name,
        gorder_f=gorder_score(graph, perm, window=window),
        minla=minla_energy(graph, perm),
        average_gap=average_gap(graph, perm),
        bandwidth=bandwidth(graph, perm),
        bits_per_edge=bits_per_edge(graph, perm),
        l1_miss_rate=stats.l1_miss_rate,
        cache_miss_rate=stats.cache_miss_rate,
        probe_cycles=probe_cycles,
        ordering_seconds=ordering_seconds,
    )


def evaluate_all(
    graph: CSRGraph,
    ordering_names=None,
    seed: int = 0,
    window: int = DEFAULT_WINDOW,
    ordering_params: dict | None = None,
) -> list[OrderingEvaluation]:
    """Evaluate several registered orderings; best probe first.

    Each ordering's computation is timed and the wall-time recorded in
    its evaluation, next to its quality numbers.
    """
    names = (
        tuple(ordering_names)
        if ordering_names is not None
        else registry.ORDERING_NAMES
    )
    params = dict(ordering_params or {})
    evaluations = []
    for name in names:
        start = time.perf_counter()
        perm = registry.compute_ordering(
            name, graph, seed=seed, **params
        )
        seconds = time.perf_counter() - start
        evaluations.append(
            evaluate_ordering(
                graph,
                perm,
                name=name,
                window=window,
                ordering_seconds=seconds,
            )
        )
    evaluations.sort(key=lambda evaluation: evaluation.probe_cycles)
    return evaluations
