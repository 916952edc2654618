"""Ordering registry: every ordering method, addressable by name.

An ordering is a callable ``(graph, seed=0, **params) -> perm`` where
``perm`` is an arrangement (``perm[u]`` = new index of node ``u``; see
:mod:`repro.graph.permute`).  The registry drives the experiment
harness, the CLI and the benchmarks; names match the labels the
replication's figures use.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import UnknownOrderingError
from repro.graph.csr import CSRGraph
from repro.ordering.bisect import bisection_order
from repro.ordering.gorder import gorder_order
from repro.ordering.gorder_lazy import gorder_order_lazy
from repro.ordering.ldg import ldg_order
from repro.ordering.lightweight import (
    boba_order,
    dbg_order,
    hubcluster_order,
    hubsort_order,
)
from repro.ordering.minla import minla_order, minloga_order
from repro.ordering.parallel import gorder_partitioned
from repro.ordering.rcm import rcm_order
from repro.ordering.simple import (
    chdfs_order,
    indegsort_order,
    original_order,
    random_order,
)
from repro.ordering.slashburn import slashburn_order

OrderingFunction = Callable[..., np.ndarray]


def _auto_order(
    graph: CSRGraph,
    seed: int = 0,
    query_volume: float | None = None,
    clock_hz: float | None = None,
    cache_backend: str | None = None,
    algo_backend: str | None = None,
    window: int | None = None,
    candidates: tuple | None = None,
    dataset: str | None = None,
) -> np.ndarray:
    """Registry entry for the adaptive selector.

    Imported lazily: :mod:`repro.ordering.select` needs this registry
    to probe its candidates, so importing it at module scope would be
    circular.  The keyword signature mirrors
    :func:`~repro.ordering.select.auto_order` so the registry's
    signature filter applies to ``auto`` like any other ordering;
    ``None`` leaves a knob at the selector's default.
    """
    from repro.ordering.select import auto_order

    knobs = {
        "query_volume": query_volume,
        "clock_hz": clock_hz,
        "cache_backend": cache_backend,
        "algo_backend": algo_backend,
        "window": window,
        "candidates": candidates,
        "dataset": dataset,
    }
    return auto_order(
        graph,
        seed=seed,
        **{key: value for key, value in knobs.items() if value is not None},
    )


@dataclass(frozen=True)
class OrderingSpec:
    """One registered ordering method."""

    name: str  # registry key, lowercase
    display_name: str  # label used in the paper's figures
    compute: OrderingFunction
    deterministic: bool  # ignores the seed argument
    headline: bool  # part of the paper's main experiment set


#: All orderings, in the display order of the replication's Figure 5.
REGISTRY: dict[str, OrderingSpec] = {
    spec.name: spec
    for spec in [
        OrderingSpec(
            "original", "Original", original_order,
            deterministic=True, headline=True,
        ),
        OrderingSpec(
            "random", "Random", random_order,
            deterministic=False, headline=True,
        ),
        OrderingSpec(
            "minla", "MinLA", minla_order,
            deterministic=False, headline=True,
        ),
        OrderingSpec(
            "minloga", "MinLogA", minloga_order,
            deterministic=False, headline=True,
        ),
        OrderingSpec(
            "rcm", "RCM", rcm_order,
            deterministic=True, headline=True,
        ),
        OrderingSpec(
            "indegsort", "InDegSort", indegsort_order,
            deterministic=True, headline=True,
        ),
        OrderingSpec(
            "chdfs", "ChDFS", chdfs_order,
            deterministic=True, headline=True,
        ),
        OrderingSpec(
            "slashburn", "SlashBurn", slashburn_order,
            deterministic=True, headline=True,
        ),
        OrderingSpec(
            "ldg", "LDG", ldg_order,
            deterministic=True, headline=True,
        ),
        OrderingSpec(
            "gorder", "Gorder", gorder_order,
            deterministic=True, headline=True,
        ),
        OrderingSpec(
            "bisect", "Bisect", bisection_order,
            deterministic=True, headline=False,
        ),
        # Lightweight reorderings from the follow-on literature
        # (Balaji & Lucia 2018; Faldu et al. 2019) — extensions.
        OrderingSpec(
            "hubsort", "HubSort", hubsort_order,
            deterministic=True, headline=False,
        ),
        OrderingSpec(
            "hubcluster", "HubCluster", hubcluster_order,
            deterministic=True, headline=False,
        ),
        OrderingSpec(
            "dbg", "DBG", dbg_order,
            deterministic=True, headline=False,
        ),
        OrderingSpec(
            "boba", "BOBA", boba_order,
            deterministic=True, headline=False,
        ),
        # Alternative Gorder variants — extensions for ablations.
        OrderingSpec(
            "gorder-lazy", "Gorder(lazy-pq)", gorder_order_lazy,
            deterministic=True, headline=False,
        ),
        OrderingSpec(
            "gorder-part", "Gorder(partitioned)", gorder_partitioned,
            deterministic=True, headline=False,
        ),
        # Adaptive selection (ROADMAP item 3): probes the frontier
        # and picks the configuration minimising amortised cost.
        # Probe cycles are deterministic; near-ties can flip only
        # within wall-clock measurement noise.
        OrderingSpec(
            "auto", "Auto(selector)", _auto_order,
            deterministic=True, headline=False,
        ),
    ]
}

#: Names of the paper's ten headline orderings, figure order.
ORDERING_NAMES: tuple[str, ...] = tuple(
    name for name, spec in REGISTRY.items() if spec.headline
)

#: Every registry name, headline plus extensions (CLI choices).
ALL_ORDERING_NAMES: tuple[str, ...] = tuple(REGISTRY)


def spec(name: str) -> OrderingSpec:
    """Look up an ordering by registry name (case-insensitive)."""
    try:
        return REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(REGISTRY)
        raise UnknownOrderingError(
            f"unknown ordering {name!r}; known orderings: {known}"
        ) from None


@functools.cache
def accepted_params(name: str) -> frozenset[str]:
    """Keyword parameters ordering ``name`` declares besides
    ``graph`` and ``seed``."""
    parameters = inspect.signature(spec(name).compute).parameters
    return frozenset(parameters) - {"graph", "seed"}


def compute_ordering(
    name: str, graph: CSRGraph, seed: int = 0, **params
) -> np.ndarray:
    """Compute the arrangement for ``graph`` by ordering name.

    Extra ``params`` are forwarded to the ordering function, filtered
    against :func:`accepted_params`: parameters an ordering does not
    declare are silently dropped.  This lets sweep-wide knobs
    (``workers``, ``window``, ``query_volume``) apply to the orderings
    they concern without every ordering having to accept every knob.
    """
    ordering = spec(name)
    if params:
        accepted = accepted_params(ordering.name)
        params = {
            key: value
            for key, value in params.items()
            if key in accepted
        }
    return ordering.compute(graph, seed=seed, **params)
