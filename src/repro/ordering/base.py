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
import typing
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import InvalidParameterError, UnknownOrderingError
from repro.graph.csr import CSRGraph
from repro.ordering.bisect import bisection_order
from repro.ordering.gorder import DEFAULT_WINDOW, gorder_order
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
    window: int | None = None,
) -> np.ndarray:
    """Registry entry for the selector: the arrangement
    :func:`~repro.ordering.select.select_ordering` chose, as computed
    while probing.

    Imported lazily: :mod:`repro.ordering.select` needs this registry
    to compute its candidates, so importing it at module scope would
    be circular.  ``None`` leaves a knob at the selector's default.
    """
    from repro.ordering import select

    if query_volume is None:
        query_volume = select.DEFAULT_QUERY_VOLUME
    if window is None:
        window = DEFAULT_WINDOW
    return select.select_ordering(
        graph,
        query_volume=query_volume,
        candidates=select.default_candidates(window=window),
        seed=seed,
    ).chosen.perm


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
        # Alternative Gorder variant — an extension for ablations.
        OrderingSpec(
            "gorder-part", "Gorder(partitioned)", gorder_partitioned,
            deterministic=True, headline=False,
        ),
        # Selection by amortised cost (repro.ordering.select): probes
        # the candidate frontier and picks the configuration with the
        # least amortised seconds.  Probe cycles are deterministic;
        # near-ties can flip only within wall-clock measurement noise.
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
def _declared_types(name: str) -> dict[str, tuple[type, ...]]:
    """Keyword parameters ordering ``name`` declares besides ``graph``
    and ``seed``, each with the types its annotation admits."""
    parameters = inspect.signature(
        spec(name).compute, eval_str=True
    ).parameters
    return {
        key: typing.get_args(parameter.annotation)
        or (parameter.annotation,)
        for key, parameter in parameters.items()
        if key not in ("graph", "seed")
    }


def accepted_params(name: str) -> frozenset[str]:
    """Keyword parameters ordering ``name`` declares besides
    ``graph`` and ``seed``."""
    return frozenset(_declared_types(name))


def _check_param_type(
    ordering: str, key: str, value: object, types: tuple[type, ...]
) -> None:
    """Reject a value its declared annotation does not admit.

    A bool is not an int here (JSON ``true`` is no window size), and
    an int is a float, as in Python's numeric tower.
    """
    admitted = types + ((int,) if float in types else ())
    if (isinstance(value, bool) and bool not in types) or not isinstance(
        value, admitted
    ):
        names = " or ".join(
            kind.__name__ for kind in types if kind is not type(None)
        )
        raise InvalidParameterError(
            f"ordering {ordering!r} parameter {key!r} must be {names}, "
            f"got {type(value).__name__}"
        )


@dataclass(frozen=True)
class OrderingConfig:
    """The name of one permutation: ordering, seed and parameters.

    The constructor is the one place ordering parameters are
    normalised.  ``ordering`` becomes its registry name; ``params``
    (a mapping or ``(name, value)`` pairs) keeps only the names the
    ordering declares, drops ``None`` values (every optional
    parameter defaults to ``None``), and is stored sorted.  Configs
    that compute the same permutation are therefore equal, and
    :meth:`key` is the memo key of the runner cache and the serve
    store alike.  This lenient form lets a sweep-wide parameter such
    as ``query_volume`` apply to the orderings that declare it;
    :meth:`strict` is the form for user input.
    """

    ordering: str
    seed: int = 0
    params: tuple[tuple[str, object], ...] | dict | None = ()

    def __post_init__(self) -> None:
        ordering = spec(self.ordering).name
        declared = _declared_types(ordering)
        params = tuple(
            sorted(
                (key, value)
                for key, value in dict(self.params or ()).items()
                if key in declared and value is not None
            )
        )
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "params", params)

    @classmethod
    def strict(
        cls, ordering: str, seed: int = 0, params: dict | None = None
    ) -> "OrderingConfig":
        """A config from user input (the CLI, the serve wire).

        Raises :class:`~repro.errors.InvalidParameterError` for a
        parameter the ordering does not declare, or a value whose type
        its annotation does not admit, instead of dropping it.
        """
        name = spec(ordering).name
        declared = _declared_types(name)
        params = dict(params or {})
        unknown = sorted(set(params) - set(declared))
        if unknown:
            raise InvalidParameterError(
                f"ordering {name!r} does not accept parameter(s) "
                f"{', '.join(unknown)}; accepted: "
                f"{', '.join(sorted(declared)) or 'none'}"
            )
        for key, value in params.items():
            if value is not None:
                _check_param_type(name, key, value, declared[key])
        return cls(name, seed, params)

    @property
    def label(self) -> str:
        """Ordering and parameters, e.g. ``gorder[window=5]``."""
        if not self.params:
            return self.ordering
        inner = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.ordering}[{inner}]"

    def key(self) -> tuple[str, int, tuple[tuple[str, object], ...]]:
        """Hashable ``(ordering, seed, params)`` memo key."""
        return (self.ordering, self.seed, self.params)

    def as_json(self) -> dict:
        """JSON form, as spill metadata records it."""
        return {
            "ordering": self.ordering,
            "seed": self.seed,
            "params": [[key, value] for key, value in self.params],
        }

    def compute(self, graph: CSRGraph) -> np.ndarray:
        """The arrangement of ``graph`` this config names."""
        return compute_ordering(
            self.ordering, graph, seed=self.seed, **dict(self.params)
        )


def compute_ordering(
    name: str, graph: CSRGraph, seed: int = 0, **params
) -> np.ndarray:
    """Compute the arrangement for ``graph`` by ordering name.

    ``params`` are normalised by :class:`OrderingConfig`: parameters
    the ordering does not declare are dropped, so a sweep-wide knob
    (``workers``, ``window``, ``query_volume``) applies to the
    orderings it concerns without every ordering accepting every
    knob.
    """
    config = OrderingConfig(name, seed, params)
    return spec(config.ordering).compute(
        graph, seed=seed, **dict(config.params)
    )
