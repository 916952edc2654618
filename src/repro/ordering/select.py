"""The amortisation model: when does an ordering pay for itself?

The paper charges Gorder for its ordering time (Table 2), and "When is
Graph Reordering an Optimization?" argues that a reordering pays only
once that one-off cost has been amortised by per-run savings.  This
module is the one model of that trade-off:

    amortised_seconds(config, volume) = ordering_seconds(config)
        + volume * cycles(config) / CLOCK_HZ

A :class:`Workload` is a named mix of traced algorithm runs (e.g. "the
nightly pipeline: 3-iteration PageRank + SCC + two diameter probes").
:func:`amortization_table` runs it under every candidate
:class:`~repro.ordering.base.OrderingConfig` — the ordering's
wall-time measured, the relabelled graph simulated — and reports one
:class:`AmortizationRow` per candidate, with the break-even run count
against the first candidate (the baseline).  ``repro-gorder evaluate``
prints this table over the probe for every headline ordering.

:func:`select_ordering` is that table over the NQ probe workload
(:data:`PROBE`), followed by an argmin of amortised seconds at the
stated query volume.  It is exposed as the registry ordering ``auto``
(hence ``--ordering auto`` everywhere a CLI accepts an ordering).
Cycles are deterministic, so the decision is stable except when two
candidates' amortised costs sit within wall-clock measurement noise —
in which case either choice is equivalent under the model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.algorithms import base as algorithms
from repro.cache import CacheStats
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.graph.permute import relabel
from repro.ordering.base import OrderingConfig
from repro.ordering.gorder import DEFAULT_WINDOW
from repro.ordering.predictors import (
    StructuralPredictors,
    compute_predictors,
)

#: Clock used to convert simulated cycles into seconds for
#: amortisation (a mid-range 2.6 GHz core, like the replication's).
CLOCK_HZ = 2.6e9

#: Default modelled workload: a query-heavy serving deployment.  High
#: enough that on the acceptance datasets the cycle term dominates
#: ordering cost, so the default decision tracks the locality oracle.
DEFAULT_QUERY_VOLUME = 100_000


@dataclass(frozen=True)
class Workload:
    """A repeatable mix of algorithm runs over one graph.

    A node id in a step's parameters (an SP source, Diam sources)
    names a node of the original graph: each arrangement maps it
    through its permutation, as :func:`~repro.perf.simulate` does, so
    every arrangement does the same logical work.
    """

    name: str
    steps: tuple[tuple[str, dict], ...]

    @classmethod
    def of(cls, name: str, *steps) -> "Workload":
        """Build from ``("algorithm", {params})`` or ``"algorithm"``."""
        normalised: list[tuple[str, dict]] = []
        for step in steps:
            if isinstance(step, str):
                normalised.append((step, {}))
            else:
                algorithm, params = step
                normalised.append((algorithm, dict(params)))
        if not normalised:
            raise InvalidParameterError(
                "a workload needs at least one step"
            )
        for algorithm, _ in normalised:
            algorithms.spec(algorithm)  # validate names eagerly
        return cls(name, tuple(normalised))

    def run(
        self, graph: CSRGraph, perm: np.ndarray
    ) -> tuple[float, CacheStats]:
        """Total simulated cycles and summed cache statistics of one
        workload execution on ``graph`` arranged by ``perm``, each
        step on a cold scaled hierarchy."""
        arranged = relabel(graph, perm)
        cycles = 0.0
        stats = CacheStats.zero()
        for algorithm, params in self.steps:
            cost, step_stats = algorithms.run_arranged(
                algorithm, arranged, perm, params
            )
            cycles += cost.total_cycles
            stats += step_stats
        return cycles, stats


#: The selector's probe: one cold NQ run, a query's access pattern.
#: Built without :meth:`Workload.of`'s name check, which would need
#: the algorithm registry while it is still importing.
PROBE = Workload("nq-probe", (("nq", {}),))


@dataclass(frozen=True)
class AmortizationRow:
    """One candidate measured against a workload."""

    config: OrderingConfig
    #: Simulated cycles of one workload run on the arranged graph.
    cycles: float
    #: Cache statistics of that run, summed over its steps.
    stats: CacheStats
    #: Baseline cycles over these cycles.
    speedup: float
    ordering_seconds: float
    #: Workload runs needed to pay the ordering cost back against the
    #: baseline: 0 for the baseline itself, ``inf`` when the candidate
    #: never catches up.
    break_even_runs: float
    #: The arrangement that was measured.
    perm: np.ndarray = field(repr=False, compare=False)

    @property
    def ordering(self) -> str:
        return self.config.ordering

    @property
    def label(self) -> str:
        return self.config.label

    def amortised_seconds(self, volume: float) -> float:
        """Modelled seconds of ordering once and running the workload
        ``volume`` times."""
        return self.ordering_seconds + volume * self.cycles / CLOCK_HZ

    def as_dict(self) -> dict:
        return {
            "ordering": self.ordering,
            "label": self.label,
            "params": dict(self.config.params),
            "cycles": self.cycles,
            "speedup": self.speedup,
            "ordering_seconds": self.ordering_seconds,
            # JSON has no Infinity; null = never catches up.
            "break_even_runs": (
                self.break_even_runs
                if math.isfinite(self.break_even_runs)
                else None
            ),
        }


def amortization_table(
    workload: Workload,
    graph: CSRGraph,
    configs,
    seed: int = 0,
) -> list[AmortizationRow]:
    """Measure each candidate against ``workload``; the first is the
    baseline.

    ``configs`` are :class:`OrderingConfig`\\ s or registry names; a
    name ``n`` means ``OrderingConfig(n, seed)``.
    """
    configs = [
        config if isinstance(config, OrderingConfig)
        else OrderingConfig(config, seed)
        for config in configs
    ]
    if not configs:
        raise InvalidParameterError(
            "an amortisation table needs at least one ordering"
        )
    rows: list[AmortizationRow] = []
    for config in configs:
        start = time.perf_counter()
        perm = config.compute(graph)
        ordering_seconds = time.perf_counter() - start
        cycles, stats = workload.run(graph, perm)
        baseline = rows[0].cycles if rows else cycles
        saved_seconds = (baseline - cycles) / CLOCK_HZ
        if not rows:
            break_even = 0.0
        elif saved_seconds > 0:
            break_even = ordering_seconds / saved_seconds
        else:
            break_even = float("inf")
        rows.append(
            AmortizationRow(
                config=config,
                cycles=cycles,
                stats=stats,
                speedup=baseline / cycles if cycles else float("inf"),
                ordering_seconds=ordering_seconds,
                break_even_runs=break_even,
                perm=perm,
            )
        )
    return rows


@dataclass(frozen=True)
class SelectionDecision:
    """The full record of one selection."""

    dataset: str
    query_volume: float
    #: Structural signals reported to explain the decision; no
    #: decision reads them.
    predictors: StructuralPredictors
    #: The NQ probe table, baseline first.
    rows: tuple[AmortizationRow, ...]
    chosen: AmortizationRow
    #: Label of the minimum-probe-cycles candidate (the locality
    #: oracle the selector is judged against).
    oracle: str
    selection_seconds: float

    @property
    def oracle_row(self) -> AmortizationRow:
        for row in self.rows:
            if row.label == self.oracle:
                return row
        raise InvalidParameterError(  # pragma: no cover - invariant
            f"oracle {self.oracle!r} missing from rows"
        )

    def row_dict(self, row: AmortizationRow) -> dict:
        """``row`` as JSON, with its amortised seconds at this
        decision's query volume."""
        return {
            **row.as_dict(),
            "amortised_seconds": row.amortised_seconds(self.query_volume),
        }

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "query_volume": self.query_volume,
            "clock_hz": CLOCK_HZ,
            "predictors": self.predictors.as_dict(),
            "rows": [self.row_dict(row) for row in self.rows],
            "chosen": self.row_dict(self.chosen),
            "oracle": self.oracle,
            "selection_seconds": self.selection_seconds,
        }


def default_candidates(
    window: int = DEFAULT_WINDOW,
) -> tuple[OrderingConfig, ...]:
    """The default frontier: baseline, lightweights, Gorder.

    ``original`` comes first: it is the amortisation baseline.
    """
    return (
        OrderingConfig("original"),
        OrderingConfig("hubcluster"),
        OrderingConfig("hubsort"),
        OrderingConfig("dbg"),
        OrderingConfig("boba"),
        OrderingConfig("gorder", params={"window": window}),
    )


def select_ordering(
    graph: CSRGraph,
    query_volume: float = DEFAULT_QUERY_VOLUME,
    candidates: tuple[OrderingConfig, ...] | None = None,
    seed: int = 0,
) -> SelectionDecision:
    """Pick the candidate with the least amortised seconds for
    ``query_volume`` NQ probes.

    A candidate is an ordering and its parameters: ``seed`` seeds
    every candidate, replacing the seed its config carries.
    """
    if query_volume < 0:
        raise InvalidParameterError(
            f"query_volume must be non-negative, got {query_volume}"
        )
    configs = tuple(
        OrderingConfig(config.ordering, seed, config.params)
        for config in (
            candidates if candidates is not None
            else default_candidates()
        )
    )
    name = graph.name or "graph"
    started = time.perf_counter()
    with obs.span(
        "ordering.select",
        dataset=name, n=graph.num_nodes, m=graph.num_edges,
        query_volume=query_volume, candidates=len(configs),
    ):
        predictors = compute_predictors(graph)
        rows = amortization_table(PROBE, graph, configs)
        chosen = min(
            rows, key=lambda row: row.amortised_seconds(query_volume)
        )
        oracle = min(rows, key=lambda row: row.cycles)
        decision = SelectionDecision(
            dataset=name,
            query_volume=float(query_volume),
            predictors=predictors,
            rows=tuple(rows),
            chosen=chosen,
            oracle=oracle.label,
            selection_seconds=time.perf_counter() - started,
        )
        obs.inc("select.decisions")
        obs.event(
            "ordering.select.decision",
            dataset=name,
            chosen=chosen.label,
            oracle=oracle.label,
            probe_cycles=chosen.cycles,
            break_even_queries=chosen.break_even_runs,
            query_volume=float(query_volume),
            probed=len(rows),
            seconds=round(decision.selection_seconds, 6),
        )
    return decision
