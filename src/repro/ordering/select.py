"""Adaptive ordering selection on the cost/quality frontier.

The paper's Gorder wins on locality but pays a heavyweight ordering
cost; the lightweight passes of :mod:`repro.ordering.lightweight`
recover much of the benefit at a fraction of the cost, and which one
wins depends on the graph.  This module closes the loop with an
explicit amortisation model:

    total_seconds(candidate) = ordering_seconds(candidate)
        + query_volume * probe_cycles(candidate) / clock_hz

Each candidate configuration (ordering + window) is
actually run — its wall-time measured, its locality probed with the
simulated-cache NQ probe of :mod:`repro.ordering.evaluation` — and
the selector picks the configuration minimising modelled total cost
for the stated query volume.  Structural predictors
(:mod:`repro.ordering.predictors`) gate the expensive part: a
heavyweight candidate is only probed when the predicted recoverable
locality at this query volume could plausibly repay its cost.

The selector is exposed as the registry ordering ``auto`` (hence
``--ordering auto`` everywhere a CLI accepts an ordering, and as a
logical key in the runner memo and serve daemon stores).  Probe
cycles are deterministic, so the decision is stable except when two
candidates' modelled costs sit within wall-clock measurement noise —
in which case either choice is equivalent under the model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.ordering import base as registry
from repro.ordering.evaluation import probe_arrangement
from repro.ordering.gorder import DEFAULT_WINDOW
from repro.ordering.predictors import (
    StructuralPredictors,
    compute_predictors,
    predicted_gain_fraction,
)

#: Clock used to convert simulated cycles into seconds for
#: amortisation (a mid-range 2.6 GHz core, like the replication's).
DEFAULT_CLOCK_HZ = 2.6e9

#: Default modelled workload: a query-heavy serving deployment.  High
#: enough that on the acceptance datasets the cycle term dominates
#: ordering cost, so the default decision tracks the locality oracle.
DEFAULT_QUERY_VOLUME = 100_000

#: Orderings whose cost is large enough to deserve a predictor gate.
HEAVYWEIGHT_ORDERINGS = frozenset(
    {"gorder", "gorder-lazy", "gorder-part", "minla", "minloga"}
)

#: A heavyweight ordering costs at least this multiple of the
#: cheapest measured lightweight pass — the optimistic floor the
#: predictor gate compares against the modelled gain.
HEAVY_COST_MULTIPLE = 10.0


@dataclass(frozen=True)
class CandidateConfig:
    """One configuration the selector may pick.

    ``window`` is forwarded to the ordering through the registry's
    signature filter, so it reaches only the orderings that declare
    it.
    """

    ordering: str
    window: int | None = None

    @property
    def label(self) -> str:
        if self.window is None:
            return self.ordering
        return f"{self.ordering}[w={self.window}]"

    def ordering_params(self) -> dict:
        if self.window is None:
            return {}
        return {"window": self.window}


@dataclass(frozen=True)
class CandidateProbe:
    """Measured cost/quality point for one candidate."""

    ordering: str
    label: str
    window: int | None
    ordering_seconds: float
    probe_cycles: float
    #: Modelled total seconds at the decision's query volume.
    amortised_seconds: float
    #: Queries needed before this candidate beats the baseline
    #: arrangement; 0 for the baseline itself, ``inf`` when the
    #: candidate never catches up.
    break_even_queries: float

    def as_dict(self) -> dict:
        return {
            "ordering": self.ordering,
            "label": self.label,
            "window": self.window,
            "ordering_seconds": self.ordering_seconds,
            "probe_cycles": self.probe_cycles,
            "amortised_seconds": self.amortised_seconds,
            # JSON has no Infinity; null = never catches up.
            "break_even_queries": (
                self.break_even_queries
                if math.isfinite(self.break_even_queries)
                else None
            ),
        }


@dataclass(frozen=True)
class SelectionDecision:
    """The full record of one adaptive selection."""

    dataset: str
    query_volume: float
    clock_hz: float
    predictors: StructuralPredictors
    probes: tuple[CandidateProbe, ...]
    #: Candidate labels skipped by the predictor gate.
    pruned: tuple[str, ...]
    chosen: CandidateProbe
    #: Label of the minimum-probe-cycles candidate among those
    #: measured (the locality oracle the selector is judged against).
    oracle: str
    selection_seconds: float

    @property
    def oracle_probe(self) -> CandidateProbe:
        for probe in self.probes:
            if probe.label == self.oracle:
                return probe
        raise InvalidParameterError(  # pragma: no cover - invariant
            f"oracle {self.oracle!r} missing from probes"
        )

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "query_volume": self.query_volume,
            "clock_hz": self.clock_hz,
            "predictors": self.predictors.as_dict(),
            "probes": [probe.as_dict() for probe in self.probes],
            "pruned": list(self.pruned),
            "chosen": self.chosen.as_dict(),
            "oracle": self.oracle,
            "selection_seconds": self.selection_seconds,
        }


def default_candidates(
    window: int = DEFAULT_WINDOW,
) -> tuple[CandidateConfig, ...]:
    """The default frontier: baseline, lightweights, Gorder.

    ``original`` must come first — it is the amortisation baseline.
    """
    return (
        CandidateConfig("original"),
        CandidateConfig("hubcluster"),
        CandidateConfig("hubsort"),
        CandidateConfig("dbg"),
        CandidateConfig("boba"),
        CandidateConfig("gorder", window=window),
    )


def _probe_candidate(
    graph: CSRGraph,
    config: CandidateConfig,
    seed: int,
    cache_backend: str,
    algo_backend: str,
) -> tuple[np.ndarray, float, float]:
    """``(perm, ordering_seconds, probe_cycles)`` for one candidate."""
    start = time.perf_counter()
    perm = registry.compute_ordering(
        config.ordering, graph, seed=seed, **config.ordering_params()
    )
    ordering_seconds = time.perf_counter() - start
    cycles, _ = probe_arrangement(
        graph, perm,
        cache_backend=cache_backend, algo_backend=algo_backend,
    )
    return perm, ordering_seconds, float(cycles)


def _select(
    graph: CSRGraph,
    query_volume: float = DEFAULT_QUERY_VOLUME,
    candidates: tuple[CandidateConfig, ...] | None = None,
    seed: int = 0,
    cache_backend: str = "replay",
    algo_backend: str = "runtime",
    clock_hz: float = DEFAULT_CLOCK_HZ,
    dataset: str = "",
) -> tuple[SelectionDecision, np.ndarray]:
    """Run the selection; return the decision and the chosen perm."""
    if query_volume < 0:
        raise InvalidParameterError(
            f"query_volume must be non-negative, got {query_volume}"
        )
    if clock_hz <= 0:
        raise InvalidParameterError(
            f"clock_hz must be positive, got {clock_hz}"
        )
    configs = tuple(
        candidates if candidates is not None else default_candidates()
    )
    if not configs:
        raise InvalidParameterError(
            "the selector needs at least one candidate"
        )
    name = dataset or graph.name or "graph"
    started = time.perf_counter()
    with obs.span(
        "ordering.select",
        dataset=name, n=graph.num_nodes, m=graph.num_edges,
        query_volume=query_volume, candidates=len(configs),
    ):
        predictors = compute_predictors(graph)
        gain = predicted_gain_fraction(predictors)

        probes: list[CandidateProbe] = []
        perms: dict[str, np.ndarray] = {}
        pruned: list[str] = []
        baseline_cycles: float | None = None
        cheapest_seconds = float("inf")
        for config in configs:
            heavy = config.ordering in HEAVYWEIGHT_ORDERINGS
            if (
                heavy
                and baseline_cycles is not None
                and cheapest_seconds < float("inf")
            ):
                # Optimistic repayment check: even at the predicted
                # gain, a heavyweight pass costing at least
                # HEAVY_COST_MULTIPLE measured lightweight passes
                # cannot pay for itself below this volume — skip
                # probing it.
                gain_seconds = (
                    query_volume * gain * baseline_cycles / clock_hz
                )
                floor = HEAVY_COST_MULTIPLE * cheapest_seconds
                if gain_seconds < floor:
                    pruned.append(config.label)
                    obs.event(
                        "ordering.select.pruned",
                        dataset=name, candidate=config.label,
                        gain_seconds=round(gain_seconds, 6),
                        cost_floor=round(floor, 6),
                    )
                    continue
            perm, seconds, cycles = _probe_candidate(
                graph, config, seed, cache_backend, algo_backend
            )
            if baseline_cycles is None:
                baseline_cycles = cycles
            if config.ordering != "original":
                # "original" is free; only real passes inform the
                # heavyweight cost floor.
                cheapest_seconds = min(cheapest_seconds, seconds)
            saved_per_query = (baseline_cycles - cycles) / clock_hz
            if probes and saved_per_query > 0:
                break_even = seconds / saved_per_query
            elif probes:
                break_even = float("inf")
            else:
                break_even = 0.0
            probe = CandidateProbe(
                ordering=config.ordering,
                label=config.label,
                window=config.window,
                ordering_seconds=seconds,
                probe_cycles=cycles,
                amortised_seconds=(
                    seconds + query_volume * cycles / clock_hz
                ),
                break_even_queries=break_even,
            )
            probes.append(probe)
            perms[config.label] = perm

        chosen = probes[0]
        for probe in probes[1:]:
            if probe.amortised_seconds < chosen.amortised_seconds:
                chosen = probe
        oracle = min(probes, key=lambda probe: probe.probe_cycles)
        decision = SelectionDecision(
            dataset=name,
            query_volume=float(query_volume),
            clock_hz=clock_hz,
            predictors=predictors,
            probes=tuple(probes),
            pruned=tuple(pruned),
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
            probe_cycles=chosen.probe_cycles,
            break_even_queries=chosen.break_even_queries,
            query_volume=float(query_volume),
            probed=len(probes),
            pruned=len(pruned),
            seconds=round(decision.selection_seconds, 6),
        )
    return decision, perms[chosen.label]


def select_ordering(
    graph: CSRGraph,
    query_volume: float = DEFAULT_QUERY_VOLUME,
    candidates: tuple[CandidateConfig, ...] | None = None,
    seed: int = 0,
    cache_backend: str = "replay",
    algo_backend: str = "runtime",
    clock_hz: float = DEFAULT_CLOCK_HZ,
    dataset: str = "",
) -> SelectionDecision:
    """Pick the best ordering configuration for this workload."""
    decision, _ = _select(
        graph,
        query_volume=query_volume,
        candidates=candidates,
        seed=seed,
        cache_backend=cache_backend,
        algo_backend=algo_backend,
        clock_hz=clock_hz,
        dataset=dataset,
    )
    return decision


def auto_order(
    graph: CSRGraph,
    seed: int = 0,
    query_volume: float = DEFAULT_QUERY_VOLUME,
    clock_hz: float = DEFAULT_CLOCK_HZ,
    cache_backend: str = "replay",
    algo_backend: str = "runtime",
    window: int = DEFAULT_WINDOW,
    candidates: tuple[CandidateConfig, ...] | None = None,
    dataset: str = "",
) -> np.ndarray:
    """The registry ordering ``auto``: select, then arrange.

    ``window`` parameterises the default candidate set and is ignored
    when ``candidates`` is given.  Returns the chosen arrangement —
    the permutation computed during probing, not a recomputation.
    """
    if candidates is None:
        candidates = default_candidates(window=window)
    _, perm = _select(
        graph,
        query_volume=query_volume,
        candidates=tuple(candidates),
        seed=seed,
        cache_backend=cache_backend,
        algo_backend=algo_backend,
        clock_hz=clock_hz,
        dataset=dataset,
    )
    return perm
