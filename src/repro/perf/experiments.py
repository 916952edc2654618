"""Experiment definitions: profiles + one function per paper artifact.

Profiles bound the experiment matrix so the full reproduction scales
from a quick smoke run to the complete 9 x 9 x 10 sweep:

* ``quick``    — 3 datasets, short PR/Diam; minutes.  CI-friendly.
* ``standard`` — 5 datasets covering both categories; the default.
* ``full``     — all 9 datasets, the complete matrix; the long run
  recorded in EXPERIMENTS.md.

Select with the ``REPRO_PROFILE`` environment variable or pass a
profile object explicitly.  All experiments are deterministic for a
fixed profile (seeded generators, seeded source draws).
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.algorithms import ALGORITHM_NAMES, pick_sources
from repro.algorithms import base as algorithms_base
from repro.cache import CacheHierarchy, Memory, scaled_hierarchy
from repro.errors import InvalidParameterError
from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.graph.permute import relabel
from repro.ordering import ORDERING_NAMES
from repro.ordering.gorder import gorder_order
from repro.ordering.metrics import minla_energy, minloga_energy
from repro.ordering.minla import minla_order, minloga_order
from repro.perf.runner import (
    GLOBAL_ORDERING_CACHE,
    OrderingCache,
    RunResult,
    run_cell,
    time_ordering,
)


@dataclass(frozen=True)
class Profile:
    """Bounds for one experiment sweep."""

    name: str
    datasets: tuple[str, ...]
    orderings: tuple[str, ...] = ORDERING_NAMES
    algorithms: tuple[str, ...] = ALGORITHM_NAMES
    pr_iterations: int = 3
    diam_num_sources: int = 4
    seed: int = 7
    #: Seeds used for non-deterministic orderings (random, minla,
    #: minloga); the run with median cycles represents the cell, the
    #: replication's repetition-with-median methodology.
    random_seeds: tuple[int, ...] = (7,)
    #: Keyword arguments forwarded to every ordering computation
    #: (signature-filtered per ordering), as sorted (name, value)
    #: pairs so the profile stays hashable and JSON-roundtrippable.
    #: The CLI's ``--workers``/``--query-volume`` flags land here.
    ordering_params: tuple[tuple[str, object], ...] = ()
    #: Cache simulation backend for every cell
    #: (:data:`repro.cache.layout.CACHE_BACKENDS`).  Profiles default
    #: to the vectorised ``"replay"`` path — counter-identical to
    #: ``"step"`` for the all-LRU profile hierarchies, much faster.
    #: The CLI's ``--cache-backend`` flag overrides it.
    cache_backend: str = "replay"
    #: Trace emitter for every cell
    #: (:data:`repro.algorithms.base.ALGO_BACKENDS`): the vectorised
    #: frontier ``"runtime"`` or the scalar-loop ``"scalar"`` oracle
    #: (counter-identical).  The CLI's ``--algo-backend`` flag
    #: overrides it.
    algo_backend: str = "runtime"

    def hierarchy(self) -> CacheHierarchy:
        """A fresh cache hierarchy for one run."""
        return scaled_hierarchy()


PROFILES: dict[str, Profile] = {
    "quick": Profile(
        name="quick",
        datasets=("epinion", "pokec", "wiki"),
        pr_iterations=2,
        diam_num_sources=2,
    ),
    "standard": Profile(
        name="standard",
        datasets=("epinion", "pokec", "flickr", "wiki", "sdarc"),
        pr_iterations=3,
        diam_num_sources=4,
    ),
    "full": Profile(
        name="full",
        datasets=datasets.DATASET_NAMES,
        pr_iterations=3,
        diam_num_sources=4,
        random_seeds=(5, 7, 9),
    ),
}


def get_profile(name: str | None = None) -> Profile:
    """Resolve a profile by name, ``REPRO_PROFILE``, or the default.

    The ``REPRO_DATASETS`` environment variable (comma-separated
    dataset names) narrows the chosen profile's dataset list — handy
    for focusing a long benchmark run on one or two graphs.
    """
    chosen = name or os.environ.get("REPRO_PROFILE", "quick")
    try:
        profile = PROFILES[chosen]
    except KeyError:
        known = ", ".join(PROFILES)
        raise InvalidParameterError(
            f"unknown profile {chosen!r}; known profiles: {known}"
        ) from None
    override = os.environ.get("REPRO_DATASETS")
    if override:
        names = tuple(
            part.strip() for part in override.split(",") if part.strip()
        )
        for dataset_name in names:
            datasets.spec(dataset_name)  # validate eagerly
        if not names:
            raise InvalidParameterError(
                "REPRO_DATASETS is set but names no datasets"
            )
        profile = dataclasses.replace(profile, datasets=names)
    return profile


def algorithm_params(
    algorithm: str, graph: CSRGraph, profile: Profile
) -> dict:
    """Logical (pre-relabeling) parameters for one algorithm run."""
    rng = np.random.default_rng(profile.seed)
    if algorithm == "pr":
        return {"iterations": profile.pr_iterations}
    if algorithm == "sp":
        return {"source": int(rng.integers(0, graph.num_nodes))}
    if algorithm == "diam":
        sources = pick_sources(
            graph, profile.diam_num_sources, seed=profile.seed
        )
        return {"sources": [int(s) for s in sources]}
    return {}


# ----------------------------------------------------------------------
# F5 / F6 / S1: the speedup matrix
# ----------------------------------------------------------------------
def speedup_matrix(
    profile: Profile,
    cache: OrderingCache | None = None,
    engine=None,
) -> dict[tuple[str, str, str], RunResult]:
    """All (dataset, algorithm, ordering) cells of the profile.

    Keys are ``(dataset, algorithm, ordering)``; the replication's
    Figure 5 divides each cell's cycles by the Gorder cell of the same
    series.  Progress is reported per cell through :mod:`repro.obs`
    (enable with ``--log-level info`` / ``-v`` on the CLI).

    Passing a :class:`repro.perf.engine.SweepEngine` routes the run
    through the fault-tolerant engine (per-cell guards, graceful
    degradation) and returns its aggregated, possibly partial matrix;
    for checkpoint/resume use :meth:`SweepEngine.run` directly.
    """
    if engine is not None:
        return engine.run(profile).matrix()
    # None check, not truthiness: an empty OrderingCache is falsy.
    cache = GLOBAL_ORDERING_CACHE if cache is None else cache
    results: dict[tuple[str, str, str], RunResult] = {}
    total = (
        len(profile.datasets)
        * len(profile.algorithms)
        * len(profile.orderings)
    )
    done = 0
    with obs.span(
        "experiment.speedup_matrix", profile=profile.name, cells=total
    ):
        for dataset_name in profile.datasets:
            graph = datasets.load(dataset_name)
            for algorithm in profile.algorithms:
                params = algorithm_params(algorithm, graph, profile)
                for ordering in profile.orderings:
                    result = _representative_run(
                        graph, algorithm, ordering, params, profile,
                        cache, dataset_name,
                    )
                    results[(dataset_name, algorithm, ordering)] = result
                    done += 1
                    obs.progress(
                        "speedup.cell",
                        dataset=dataset_name,
                        algorithm=algorithm,
                        ordering=ordering,
                        mcycles=round(result.cycles / 1e6, 1),
                        cell=done,
                        cells=total,
                    )
    return results


def _representative_run(
    graph, algorithm, ordering, params, profile, cache, dataset_name
) -> RunResult:
    """One cell; non-deterministic orderings take the median run.

    Deterministic orderings run once.  For seeded ones the cell is
    represented by the run whose cycle count is the median over
    ``profile.random_seeds`` — the replication's repetition protocol.
    """
    from repro.ordering import base as ordering_base

    deterministic = ordering_base.spec(ordering).deterministic
    seeds = (
        (profile.seed,) if deterministic else profile.random_seeds
    )
    runs = [
        run_cell(
            graph,
            algorithm,
            ordering,
            seed=seed,
            params=params,
            hierarchy=profile.hierarchy(),
            cache=cache,
            dataset_name=dataset_name,
            ordering_params=dict(profile.ordering_params),
            cache_backend=profile.cache_backend,
            algo_backend=profile.algo_backend,
        )
        for seed in seeds
    ]
    runs.sort(key=lambda run: run.cycles)
    return runs[len(runs) // 2]


def relative_to_gorder(
    matrix: dict[tuple[str, str, str], RunResult],
) -> dict[tuple[str, str, str], float]:
    """Each cell's cycles divided by its series' Gorder cycles.

    Tolerates partial matrices (a degraded fault-tolerant sweep):
    cells whose series lacks a Gorder reference are omitted rather
    than raising, so the remaining series still render.
    """
    relative: dict[tuple[str, str, str], float] = {}
    for (dataset, algorithm, ordering), result in matrix.items():
        reference = matrix.get((dataset, algorithm, "gorder"))
        if reference is None or reference.cycles == 0:
            continue
        relative[(dataset, algorithm, ordering)] = (
            result.cycles / reference.cycles
        )
    return relative


def rank_orderings(
    matrix: dict[tuple[str, str, str], RunResult],
) -> dict[str, list[int]]:
    """Replication Figure 6: rank histogram per ordering.

    ``result[ordering][r]`` counts the series in which the ordering
    was the (r+1)-th fastest.
    """
    series: dict[tuple[str, str], list[tuple[float, str]]] = {}
    for (dataset, algorithm, ordering), result in matrix.items():
        series.setdefault((dataset, algorithm), []).append(
            (result.cycles, ordering)
        )
    orderings = sorted({key[2] for key in matrix})
    histogram = {name: [0] * len(orderings) for name in orderings}
    for entries in series.values():
        entries.sort()
        for rank, (_, ordering) in enumerate(entries):
            histogram[ordering][rank] += 1
    return histogram


# ----------------------------------------------------------------------
# F1: CPU execute vs cache stall
# ----------------------------------------------------------------------
def cache_stall_split(
    profile: Profile,
    dataset_name: str = "sdarc",
    orderings: tuple[str, str] = ("original", "gorder"),
) -> dict[tuple[str, str], RunResult]:
    """Figure 1 data: per algorithm, execute/stall for two orderings."""
    graph = datasets.load(dataset_name)
    results: dict[tuple[str, str], RunResult] = {}
    for algorithm in profile.algorithms:
        params = algorithm_params(algorithm, graph, profile)
        for ordering in orderings:
            results[(algorithm, ordering)] = run_cell(
                graph,
                algorithm,
                ordering,
                seed=profile.seed,
                params=params,
                hierarchy=profile.hierarchy(),
                dataset_name=dataset_name,
                cache_backend=profile.cache_backend,
                algo_backend=profile.algo_backend,
            )
    return results


# ----------------------------------------------------------------------
# T2: ordering computation time
# ----------------------------------------------------------------------
def ordering_times(
    profile: Profile, repeats: int = 1
) -> dict[tuple[str, str], float]:
    """Replication Table 2: seconds to compute each ordering."""
    times: dict[tuple[str, str], float] = {}
    with obs.span("experiment.ordering_times", profile=profile.name):
        for dataset_name in profile.datasets:
            graph = datasets.load(dataset_name)
            for ordering in profile.orderings:
                times[(ordering, dataset_name)] = time_ordering(
                    graph,
                    ordering,
                    seed=profile.seed,
                    repeats=repeats,
                    ordering_params=dict(profile.ordering_params),
                )
                obs.progress(
                    "ordering_time.cell",
                    dataset=dataset_name,
                    ordering=ordering,
                    seconds=round(times[(ordering, dataset_name)], 4),
                )
    return times


# ----------------------------------------------------------------------
# T3: cache statistics for PageRank
# ----------------------------------------------------------------------
def cache_stats_table(
    profile: Profile, dataset_name: str
) -> dict[str, RunResult]:
    """Replication Table 3 rows: PR cache stats per ordering."""
    graph = datasets.load(dataset_name)
    params = algorithm_params("pr", graph, profile)
    return {
        ordering: run_cell(
            graph,
            "pr",
            ordering,
            seed=profile.seed,
            params=params,
            hierarchy=profile.hierarchy(),
            dataset_name=dataset_name,
            cache_backend=profile.cache_backend,
            algo_backend=profile.algo_backend,
        )
        for ordering in profile.orderings
    }


# ----------------------------------------------------------------------
# F4: Gorder window-size sweep
# ----------------------------------------------------------------------
def window_sweep(
    profile: Profile,
    dataset_name: str = "flickr",
    windows: tuple[int, ...] = (1, 2, 3, 5, 8, 16, 64, 256, 1024),
) -> dict[int, RunResult]:
    """Replication Figure 4: PR cycles per Gorder window size."""
    graph = datasets.load(dataset_name)
    params = algorithm_params("pr", graph, profile)
    pagerank_spec = algorithms_base.spec("pr")
    results: dict[int, RunResult] = {}
    for window in windows:
        with obs.span(
            "ordering.compute", ordering="gorder", window=window,
            dataset=dataset_name, n=graph.num_nodes,
        ):
            start = time.perf_counter()
            perm = gorder_order(graph, window=window)
            ordering_seconds = time.perf_counter() - start
        memory = Memory(
            profile.hierarchy(), cache_backend=profile.cache_backend
        )
        with obs.span(
            "run.simulate", dataset=dataset_name, algorithm="pr",
            ordering=f"gorder(w={window})",
            cache_backend=profile.cache_backend,
        ):
            pagerank_spec.traced(relabel(graph, perm), memory, **params)
        obs.progress(
            "window.cell", window=window,
            mcycles=round(memory.cost().total_cycles / 1e6, 1),
        )
        results[window] = RunResult(
            dataset=dataset_name,
            algorithm="pr",
            ordering=f"gorder(w={window})",
            cost=memory.cost(),
            stats=memory.stats(),
            ordering_seconds=ordering_seconds,
            simulation_seconds=0.0,
        )
    return results


# ----------------------------------------------------------------------
# F3: simulated-annealing tuning heat map
# ----------------------------------------------------------------------
def annealing_sweep(
    dataset_name: str = "epinion",
    step_factors: tuple[float, ...] = (0.25, 1.0, 4.0),
    energy_factors: tuple[float, ...] = (0.0, 0.01, 1.0, 100.0),
    logarithmic: bool = False,
    seed: int = 7,
) -> dict[tuple[float, float], float]:
    """Replication Figure 3: final energy per (steps, k) combination.

    ``step_factors`` scale the default step budget ``m``;
    ``energy_factors`` scale the default standard energy ``m / n``
    (0 = pure local search).  Returns the achieved energy.
    """
    graph = datasets.load(dataset_name)
    energy = minloga_energy if logarithmic else minla_energy
    order = minloga_order if logarithmic else minla_order
    results: dict[tuple[float, float], float] = {}
    for step_factor in step_factors:
        steps = max(1, int(graph.num_edges * step_factor))
        for energy_factor in energy_factors:
            k = energy_factor * graph.num_edges / graph.num_nodes
            perm = order(
                graph, seed=seed, steps=steps, standard_energy=k
            )
            results[(step_factor, energy_factor)] = float(
                energy(graph, perm)
            )
    return results


# ----------------------------------------------------------------------
# T1: dataset features
# ----------------------------------------------------------------------
def dataset_table() -> list[dict[str, object]]:
    """Replication Table 1: analogue + paper sizes for every dataset."""
    rows = []
    for name in datasets.DATASET_NAMES:
        spec = datasets.spec(name)
        graph = datasets.load(name)
        rows.append(
            {
                "dataset": name,
                "category": spec.category,
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "paper_nodes_M": spec.paper_nodes,
                "paper_edges_M": spec.paper_edges,
                "source": spec.source,
            }
        )
    return rows
