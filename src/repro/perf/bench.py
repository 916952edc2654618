"""Benchmark-regression harness for the Gorder kernel.

Times the production (batched) greedy kernel against the literal-loop
oracle :func:`~repro.oracles.gorder_sequence_reference` (plus
the partitioned multiprocess ordering) on a deterministic generated
graph, verifies they agree byte-for-byte, and emits a machine-readable
``BENCH_gorder.json`` so every future change has a perf trajectory to
compare against.  Schema (version 1, documented in
``docs/performance.md``)::

    {
      "schema_version": 1,
      "bench": "gorder_kernel",
      "quick": bool,
      "manifest": {...},             # repro.obs.run_manifest()
      "graph": {"generator", "nodes", "edges", "edges_per_node", "seed"},
      "window": int,
      "kernels": {
        "loop":    {"seconds", "heap_pops", "unit_updates",
                    "updates_per_second"},   # the reference oracle
        "batched": {...}                      # same fields
      },
      "speedup_batched_vs_loop": float,
      "identical": true,             # divergence raises instead
      "partitioned": {               # null when skipped
        "num_parts", "workers", "workers_1_seconds",
        "workers_n_seconds", "speedup", "identical"
      }
    }

Entry points: the ``repro-gorder bench`` CLI subcommand and the
pytest harness ``benchmarks/bench_gorder_kernel.py`` both call
:func:`run_gorder_bench`.

The module also hosts the **cache trace-replay benchmark**
(:func:`run_cache_bench`, ``BENCH_cache.json``): a traced PageRank
records one access trace, then the scalar path
(:meth:`CacheHierarchy.step_trace`) and the vectorised path
(:meth:`CacheHierarchy.replay`) simulate that same trace; the harness
enforces identical serving levels and per-level counters before it
reports a speedup.  Schema (version 1)::

    {
      "schema_version": 1,
      "bench": "cache_replay",
      "quick": bool,
      "manifest": {...},
      "workload": {"algorithm", "dataset", "iterations", "hierarchy",
                   "accesses", "demand_accesses", "total_refs"},
      "backends": {
        "step":   {"seconds", "accesses_per_second"},
        "replay": {"seconds", "accesses_per_second"}
      },
      "speedup_replay_vs_step": float,   # the headline number
      "level_counts": [...],             # identical across backends
      "identical": true,                 # divergence raises instead
      "end_to_end": {                    # record+simulate wall clock
        "step_seconds", "replay_seconds", "speedup"
      }
    }

Finally the **algorithm-runtime benchmark**
(:func:`run_algos_bench`, ``BENCH_algos.json``): every frontier-shaped
traced algorithm runs twice over the same dataset — once through its
scalar per-touch oracle, once through the vectorised frontier runtime
(:mod:`repro.algorithms.runtime`) — and the harness enforces identical
results *and* per-level cache counters before reporting.  The headline
timing covers the traced run through trace materialisation (algorithm
body + touch recording + buffer freeze); the downstream LRU simulation
is the same work for both emitters (it is ``cache_replay``'s subject)
and is reported separately.  Schema (version 1)::

    {
      "schema_version": 1,
      "bench": "algos_runtime",
      "quick": bool,
      "manifest": {...},
      "workload": {"dataset", "hierarchy", "iterations", "num_sources",
                   "nodes", "edges", "algorithms"},
      "algorithms": {
        "<name>": {"scalar_seconds", "runtime_seconds", "speedup",
                   "simulate_seconds": {"scalar", "runtime"},
                   "level_counts", "total_refs", "prefetched_refs",
                   "identical"}
      },
      "totals": {"scalar_seconds", "runtime_seconds"},
      "speedup_runtime_vs_scalar": float,  # the headline number
      "with_simulation": {                 # incl. LRU simulation
        "scalar_seconds", "runtime_seconds", "speedup"
      },
      "identical": true                    # divergence raises instead
    }
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.errors import InvalidParameterError, ReproError
from repro.graph.generators import social_graph
from repro.ioutil import atomic_write_text
from repro.ordering.gorder import DEFAULT_WINDOW, gorder_sequence
from repro.ordering.parallel import gorder_partitioned
from repro.perf.report import format_break_even

#: Current BENCH_gorder.json schema version.
BENCH_SCHEMA_VERSION = 1

#: Kernel counters (diffed around one counted run of the production
#: kernel, separate from the timed runs — see :func:`_counted`).
_KERNEL_COUNTERS = {
    "heap_pops": "gorder.heap_pops",
    "unit_updates": "gorder.priority_updates",
}


class BenchRegressionError(ReproError):
    """Two benchmark backends that must agree produced different
    results (Gorder sequences, or cache counters/serving levels)."""


@dataclass(frozen=True)
class GorderBenchConfig:
    """Shape of one Gorder kernel benchmark run."""

    #: Benchmark graph size (the acceptance graph is 50k nodes /
    #: ~500k+ edges; ``quick_config`` shrinks it for CI smoke).
    nodes: int = 50_000
    edges_per_node: int = 10
    window: int = DEFAULT_WINDOW
    num_parts: int = 4
    workers: int = 4
    seed: int = 3
    #: Best-of-N timing; 2 absorbs first-run allocator cold start.
    repeats: int = 2
    quick: bool = False
    include_partitioned: bool = True


def quick_config(**overrides) -> GorderBenchConfig:
    """The CI smoke configuration (small graph, same schema)."""
    settings = dict(
        nodes=2_000, edges_per_node=8, num_parts=4, workers=2,
        repeats=1, quick=True,
    )
    settings.update(overrides)
    return GorderBenchConfig(**settings)


def _timed(fn, repeats: int):
    """Best-of-``repeats`` wall time of ``fn`` (monotonic clock)."""
    start = time.perf_counter()
    result = fn()
    best = time.perf_counter() - start
    for _ in range(max(repeats, 1) - 1):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _counted(fn) -> dict:
    """Run ``fn`` once with the counter registry active and return the
    diffed kernel counters.

    Kept separate from :func:`_timed` so the timed runs leave
    telemetry exactly as the caller configured it.
    """
    owns_telemetry = not obs.enabled()
    if owns_telemetry:
        obs.configure()  # registry-only: counters without sinks
    try:
        before = dict(obs.counters())
        fn()
        after = dict(obs.counters())
    finally:
        if owns_telemetry:
            obs.shutdown()
    return {
        field: int(after.get(name, 0)) - int(before.get(name, 0))
        for field, name in _KERNEL_COUNTERS.items()
    }


def run_gorder_bench(
    config: GorderBenchConfig | None = None,
) -> dict:
    """Run the kernel benchmark and return the JSON-ready payload.

    Raises :class:`BenchRegressionError` if the production kernel and
    the loop reference (or the partitioned worker counts) disagree — a
    perf harness must never bless a wrong answer.  Only the production
    kernel publishes counters; the reference fires the same unit
    events (identical output), so both kernel entries report them.
    """
    # Deferred: importing repro.perf (every CLI and serve process)
    # must not load the oracles.
    from repro.oracles import gorder_sequence_reference

    config = config or GorderBenchConfig()
    graph = social_graph(
        config.nodes,
        edges_per_node=config.edges_per_node,
        seed=config.seed,
        name=f"bench-social-{config.nodes}",
    )
    # Force the shared lazy structures before any timing so neither
    # kernel pays the in-CSR/degree build inside its measurement.
    graph.in_adjacency
    graph.out_degrees()
    graph.in_degrees()

    # Timing runs leave telemetry exactly as the caller configured it
    # (normally disabled); counters come from one separate run.
    with obs.span(
        "bench.gorder_kernel", n=graph.num_nodes,
        m=graph.num_edges, window=config.window,
        quick=config.quick,
    ):
        run_loop = lambda: gorder_sequence_reference(  # noqa: E731
            graph, window=config.window
        )
        run_batched = lambda: gorder_sequence(  # noqa: E731
            graph, window=config.window
        )
        loop_sequence, loop_seconds = _timed(run_loop, config.repeats)
        batched_sequence, batched_seconds = _timed(
            run_batched, config.repeats
        )
        identical = bool(np.array_equal(loop_sequence, batched_sequence))
        if not identical:
            raise BenchRegressionError(
                "Gorder diverged from its loop reference on "
                f"{graph.name} (window={config.window})"
            )
        partitioned = None
        if config.include_partitioned:
            partitioned = _bench_partitioned(graph, config)
        counters = _counted(run_batched)

    loop_kernel = _kernel_payload(loop_seconds, counters)
    batched_kernel = _kernel_payload(batched_seconds, counters)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": "gorder_kernel",
        "quick": config.quick,
        "manifest": obs.run_manifest(
            seed=config.seed, command="bench",
        ),
        "graph": {
            "generator": "social_graph",
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "edges_per_node": config.edges_per_node,
            "seed": config.seed,
        },
        "window": config.window,
        "kernels": {"loop": loop_kernel, "batched": batched_kernel},
        "speedup_batched_vs_loop": (
            loop_seconds / batched_seconds if batched_seconds else None
        ),
        "identical": identical,
        "partitioned": partitioned,
    }


def _kernel_payload(seconds: float, counters: dict) -> dict:
    return {
        "seconds": seconds,
        "heap_pops": counters["heap_pops"],
        "unit_updates": counters["unit_updates"],
        "updates_per_second": (
            counters["unit_updates"] / seconds if seconds else None
        ),
    }


def _bench_partitioned(graph, config: GorderBenchConfig) -> dict:
    """Time workers=1 vs workers=N and verify they agree."""

    def run(workers: int) -> np.ndarray:
        return gorder_partitioned(
            graph,
            num_parts=config.num_parts,
            window=config.window,
            workers=workers,
        )

    serial, serial_seconds = _timed(lambda: run(1), config.repeats)
    parallel, parallel_seconds = _timed(
        lambda: run(config.workers), config.repeats
    )
    identical = bool(np.array_equal(serial, parallel))
    if not identical:
        raise BenchRegressionError(
            f"gorder_partitioned(workers={config.workers}) diverged "
            f"from workers=1 on {graph.name}"
        )
    return {
        "num_parts": config.num_parts,
        "workers": config.workers,
        "workers_1_seconds": serial_seconds,
        "workers_n_seconds": parallel_seconds,
        "speedup": (
            serial_seconds / parallel_seconds
            if parallel_seconds
            else None
        ),
        "identical": identical,
    }


# ----------------------------------------------------------------------
# Cache trace-replay benchmark
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheBenchConfig:
    """Shape of one cache trace-replay benchmark run."""

    #: Dataset whose traced PageRank supplies the access trace (the
    #: acceptance workload is the largest analogue, ``sdarc``).
    dataset: str = "sdarc"
    #: PageRank iterations for the recorded trace.
    iterations: int = 5
    #: Hierarchy the trace is simulated against: ``"paper"`` (the
    #: replication's 32KiB/256KiB/16MiB geometry) or ``"scaled"``.
    hierarchy: str = "paper"
    #: Best-of-N timing; 3 absorbs allocator cold start and the
    #: single-core host's scheduling jitter.
    repeats: int = 3
    quick: bool = False


def quick_cache_config(**overrides) -> CacheBenchConfig:
    """The CI smoke configuration (small dataset, same schema)."""
    settings = dict(
        dataset="epinion", iterations=2, hierarchy="scaled",
        repeats=1, quick=True,
    )
    settings.update(overrides)
    return CacheBenchConfig(**settings)


def _hierarchy_factory(name: str):
    from repro.cache import paper_hierarchy, scaled_hierarchy

    try:
        return {
            "paper": paper_hierarchy, "scaled": scaled_hierarchy
        }[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown bench hierarchy {name!r}; "
            "expected 'paper' or 'scaled'"
        ) from None


def _simulate_counts(hierarchy, serving, trace) -> list[int]:
    """Serving levels -> ``Memory.level_counts``-shaped counters."""
    counts = np.bincount(
        serving[trace.demand_idx],
        minlength=hierarchy.num_levels + 1,
    )
    counts = [int(c) for c in counts]
    counts[1] += trace.extra_l1
    return counts


def run_cache_bench(config: CacheBenchConfig | None = None) -> dict:
    """Run the trace-replay benchmark and return the JSON payload.

    Both backends simulate the *same* recorded traced-PageRank trace;
    :class:`BenchRegressionError` is raised unless their serving
    levels, per-level refs/misses, and assembled level counts are all
    identical — a perf harness must never bless a wrong answer.
    """
    from repro.algorithms.pagerank import pagerank_traced
    from repro.cache import Memory
    from repro.graph import datasets

    config = config or CacheBenchConfig()
    factory = _hierarchy_factory(config.hierarchy)
    graph = datasets.load(config.dataset)

    with obs.span(
        "bench.cache_replay", dataset=config.dataset,
        iterations=config.iterations, hierarchy=config.hierarchy,
        quick=config.quick,
    ):
        # One recorded trace feeds both simulation paths.
        memory = Memory(factory(), cache_backend="replay")
        pagerank_traced(graph, memory, iterations=config.iterations)
        trace = memory.recorded_trace()

        def run_step():
            hierarchy = factory()
            serving = hierarchy.step_trace(trace.lines)
            return hierarchy, serving, _simulate_counts(
                hierarchy, serving, trace
            )

        def run_replay():
            hierarchy = factory()
            serving = hierarchy.replay(trace.lines)
            return hierarchy, serving, _simulate_counts(
                hierarchy, serving, trace
            )

        (h_step, serving_step, counts_step), step_seconds = _timed(
            run_step, config.repeats
        )
        (h_replay, serving_replay, counts_replay), replay_seconds = (
            _timed(run_replay, config.repeats)
        )

        level_counters = lambda h: [  # noqa: E731
            (level.refs, level.misses) for level in h.levels
        ]
        identical = (
            bool(np.array_equal(serving_step, serving_replay))
            and counts_step == counts_replay
            and level_counters(h_step) == level_counters(h_replay)
        )
        if not identical:
            raise BenchRegressionError(
                "replay and step cache backends diverged on "
                f"{config.dataset} ({config.hierarchy} hierarchy)"
            )
        end_to_end = _bench_end_to_end(graph, factory, config)

    backends = {
        "step": {
            "seconds": step_seconds,
            "accesses_per_second": (
                trace.num_accesses / step_seconds
                if step_seconds else None
            ),
        },
        "replay": {
            "seconds": replay_seconds,
            "accesses_per_second": (
                trace.num_accesses / replay_seconds
                if replay_seconds else None
            ),
        },
    }
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": "cache_replay",
        "quick": config.quick,
        "manifest": obs.run_manifest(command="bench"),
        "workload": {
            "algorithm": "pr",
            "dataset": config.dataset,
            "iterations": config.iterations,
            "hierarchy": config.hierarchy,
            "accesses": trace.num_accesses,
            "demand_accesses": trace.num_demand,
            "total_refs": trace.total_refs,
        },
        "backends": backends,
        "speedup_replay_vs_step": (
            step_seconds / replay_seconds if replay_seconds else None
        ),
        "level_counts": counts_step,
        "identical": identical,
        "end_to_end": end_to_end,
    }


def _bench_end_to_end(graph, factory, config: CacheBenchConfig) -> dict:
    """Record+simulate wall clock per backend (informational).

    Unlike the headline simulate-only numbers this includes the traced
    algorithm's own Python body and the trace recording, which both
    backends' users pay identically.
    """
    from repro.algorithms.pagerank import pagerank_traced
    from repro.cache import Memory

    def run(backend: str):
        def body():
            memory = Memory(factory(), cache_backend=backend)
            pagerank_traced(
                graph, memory, iterations=config.iterations
            )
            return memory.level_counts

        return _timed(body, config.repeats)

    counts_step, step_seconds = run("step")
    counts_replay, replay_seconds = run("replay")
    if counts_step != counts_replay:
        raise BenchRegressionError(
            "replay and step backends diverged end-to-end on "
            f"{config.dataset}"
        )
    return {
        "step_seconds": step_seconds,
        "replay_seconds": replay_seconds,
        "speedup": (
            step_seconds / replay_seconds if replay_seconds else None
        ),
        "identical": True,  # divergence raises instead
    }


# ----------------------------------------------------------------------
# Frontier-runtime algorithm benchmark
# ----------------------------------------------------------------------
#: Algorithms with a vectorised runtime port (scalar oracle retained);
#: the traced acceptance workload of ``BENCH_algos.json``.
RUNTIME_ALGORITHMS: tuple[str, ...] = (
    "nq", "bfs", "sp", "pr", "lp", "diam"
)


@dataclass(frozen=True)
class AlgosBenchConfig:
    """Shape of one frontier-runtime algorithm benchmark run."""

    #: Dataset the traced suite runs on (the acceptance workload is
    #: the largest analogue, ``sdarc``).
    dataset: str = "sdarc"
    #: Hierarchy the runs simulate against (``"paper"``/``"scaled"``).
    hierarchy: str = "scaled"
    #: PageRank / label-propagation sweep count.
    iterations: int = 5
    #: Diameter SP repetitions.
    num_sources: int = 4
    #: Best-of-N timing; 2 absorbs allocator cold start.
    repeats: int = 2
    quick: bool = False


def quick_algos_config(**overrides) -> AlgosBenchConfig:
    """The CI smoke configuration (small dataset, same schema)."""
    settings = dict(
        dataset="epinion", iterations=2, num_sources=2, repeats=1,
        quick=True,
    )
    settings.update(overrides)
    return AlgosBenchConfig(**settings)


def _algo_params(config: AlgosBenchConfig) -> dict[str, dict]:
    return {
        "sp": {"source": 0},
        "pr": {"iterations": config.iterations},
        "lp": {"iterations": config.iterations},
        "diam": {"num_sources": config.num_sources, "seed": 0},
    }


def run_algos_bench(config: AlgosBenchConfig | None = None) -> dict:
    """Run the traced algorithm suite under both emitters; the payload.

    Every algorithm runs twice over the same dataset and hierarchy —
    once through its scalar-loop oracle, once through the vectorised
    frontier runtime — and :class:`BenchRegressionError` is raised
    unless the results **and** the per-level cache counters are
    identical: the runtime's whole contract is emitting the exact
    touch sequence the scalar code does, so any divergence is a
    correctness bug, not a perf trade-off.

    The headline timing covers the traced run end-to-end through
    trace *materialisation* (the algorithm body, all touch recording,
    and the buffer freeze) — the phase the frontier runtime
    vectorises.  The downstream LRU simulation of the materialised
    trace is byte-for-byte the same work for both emitters (it is the
    cache-replay benchmark's subject, ``BENCH_cache.json``), so it is
    timed separately and reported as ``simulate_seconds`` /
    ``with_simulation`` rather than folded into the emitter ratio.
    """
    from repro.algorithms import base as algorithms
    from repro.cache import Memory
    from repro.graph import datasets

    config = config or AlgosBenchConfig()
    factory = _hierarchy_factory(config.hierarchy)
    graph = datasets.load(config.dataset)
    params_by_algo = _algo_params(config)

    per_algorithm: dict[str, dict] = {}
    scalar_total = 0.0
    runtime_total = 0.0
    scalar_sim_total = 0.0
    runtime_sim_total = 0.0
    with obs.span(
        "bench.algos_runtime", dataset=config.dataset,
        hierarchy=config.hierarchy, quick=config.quick,
    ):
        for name in RUNTIME_ALGORITHMS:
            algorithm = algorithms.spec(name)
            params = params_by_algo.get(name, {})

            def run(backend: str):
                traced = algorithms.traced_fn(algorithm, backend)

                def body():
                    memory = Memory(factory(), cache_backend="replay")
                    result = traced(graph, memory, **params)
                    # Materialise the trace inside the timed region:
                    # the runtime defers block expansion to the
                    # freeze, so stopping the clock earlier would
                    # credit it with work it has not done yet.
                    memory.recorded_trace()
                    return result, memory

                (result, memory), seconds = _timed(
                    body, config.repeats
                )
                # The LRU simulation of the frozen trace, timed
                # separately (identical input either way).
                sim_start = time.perf_counter()
                counts = list(memory.level_counts)
                sim_seconds = time.perf_counter() - sim_start
                return (
                    result, counts, memory.total_refs,
                    memory.prefetched_refs, seconds, sim_seconds,
                )

            (
                s_result, s_counts, s_refs, s_prefetched,
                scalar_seconds, scalar_sim,
            ) = run("scalar")
            (
                r_result, r_counts, r_refs, r_prefetched,
                runtime_seconds, runtime_sim,
            ) = run("runtime")
            identical = (
                bool(np.array_equal(
                    np.asarray(s_result), np.asarray(r_result)
                ))
                and s_counts == r_counts
                and s_refs == r_refs
                and s_prefetched == r_prefetched
            )
            if not identical:
                raise BenchRegressionError(
                    f"runtime and scalar emitters diverged for "
                    f"{name!r} on {config.dataset} "
                    f"({config.hierarchy} hierarchy)"
                )
            scalar_total += scalar_seconds
            runtime_total += runtime_seconds
            scalar_sim_total += scalar_sim
            runtime_sim_total += runtime_sim
            per_algorithm[name] = {
                "scalar_seconds": scalar_seconds,
                "runtime_seconds": runtime_seconds,
                "speedup": (
                    scalar_seconds / runtime_seconds
                    if runtime_seconds else None
                ),
                "simulate_seconds": {
                    "scalar": scalar_sim, "runtime": runtime_sim,
                },
                "level_counts": s_counts,
                "total_refs": s_refs,
                "prefetched_refs": s_prefetched,
                "identical": identical,
            }

    with_simulation_scalar = scalar_total + scalar_sim_total
    with_simulation_runtime = runtime_total + runtime_sim_total
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": "algos_runtime",
        "quick": config.quick,
        "manifest": obs.run_manifest(command="bench"),
        "workload": {
            "dataset": config.dataset,
            "hierarchy": config.hierarchy,
            "iterations": config.iterations,
            "num_sources": config.num_sources,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "algorithms": list(RUNTIME_ALGORITHMS),
        },
        "algorithms": per_algorithm,
        "totals": {
            "scalar_seconds": scalar_total,
            "runtime_seconds": runtime_total,
        },
        "speedup_runtime_vs_scalar": (
            scalar_total / runtime_total if runtime_total else None
        ),
        "with_simulation": {
            "scalar_seconds": with_simulation_scalar,
            "runtime_seconds": with_simulation_runtime,
            "speedup": (
                with_simulation_scalar / with_simulation_runtime
                if with_simulation_runtime else None
            ),
        },
        "identical": True,  # divergence raises instead
    }


# ----------------------------------------------------------------------
# Selector cost/quality frontier benchmark
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FrontierBenchConfig:
    """Shape of one selector-frontier benchmark run."""

    #: Acceptance datasets the selector is judged on.
    datasets: tuple[str, ...] = ("epinion", "pokec", "wiki")
    #: Modelled workload size for the amortisation decision; the
    #: default models a query-heavy serving deployment.
    query_volume: float = 100_000.0
    #: Acceptance band: the chosen candidate's probe cycles, and its
    #: suite cycles, must land within this fraction of the best.
    tolerance: float = 0.10
    seed: int = 0
    quick: bool = False


def quick_frontier_config(**overrides) -> FrontierBenchConfig:
    """The CI smoke configuration (one dataset, same schema)."""
    settings = dict(datasets=("epinion",), quick=True)
    settings.update(overrides)
    return FrontierBenchConfig(**settings)


def run_frontier_bench(
    config: FrontierBenchConfig | None = None,
) -> dict:
    """Run the cost/quality frontier experiment; the JSON payload.

    On every acceptance dataset the selector measures its candidate
    frontier against the NQ probe (ordering wall-time + simulated
    cycles) and picks the candidate with the least amortised seconds
    at the configured query volume.  The same candidates are then
    measured by :func:`~repro.ordering.select.amortization_table`
    against the suite — one run of each quick-profile algorithm with
    its :func:`~repro.perf.experiments.algorithm_params` — so the
    pick is judged by the workload it stands for, not by its own
    probe.  :class:`BenchRegressionError` is raised if, on any
    dataset, the chosen candidate's probe cycles exceed the probe
    oracle's, or its suite cycles the suite's best candidate's, by
    more than ``tolerance`` — a selector that misses the frontier
    must fail the harness, not report around it.

    Schema (version 1)::

        {
          "schema_version": 1,
          "bench": "selector_frontier",
          "quick": bool,
          "manifest": {...},
          "workload": {"datasets", "query_volume", "clock_hz",
                       "suite", "tolerance"},
          "datasets": {
            "<name>": {"nodes", "edges", "predictors", "rows",
                       "selected", "oracle", "regret",
                       "break_even_runs", "suite_rows", "suite_best",
                       "suite_regret", "within_tolerance",
                       "selection_seconds"}
          },
          "totals": {"selection_seconds"},
          "max_regret": float,        # against the probe oracle
          "max_suite_regret": float,  # against the suite's best
          "within_tolerance": true    # divergence raises instead
        }
    """
    from repro.graph import datasets
    from repro.ordering.select import (
        CLOCK_HZ,
        Workload,
        amortization_table,
        select_ordering,
    )
    from repro.perf.experiments import PROFILES, algorithm_params

    config = config or FrontierBenchConfig()
    if not config.datasets:
        raise InvalidParameterError(
            "the frontier benchmark needs at least one dataset"
        )
    if config.tolerance < 0:
        raise InvalidParameterError(
            f"tolerance must be non-negative, got {config.tolerance}"
        )
    profile = PROFILES["quick"]
    per_dataset: dict[str, dict] = {}
    total_selection_seconds = 0.0
    max_regret = 0.0
    max_suite_regret = 0.0
    with obs.span(
        "bench.selector_frontier",
        datasets=len(config.datasets),
        query_volume=config.query_volume, quick=config.quick,
    ):
        for name in config.datasets:
            graph = datasets.load(name)
            decision = select_ordering(
                graph,
                query_volume=config.query_volume,
                seed=config.seed,
            )
            oracle = decision.oracle_row
            regret = (
                decision.chosen.cycles / oracle.cycles - 1.0
                if oracle.cycles else 0.0
            )
            if regret > config.tolerance:
                raise BenchRegressionError(
                    f"selector missed the frontier on {name}: chose "
                    f"{decision.chosen.label} at "
                    f"{decision.chosen.cycles:.0f} cycles, "
                    f"{100 * regret:.1f}% above oracle "
                    f"{oracle.label} (tolerance "
                    f"{100 * config.tolerance:.0f}%)"
                )
            suite = Workload.of(
                "quick-suite",
                *(
                    (algorithm, algorithm_params(algorithm, graph, profile))
                    for algorithm in profile.algorithms
                ),
            )
            suite_rows = amortization_table(
                suite, graph, [row.config for row in decision.rows]
            )
            suite_best = min(suite_rows, key=lambda row: row.cycles)
            suite_chosen = next(
                row for row in suite_rows
                if row.config == decision.chosen.config
            )
            suite_regret = suite_chosen.cycles / suite_best.cycles - 1.0
            if suite_regret > config.tolerance:
                raise BenchRegressionError(
                    f"selector missed the suite on {name}: chose "
                    f"{decision.chosen.label} at "
                    f"{suite_chosen.cycles:.0f} suite cycles, "
                    f"{100 * suite_regret:.1f}% above "
                    f"{suite_best.label} (tolerance "
                    f"{100 * config.tolerance:.0f}%)"
                )
            max_regret = max(max_regret, regret)
            max_suite_regret = max(max_suite_regret, suite_regret)
            total_selection_seconds += decision.selection_seconds
            per_dataset[name] = {
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "predictors": decision.predictors.as_dict(),
                "rows": [decision.row_dict(row) for row in decision.rows],
                "selected": decision.row_dict(decision.chosen),
                "oracle": decision.row_dict(oracle),
                "regret": regret,
                "break_even_runs": decision.chosen.break_even_runs,
                "suite_rows": [row.as_dict() for row in suite_rows],
                "suite_best": suite_best.label,
                "suite_regret": suite_regret,
                "within_tolerance": True,  # divergence raises instead
                "selection_seconds": decision.selection_seconds,
            }
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": "selector_frontier",
        "quick": config.quick,
        "manifest": obs.run_manifest(
            seed=config.seed, command="bench",
        ),
        "workload": {
            "datasets": list(config.datasets),
            "query_volume": config.query_volume,
            "clock_hz": CLOCK_HZ,
            "suite": list(profile.algorithms),
            "tolerance": config.tolerance,
        },
        "datasets": per_dataset,
        "totals": {"selection_seconds": total_selection_seconds},
        "max_regret": max_regret,
        "max_suite_regret": max_suite_regret,
        "within_tolerance": True,  # divergence raises instead
    }


def render_frontier_bench(payload: dict) -> str:
    """Human-readable summary of one frontier benchmark payload."""
    workload = payload["workload"]
    lines = [
        f"workload    : NQ x{workload['query_volume']:,.0f} on "
        f"{', '.join(workload['datasets'])}; suite "
        f"{', '.join(workload['suite'])}",
    ]
    for name, entry in payload["datasets"].items():
        lines.append(
            f"{name:<12}: n={entry['nodes']:,} m={entry['edges']:,}"
        )
        suite_cycles = {
            row["label"]: row["cycles"] for row in entry["suite_rows"]
        }
        for row in entry["rows"]:
            marker = (
                ">" if row["label"] == entry["selected"]["label"]
                else " "
            )
            lines.append(
                f"  {marker} {row['label']:<20}"
                f"{row['cycles'] / 1e6:8.2f}M cycles  "
                f"{row['ordering_seconds']:8.4f}s  "
                f"suite {suite_cycles[row['label']] / 1e6:8.2f}M  "
                f"break-even "
                f"{format_break_even(row['break_even_runs'])}"
            )
        lines.append(
            f"  selected {entry['selected']['label']} "
            f"(oracle {entry['oracle']['label']}, "
            f"regret {100 * entry['regret']:.1f}%; suite best "
            f"{entry['suite_best']}, suite regret "
            f"{100 * entry['suite_regret']:.1f}%)"
        )
    lines.append(
        f"max regret  : {100 * payload['max_regret']:.1f}% probe, "
        f"{100 * payload['max_suite_regret']:.1f}% suite "
        f"(tolerance {100 * workload['tolerance']:.0f}%)"
    )
    lines.append(
        "within tol  : "
        + ("yes" if payload["within_tolerance"] else "NO")
    )
    return "\n".join(lines)


def render_algos_bench(payload: dict) -> str:
    """Human-readable summary of one algos benchmark payload."""
    workload = payload["workload"]
    lines = [
        f"workload    : {', '.join(workload['algorithms'])} on "
        f"{workload['dataset']} ({workload['hierarchy']} hierarchy)",
        f"graph       : n={workload['nodes']:,} "
        f"m={workload['edges']:,}",
    ]
    for name, algo in payload["algorithms"].items():
        speedup = algo["speedup"]
        speedup_text = (
            f"{speedup:.2f}x" if speedup is not None else "n/a"
        )
        lines.append(
            f"{name:<12}: scalar {algo['scalar_seconds']:.3f}s vs "
            f"runtime {algo['runtime_seconds']:.3f}s "
            f"({speedup_text}, {algo['total_refs']:,} refs)"
        )
    totals = payload["totals"]
    speedup = payload["speedup_runtime_vs_scalar"]
    lines.append(
        f"total       : scalar {totals['scalar_seconds']:.3f}s vs "
        f"runtime {totals['runtime_seconds']:.3f}s"
    )
    if speedup is not None:
        lines.append(
            f"speedup     : {speedup:.2f}x runtime vs scalar"
        )
    with_sim = payload.get("with_simulation")
    if with_sim and with_sim["speedup"] is not None:
        lines.append(
            f"with sim    : scalar "
            f"{with_sim['scalar_seconds']:.3f}s vs runtime "
            f"{with_sim['runtime_seconds']:.3f}s "
            f"({with_sim['speedup']:.2f}x incl. LRU simulation)"
        )
    lines.append(
        "identical   : " + ("yes" if payload["identical"] else "NO")
    )
    return "\n".join(lines)


def render_cache_bench(payload: dict) -> str:
    """Human-readable summary of one cache benchmark payload."""
    workload = payload["workload"]
    backends = payload["backends"]
    lines = [
        f"workload    : pr x{workload['iterations']} on "
        f"{workload['dataset']} ({workload['hierarchy']} hierarchy)",
        f"trace       : {workload['accesses']:,} accesses "
        f"({workload['demand_accesses']:,} demand, "
        f"{workload['total_refs']:,} refs)",
    ]
    for name in ("step", "replay"):
        backend = backends[name]
        rate = backend["accesses_per_second"]
        rate_text = f"{rate:,.0f}/s" if rate else "n/a"
        lines.append(
            f"{name:<12}: {backend['seconds']:.3f}s  ({rate_text})"
        )
    speedup = payload["speedup_replay_vs_step"]
    if speedup is not None:
        lines.append(f"speedup     : {speedup:.2f}x replay vs step")
    end_to_end = payload.get("end_to_end")
    if end_to_end:
        lines.append(
            f"end-to-end  : step {end_to_end['step_seconds']:.3f}s vs "
            f"replay {end_to_end['replay_seconds']:.3f}s "
            f"({end_to_end['speedup']:.2f}x)"
        )
    lines.append(
        "identical   : " + ("yes" if payload["identical"] else "NO")
    )
    return "\n".join(lines)


def write_bench_json(payload: dict, path: str | Path) -> Path:
    """Write the benchmark payload as pretty-printed JSON (atomically)."""
    path = Path(path)
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    return path


def render_gorder_bench(payload: dict) -> str:
    """Human-readable summary of one benchmark payload (CLI output)."""
    graph = payload["graph"]
    kernels = payload["kernels"]
    lines = [
        f"graph       : {graph['generator']} n={graph['nodes']:,} "
        f"m={graph['edges']:,} (seed {graph['seed']})",
        f"window      : {payload['window']}",
    ]
    for name in ("loop", "batched"):
        kernel = kernels[name]
        rate = kernel["updates_per_second"]
        rate_text = f"{rate:,.0f}/s" if rate else "n/a"
        lines.append(
            f"{name:<12}: {kernel['seconds']:.3f}s  "
            f"{kernel['unit_updates']:,} updates ({rate_text}), "
            f"{kernel['heap_pops']:,} pops"
        )
    speedup = payload["speedup_batched_vs_loop"]
    if speedup is not None:
        lines.append(f"speedup     : {speedup:.2f}x batched vs loop")
    partitioned = payload.get("partitioned")
    if partitioned:
        lines.append(
            f"partitioned : parts={partitioned['num_parts']} "
            f"workers=1 {partitioned['workers_1_seconds']:.3f}s vs "
            f"workers={partitioned['workers']} "
            f"{partitioned['workers_n_seconds']:.3f}s "
            f"({partitioned['speedup']:.2f}x)"
        )
    lines.append(
        "identical   : " + ("yes" if payload["identical"] else "NO")
    )
    return "\n".join(lines)
