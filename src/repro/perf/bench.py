"""One benchmark harness: each speed claim is one entry of :data:`SUITES`.

Every suite times a production fast path against the oracle it must
agree with, on a deterministic workload:

* ``gorder`` — the batched Gorder kernel against the literal-loop
  oracle :func:`~repro.oracles.gorder_sequence_reference`;
* ``cache`` — vectorised LRU replay (:meth:`CacheHierarchy.replay`)
  against scalar stepping (:meth:`CacheHierarchy.step_trace`) of one
  recorded traced-PageRank trace;
* ``algos`` — the frontier runtime's trace emitters against their
  scalar oracles, :data:`repro.oracles.TRACED_SCALAR`;
* ``frontier`` — the ``auto`` selector against its NQ-probe oracle and
  against the quick-profile algorithm suite.

:func:`run_bench` runs one suite at one profile's workload (``quick``
is the CI smoke, ``full`` the acceptance run) and raises
:class:`BenchRegressionError` when a fast path's answer differs from
its oracle's, or when a metric misses its limit: a floor for a metric
that improves by growing, a ceiling for any other
(:func:`metric_direction`).  A perf harness never blesses a wrong
answer.  The payload, schema version 2 (``docs/performance.md``)::

    {
      "schema_version": 2,
      "bench": "gorder_kernel",   # or cache_replay, algos_runtime,
                                  # selector_frontier
      "quick": bool,
      "manifest": {...},          # repro.obs.run_manifest()
      "workload": {...},          # the profile's workload, plus facts
                                  # about its input
      "metrics": {name: float},   # what `repro-gorder trends` tracks
      "rows": [{...}],            # one per kernel, backend, algorithm
                                  # or candidate
      "identical": true           # divergence raises instead
    }

Entry points: ``repro-gorder bench --suite NAME [--quick]`` and the
profile-scaled pytest harness ``benchmarks/bench_suites.py``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro import obs
from repro.errors import ReproError
from repro.graph.generators import social_graph
from repro.ioutil import atomic_write_text
from repro.ordering.gorder import DEFAULT_WINDOW, gorder_sequence
from repro.perf.report import render_table

#: Current bench payload schema version.
BENCH_SCHEMA_VERSION = 2


class BenchRegressionError(ReproError):
    """A fast path disagreed with its oracle, or a bench metric missed
    its limit."""


def metric_direction(metric: str) -> str:
    """``"higher"`` for a metric that improves by growing
    (``speedup_*``, ``*_per_second``), else ``"lower"``."""
    if metric.startswith("speedup_") or metric.endswith("_per_second"):
        return "higher"
    return "lower"


def _timed(fn, repeats: int):
    """Best-of-``repeats`` wall time of ``fn`` (monotonic clock)."""
    start = time.perf_counter()
    result = fn()
    best = time.perf_counter() - start
    for _ in range(repeats - 1):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _counted(fn) -> dict:
    """Run ``fn`` once with the counter registry active; the Gorder
    kernel counters it added.

    Kept apart from :func:`_timed`, so the timed runs leave telemetry
    exactly as the caller configured it.
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
        for field, name in (
            ("heap_pops", "gorder.heap_pops"),
            ("unit_updates", "gorder.priority_updates"),
        )
    }


def _hierarchy(name: str):
    from repro.cache import paper_hierarchy, scaled_hierarchy

    return {"paper": paper_hierarchy, "scaled": scaled_hierarchy}[name]


def _gorder(nodes, edges_per_node, window, seed, repeats):
    """The batched kernel against the loop oracle on a social graph."""
    # Deferred: importing repro.perf (every CLI and serve process)
    # must not load the oracles.
    from repro.oracles import gorder_sequence_reference

    graph = social_graph(
        nodes, edges_per_node=edges_per_node, seed=seed,
        name=f"bench-social-{nodes}",
    )
    # Build the shared lazy structures before any timing, so neither
    # kernel pays the in-CSR/degree build inside its measurement.
    graph.in_adjacency
    graph.out_degrees()
    graph.in_degrees()
    loop, loop_seconds = _timed(
        lambda: gorder_sequence_reference(graph, window=window), repeats
    )
    batched, batched_seconds = _timed(
        lambda: gorder_sequence(graph, window=window), repeats
    )
    if not np.array_equal(loop, batched):
        raise BenchRegressionError(
            "Gorder diverged from its loop reference on "
            f"{graph.name} (window={window})"
        )
    # The reference fires the same unit events as the production
    # kernel (identical output), so one counted run serves both rows.
    counters = _counted(lambda: gorder_sequence(graph, window=window))
    rows = [
        {
            "kernel": kernel, "seconds": seconds, **counters,
            "updates_per_second": counters["unit_updates"] / seconds,
        }
        for kernel, seconds in (
            ("loop", loop_seconds), ("batched", batched_seconds)
        )
    ]
    metrics = {
        "loop_seconds": loop_seconds,
        "batched_seconds": batched_seconds,
        "speedup_batched_vs_loop": loop_seconds / batched_seconds,
        "batched_updates_per_second": rows[1]["updates_per_second"],
    }
    facts = {"generator": "social_graph", "edges": graph.num_edges}
    return facts, metrics, rows


def _cache(dataset, iterations, hierarchy, repeats):
    """Replay against stepping over one recorded PageRank trace.

    ``seconds`` simulates the frozen trace alone (the gated number);
    ``end_to_end_seconds`` re-runs the traced algorithm per backend,
    so it includes the trace recording both backends pay.
    """
    from repro.algorithms.pagerank import pagerank_traced
    from repro.cache import Memory
    from repro.graph.datasets import load

    factory = _hierarchy(hierarchy)
    graph = load(dataset)
    # One recorded trace feeds both simulation paths.
    memory = Memory(factory())
    pagerank_traced(graph, memory, iterations=iterations)
    trace = memory.recorded_trace()

    def simulate(method: str):
        levels = factory()
        serving = getattr(levels, method)(trace.lines)
        counts = np.bincount(
            serving[trace.demand_idx], minlength=levels.num_levels + 1
        ).tolist()
        counts[1] += trace.extra_l1
        counters = [(level.refs, level.misses) for level in levels.levels]
        return serving, counts, counters

    def end_to_end(backend: str):
        memory = Memory(factory(), cache_backend=backend)
        pagerank_traced(graph, memory, iterations=iterations)
        return memory.level_counts

    outputs, rows = [], []
    for backend, method in (("step", "step_trace"), ("replay", "replay")):
        simulated, seconds = _timed(lambda: simulate(method), repeats)
        counts, end_to_end_seconds = _timed(
            lambda: end_to_end(backend), repeats
        )
        outputs.append((simulated, counts))
        rows.append({
            "backend": backend,
            "seconds": seconds,
            "accesses_per_second": trace.num_accesses / seconds,
            "end_to_end_seconds": end_to_end_seconds,
        })
    (step, step_counts), (replay, replay_counts) = outputs
    if not (
        np.array_equal(step[0], replay[0])
        and step[1:] == replay[1:]
        and step_counts == replay_counts
    ):
        raise BenchRegressionError(
            "replay and step cache backends diverged on "
            f"{dataset} ({hierarchy} hierarchy)"
        )
    step_row, replay_row = rows
    metrics = {
        "step_seconds": step_row["seconds"],
        "replay_seconds": replay_row["seconds"],
        "speedup_replay_vs_step": (
            step_row["seconds"] / replay_row["seconds"]
        ),
        "replay_accesses_per_second": replay_row["accesses_per_second"],
    }
    facts = {
        "algorithm": "pr",
        "accesses": trace.num_accesses,
        "demand_accesses": trace.num_demand,
        "total_refs": trace.total_refs,
        "level_counts": step[1],
    }
    return facts, metrics, rows


def _algos(dataset, hierarchy, iterations, num_sources, repeats):
    """Each runtime emitter against its scalar oracle.

    ``*_seconds`` time the traced run through trace materialisation
    (algorithm body, touch recording, buffer freeze): the phase the
    runtime vectorises.  The LRU simulation of the frozen trace is the
    same work for both emitters (the ``cache`` suite's subject), so it
    is timed apart as ``*_simulate_seconds``.
    """
    from repro.algorithms import spec
    from repro.cache import Memory
    from repro.graph.datasets import load
    from repro.oracles import TRACED_SCALAR

    factory = _hierarchy(hierarchy)
    graph = load(dataset)
    params = {
        "sp": {"source": 0},
        "pr": {"iterations": iterations},
        "lp": {"iterations": iterations},
        "diam": {"num_sources": num_sources, "seed": 0},
    }

    def run(emitter, name: str):
        def body():
            memory = Memory(factory())
            result = emitter(graph, memory, **params.get(name, {}))
            # The runtime defers block expansion to the freeze, so
            # stopping the clock before it would credit the runtime
            # with work it has not done yet.
            memory.recorded_trace()
            return result, memory

        (result, memory), seconds = _timed(body, repeats)
        start = time.perf_counter()
        counts = list(memory.level_counts)
        simulate_seconds = time.perf_counter() - start
        output = (
            np.asarray(result), counts, memory.total_refs,
            memory.prefetched_refs,
        )
        return output, seconds, simulate_seconds

    rows = []
    for name, scalar in TRACED_SCALAR.items():
        oracle, scalar_seconds, scalar_simulate = run(scalar, name)
        output, runtime_seconds, runtime_simulate = run(
            spec(name).traced, name
        )
        if not (
            np.array_equal(oracle[0], output[0])
            and oracle[1:] == output[1:]
        ):
            raise BenchRegressionError(
                f"runtime and scalar emitters diverged for {name!r} on "
                f"{dataset} ({hierarchy} hierarchy)"
            )
        rows.append({
            "algorithm": name,
            "scalar_seconds": scalar_seconds,
            "runtime_seconds": runtime_seconds,
            "speedup": scalar_seconds / runtime_seconds,
            "scalar_simulate_seconds": scalar_simulate,
            "runtime_simulate_seconds": runtime_simulate,
            "level_counts": output[1],
            "total_refs": output[2],
            "prefetched_refs": output[3],
        })
    scalar_total = sum(row["scalar_seconds"] for row in rows)
    runtime_total = sum(row["runtime_seconds"] for row in rows)
    metrics = {
        "scalar_seconds_total": scalar_total,
        "runtime_seconds_total": runtime_total,
        "speedup_runtime_vs_scalar": scalar_total / runtime_total,
    }
    facts = {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "algorithms": list(TRACED_SCALAR),
    }
    return facts, metrics, rows


def _selector(datasets, query_volume, seed):
    """The selector's pick against the probe oracle and the suite.

    On each dataset the selector measures its candidates on the NQ
    probe and picks the least amortised seconds at ``query_volume``.
    The same candidates are then measured against the suite, one run
    of each quick-profile algorithm with its
    :func:`~repro.perf.experiments.algorithm_params`, so the pick is
    judged by the workload it stands for.  ``regret`` is a row's
    probe cycles over the oracle's (the least), ``suite_regret`` its
    suite cycles over the suite's best.
    """
    from repro.graph.datasets import load
    from repro.ordering.select import (
        CLOCK_HZ,
        Workload,
        amortization_table,
        select_ordering,
    )
    from repro.perf.experiments import PROFILES, algorithm_params

    profile = PROFILES["quick"]
    graphs, rows = {}, []
    regrets, suite_regrets, seconds, cycles = [], [], 0.0, 0.0
    for name in datasets:
        graph = load(name)
        decision = select_ordering(
            graph, query_volume=query_volume, seed=seed
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
        oracle = decision.oracle_row.cycles
        suite_best = min(row.cycles for row in suite_rows)
        chosen = decision.chosen
        for probe, measured in zip(decision.rows, suite_rows):
            rows.append({
                "dataset": name,
                **decision.row_dict(probe),
                "regret": probe.cycles / oracle - 1.0,
                "suite_cycles": measured.cycles,
                "suite_regret": measured.cycles / suite_best - 1.0,
                "selected": probe.config == chosen.config,
            })
        suite_chosen = next(
            row for row in suite_rows if row.config == chosen.config
        )
        regrets.append(chosen.cycles / oracle - 1.0)
        suite_regrets.append(suite_chosen.cycles / suite_best - 1.0)
        seconds += decision.selection_seconds
        cycles += chosen.cycles
        graphs[name] = {
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "predictors": decision.predictors.as_dict(),
        }
    metrics = {
        "selector_max_regret": max(regrets),
        "selector_suite_regret": max(suite_regrets),
        "selector_selection_seconds": seconds,
        "selector_chosen_cycles_total": cycles,
    }
    facts = {
        "clock_hz": CLOCK_HZ,
        "suite": list(profile.algorithms),
        "graphs": graphs,
    }
    return facts, metrics, rows


@dataclass(frozen=True)
class Suite:
    """One benchmark: what it runs at each profile, and the limits
    its metrics must meet."""

    #: Payload ``bench`` id, which names the trend series.
    bench: str
    #: Default output file.
    out: str
    #: ``body(**workload) -> (facts, metrics, rows)``; raises
    #: :class:`BenchRegressionError` when the fast path diverges.
    body: Callable[..., tuple[dict, dict, list]]
    #: Profile (``quick``, ``standard``, ``full``) -> body keywords.
    workloads: Mapping[str, Mapping[str, Any]]
    #: Metric -> profile -> limit: a floor for a metric that improves
    #: by growing, a ceiling for any other.
    limits: Mapping[str, Mapping[str, float]]


#: Every benchmark, by ``repro-gorder bench --suite`` name.  The quick
#: workloads are too small to amortise numpy's per-call cost, so their
#: floors only catch a fast path that loses; the acceptance bar (3x)
#: applies at full scale.
SUITES: dict[str, Suite] = {
    "gorder": Suite(
        bench="gorder_kernel",
        out="BENCH_gorder.json",
        body=_gorder,
        workloads={
            "quick": dict(
                nodes=2_000, edges_per_node=8, window=DEFAULT_WINDOW,
                seed=3, repeats=1,
            ),
            "standard": dict(
                nodes=20_000, edges_per_node=10, window=DEFAULT_WINDOW,
                seed=3, repeats=2,
            ),
            # The acceptance graph: 50k nodes, about 700k edges.
            "full": dict(
                nodes=50_000, edges_per_node=10, window=DEFAULT_WINDOW,
                seed=3, repeats=2,
            ),
        },
        limits={
            "speedup_batched_vs_loop": {
                "quick": 1.0, "standard": 1.5, "full": 3.0,
            },
        },
    ),
    "cache": Suite(
        bench="cache_replay",
        out="BENCH_cache.json",
        body=_cache,
        workloads={
            "quick": dict(
                dataset="epinion", iterations=2, hierarchy="scaled",
                repeats=1,
            ),
            "standard": dict(
                dataset="sdarc", iterations=2, hierarchy="paper",
                repeats=3,
            ),
            "full": dict(
                dataset="sdarc", iterations=5, hierarchy="paper",
                repeats=3,
            ),
        },
        limits={
            "speedup_replay_vs_step": {
                "quick": 1.0, "standard": 2.0, "full": 3.0,
            },
        },
    ),
    "algos": Suite(
        bench="algos_runtime",
        out="BENCH_algos.json",
        body=_algos,
        workloads={
            "quick": dict(
                dataset="epinion", hierarchy="scaled", iterations=2,
                num_sources=2, repeats=1,
            ),
            "standard": dict(
                dataset="sdarc", hierarchy="scaled", iterations=2,
                num_sources=2, repeats=2,
            ),
            "full": dict(
                dataset="sdarc", hierarchy="scaled", iterations=5,
                num_sources=4, repeats=2,
            ),
        },
        limits={
            "speedup_runtime_vs_scalar": {
                "quick": 1.0, "standard": 2.0, "full": 3.0,
            },
        },
    ),
    # The volume models a query-heavy serving deployment.
    "frontier": Suite(
        bench="selector_frontier",
        out="BENCH_selector.json",
        body=_selector,
        workloads={
            "quick": dict(
                datasets=("epinion",), query_volume=100_000.0, seed=0,
            ),
            "standard": dict(
                datasets=("epinion", "pokec"), query_volume=100_000.0,
                seed=0,
            ),
            "full": dict(
                datasets=("epinion", "pokec", "wiki"),
                query_volume=100_000.0, seed=0,
            ),
        },
        limits={
            metric: dict.fromkeys(("quick", "standard", "full"), 0.10)
            for metric in ("selector_max_regret", "selector_suite_regret")
        },
    ),
}


def run_bench(name: str, profile: str) -> dict:
    """Run suite ``name`` at ``profile``'s workload; the payload.

    Raises :class:`BenchRegressionError` when the fast path diverges
    from its oracle or a metric misses its limit at ``profile``.
    """
    suite = SUITES[name]
    workload = dict(suite.workloads[profile])
    with obs.span(f"bench.{suite.bench}", profile=profile):
        facts, metrics, rows = suite.body(**workload)
    for metric, limits in suite.limits.items():
        value, limit = metrics[metric], limits[profile]
        floor = metric_direction(metric) == "higher"
        if value < limit if floor else value > limit:
            raise BenchRegressionError(
                f"{suite.bench} at {profile} scale: {metric} = "
                f"{value:.4g}, "
                f"{'below its floor' if floor else 'above its ceiling'} "
                f"{limit:g}"
            )
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": suite.bench,
        "quick": profile == "quick",
        "manifest": obs.run_manifest(
            profile=profile, seed=workload.get("seed"), command="bench",
        ),
        "workload": {**workload, **facts},
        "metrics": {
            metric: float(value) for metric, value in metrics.items()
        },
        "rows": rows,
        "identical": True,  # divergence raises instead
    }


def render_bench(payload: dict) -> str:
    """One payload as text: its rows as a table, then its workload,
    metrics and verdict."""
    rows = payload["rows"]
    headers = [
        key for key, value in rows[0].items()
        if not isinstance(value, (dict, list))
    ]
    lines = [
        render_table(
            headers, [[row[key] for key in headers] for row in rows],
            title=payload["bench"]
            + (" (quick)" if payload["quick"] else ""),
        ),
        "workload    : " + ", ".join(
            f"{key}={value}"
            for key, value in payload["workload"].items()
            if not isinstance(value, dict)
        ),
    ]
    width = max(map(len, payload["metrics"]))
    lines += [
        f"{name:<{width}} : {value:.4g}"
        for name, value in payload["metrics"].items()
    ]
    lines.append(
        "identical   : " + ("yes" if payload["identical"] else "NO")
    )
    return "\n".join(lines)


def write_bench_json(payload: dict, path: str | Path) -> Path:
    """Write the benchmark payload as pretty-printed JSON (atomically)."""
    path = Path(path)
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    return path
