"""Command-line interface: ``python -m repro`` / ``repro-gorder``.

Subcommands map onto the paper's artifacts and common library tasks::

    repro-gorder datasets                 # Table 1
    repro-gorder order --dataset flickr --ordering gorder -o perm.txt
    repro-gorder order --input edges.txt --ordering rcm
    repro-gorder run --dataset pokec --algorithm pr --ordering gorder
    repro-gorder speedup --profile quick  # Figure 5 panels
    repro-gorder ranking --profile quick  # Figure 6
    repro-gorder stall --dataset sdarc    # Figure 1
    repro-gorder cache-stats --dataset flickr   # Table 3
    repro-gorder ordering-time --profile quick  # Table 2
    repro-gorder window --dataset flickr  # Figure 4 sweep
    repro-gorder annealing                # Figure 3 sweep
    repro-gorder bench --quick            # Gorder kernel benchmark
    repro-gorder bench --suite cache      # cache replay benchmark
    repro-gorder bench --quick --append-history bench_history.jsonl
    repro-gorder trends --check           # bench regression gate
    repro-gorder telemetry summary trace.jsonl
    repro-gorder telemetry tree trace.jsonl
    repro-gorder telemetry critical-path trace.jsonl
    repro-gorder telemetry diff a.jsonl b.jsonl
    repro-gorder telemetry flamegraph trace.jsonl -o trace.folded
    repro-gorder sweep run --profile quick --checkpoint ck.jsonl
    repro-gorder sweep status ck.jsonl    # inspect a checkpoint
    repro-gorder serve --port 8571 --store-root /var/lib/repro
    repro-gorder serve --socket /tmp/repro.sock --workers 4

``repro-gorder telemetry TRACE`` (no action) is kept as an alias for
``telemetry summary TRACE``.

Every subcommand accepts the telemetry flags ``--log-level LEVEL``
(text events on stderr; ``-v`` is an alias for ``--log-level info``)
and ``--log-json PATH`` (machine-readable JSONL trace; see
``docs/telemetry.md``).

Commands that compute orderings accept ``--workers N`` (process pool
for the partitioned Gorder) and ``--query-volume Q`` (amortisation for
``--ordering auto``).  ``order`` and ``run`` reject a flag their
``--ordering`` does not declare; the profile-wide commands apply each
flag to the orderings that declare it.  Commands that simulate always
run the vectorised trace replay over the frontier runtime's traces;
the scalar oracles (cache stepping, per-touch emitters) are reached
only by the differential tests and ``bench --suite cache|algos`` (see
``docs/performance.md``).

The matrix commands (``speedup``, ``ranking``, ``sweep run``) run
through the fault-tolerant sweep engine and accept ``--checkpoint``/
``--resume`` plus the per-cell budget flags ``--cell-timeout``,
``--retries``, ``--backoff``, ``--isolate`` and ``--strict`` (see
``docs/robustness.md``).  Ctrl-C exits with code 130 after the
checkpoint is flushed; resume with ``--resume``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace


from repro import obs, perf
from repro.algorithms import ALGORITHM_NAMES
from repro.errors import ReproError
from repro.graph import datasets, read_edge_list
from repro.graph.csr import CSRGraph
from repro.ordering import (
    ALL_ORDERING_NAMES,
    ORDERING_NAMES,
    OrderingConfig,
    compute_ordering,
)
from repro.perf import report


def _load_graph(args: argparse.Namespace) -> CSRGraph:
    if getattr(args, "input", None):
        return read_edge_list(args.input)
    return datasets.load(args.dataset)


def _ordering_params(args: argparse.Namespace) -> dict:
    """The ordering knobs given on the command line, as kwargs
    (``workers`` → the partitioned Gorder, ``query_volume`` → the
    ``auto`` selector)."""
    params: dict = {}
    workers = getattr(args, "workers", None)
    if workers is not None:
        params["workers"] = workers
    query_volume = getattr(args, "query_volume", None)
    if query_volume is not None:
        params["query_volume"] = query_volume
    return params


def _profile_from_args(args: argparse.Namespace) -> "perf.Profile":
    """The requested profile, with any CLI ordering knobs applied."""
    profile = perf.get_profile(getattr(args, "profile", None))
    params = _ordering_params(args)
    if params:
        profile = replace(
            profile, ordering_params=tuple(sorted(params.items()))
        )
    return profile


def _ordering_config(args: argparse.Namespace, seed: int) -> OrderingConfig:
    """The one permutation ``order``/``run`` compute.

    Strict, like the serve wire: a knob ``--ordering`` does not
    declare is an error naming the accepted parameters, not a flag
    silently ignored.
    """
    return OrderingConfig.strict(
        args.ordering, seed, _ordering_params(args)
    )


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = perf.dataset_table()
    print(
        report.render_table(
            list(rows[0].keys()),
            [list(row.values()) for row in rows],
            title="Table 1: dataset analogues",
        )
    )
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    config = _ordering_config(args, args.seed)
    graph = _load_graph(args)
    perm = config.compute(graph)
    if args.output:
        from repro.graph.io import save_permutation

        save_permutation(perm, args.output)
        print(f"wrote arrangement of {graph.num_nodes} nodes to "
              f"{args.output}")
    else:
        for new_index in perm:
            print(int(new_index))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    profile = perf.get_profile(args.profile)
    config = _ordering_config(args, profile.seed)
    graph = _load_graph(args)
    params = perf.algorithm_params(args.algorithm, graph, profile)
    result = perf.simulate(
        graph,
        args.algorithm,
        config,
        params=params,
        hierarchy=profile.hierarchy(),
    )
    stats = result.stats
    print(f"dataset     : {result.dataset}")
    print(f"algorithm   : {result.algorithm}")
    print(f"ordering    : {result.ordering}")
    print(f"cycles      : {result.cycles:,.0f}")
    print(f"  execute   : {result.cost.execute_cycles:,.0f}")
    print(f"  stall     : {result.cost.stall_cycles:,.0f} "
          f"({100 * result.cost.stall_fraction:.1f}%)")
    print(f"L1 miss rate: {100 * stats.l1_miss_rate:.2f}%")
    print(f"cache-mr    : {100 * stats.cache_miss_rate:.2f}%")
    print(f"ordering    : {result.ordering_seconds:.3f}s to compute")
    return 0


def _engine_from_args(args: argparse.Namespace) -> "perf.SweepEngine":
    """Build a fault-tolerant engine from the sweep budget flags."""
    guards = perf.SweepGuards(
        cell_timeout=getattr(args, "cell_timeout", None),
        retries=getattr(args, "retries", 0),
        backoff_seconds=getattr(args, "backoff", 0.0),
        isolate=getattr(args, "isolate", False),
        strict=getattr(args, "strict", False),
    )
    specs = tuple(
        perf.parse_fault_spec(text)
        for text in (getattr(args, "inject", None) or ())
    )
    return perf.SweepEngine(guards=guards, plan=perf.FaultPlan(specs))


def _run_sweep_outcome(
    args: argparse.Namespace, profile
) -> "perf.SweepOutcome":
    engine = _engine_from_args(args)
    return engine.run(
        profile,
        checkpoint=getattr(args, "checkpoint", None),
        resume=getattr(args, "resume", False),
    )


def _print_speedup_panels(profile, outcome) -> None:
    matrix = outcome.matrix()
    failed = outcome.failed_cells()
    relative = perf.relative_to_gorder(matrix)
    for algorithm in profile.algorithms:
        for dataset in profile.datasets:
            series = {
                ordering: relative.get(
                    (dataset, algorithm, ordering)
                )
                for ordering in profile.orderings
            }
            print(
                report.render_speedup_series(
                    f"{algorithm} on {dataset} "
                    f"(relative to Gorder = 1.0)",
                    series,
                )
            )
            print()
    if failed:
        print(
            report.render_failures(
                f"{len(failed)} cell(s) failed (rendered as gaps "
                "above)",
                list(failed.values()),
            )
        )
        print()


def _cmd_speedup(args: argparse.Namespace) -> int:
    profile = _profile_from_args(args)
    outcome = _run_sweep_outcome(args, profile)
    _print_speedup_panels(profile, outcome)
    return 0


def _cmd_ranking(args: argparse.Namespace) -> int:
    profile = _profile_from_args(args)
    outcome = _run_sweep_outcome(args, profile)
    histogram = perf.rank_orderings(outcome.matrix())
    print(
        report.render_rank_histogram(
            "Figure 6: ordering rank histogram "
            f"({len(profile.datasets) * len(profile.algorithms)} series)",
            histogram,
        )
    )
    failed = outcome.failed_cells()
    if failed:
        print()
        print(
            report.render_failures(
                f"{len(failed)} cell(s) missing from the ranking",
                list(failed.values()),
            )
        )
    return 0


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    profile = _profile_from_args(args)
    outcome = _run_sweep_outcome(args, profile)
    ok = len(outcome.results)
    failed = len(outcome.failures)
    print(
        f"sweep       : profile={profile.name} "
        f"cells={ok + failed} ok={ok} failed={failed} "
        f"resumed={outcome.resumed_cells}"
    )
    if args.checkpoint:
        print(f"checkpoint  : {args.checkpoint}")
    if args.save:
        perf.save_results(
            outcome.matrix(),
            args.save,
            metadata={"profile": profile.name},
            manifest=obs.run_manifest(
                profile=profile.name, seed=profile.seed,
                command="sweep run",
            ),
            failures=list(outcome.failures.values()),
        )
        print(f"archive     : {args.save}")
        print(f"digest      : {perf.archive_digest(args.save)}")
    if outcome.failures:
        print()
        print(
            report.render_failures(
                "Failed cells", list(outcome.failures.values())
            )
        )
    return 0


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    status = perf.checkpoint_status(args.checkpoint)
    print(f"checkpoint  : {status.path}")
    print(f"profile     : {status.profile}")
    print(f"fingerprint : {status.fingerprint}")
    print(
        f"cells       : {status.ok} ok, {status.failed} failed, "
        f"{status.pending} pending (of {status.total_cells})"
    )
    if status.failures:
        print()
        print(
            report.render_failures("Failed cells", status.failures)
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, serve

    specs = tuple(
        perf.parse_fault_spec(text)
        for text in (getattr(args, "inject", None) or ())
    )
    preload = tuple(
        part.strip()
        for part in (args.preload or "").split(",")
        if part.strip()
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        workers=args.serve_workers,
        queue_capacity=args.queue_capacity,
        default_deadline_seconds=args.default_deadline,
        max_deadline_seconds=args.max_deadline,
        retries=args.retries,
        backoff_seconds=args.backoff,
        store_root=args.store_root,
        drain_timeout_seconds=args.drain_timeout,
        plan=perf.FaultPlan(specs),
        preload=preload,
    )
    return serve(config)


def _cmd_stall(args: argparse.Namespace) -> int:
    profile = _profile_from_args(args)
    results = perf.cache_stall_split(profile, dataset_name=args.dataset)
    for ordering in ("original", "gorder"):
        block = {
            algorithm: results[(algorithm, ordering)]
            for algorithm in profile.algorithms
        }
        print(
            report.render_stall_split(
                f"Figure 1 ({ordering} order, {args.dataset})", block
            )
        )
        print()
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    profile = _profile_from_args(args)
    results = perf.cache_stats_table(profile, args.dataset)
    print(
        report.render_cache_stats(
            f"Table 3: PageRank cache statistics on {args.dataset}",
            results,
        )
    )
    return 0


def _cmd_ordering_time(args: argparse.Namespace) -> int:
    profile = _profile_from_args(args)
    times = perf.ordering_times(profile)
    headers = ["Ordering"] + list(profile.datasets)
    rows = [
        [ordering]
        + [f"{times[(ordering, ds)]:.2f}" for ds in profile.datasets]
        for ordering in profile.orderings
    ]
    print(
        report.render_table(
            headers, rows, title="Table 2: ordering time (seconds)"
        )
    )
    return 0


def _cmd_window(args: argparse.Namespace) -> int:
    profile = _profile_from_args(args)
    results = perf.window_sweep(profile, dataset_name=args.dataset)
    headers = ["window", "cycles(M)", "L1-mr", "order-time(s)"]
    rows = [
        [
            window,
            f"{result.cycles / 1e6:.2f}",
            f"{100 * result.stats.l1_miss_rate:.1f}%",
            f"{result.ordering_seconds:.2f}",
        ]
        for window, result in results.items()
    ]
    print(
        report.render_table(
            headers, rows,
            title=f"Figure 4: window sweep (PR on {args.dataset})",
        )
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.ordering import (
        amortization_table,
        average_gap,
        bandwidth,
        bits_per_edge,
        gorder_score,
        minla_energy,
    )
    from repro.ordering.select import PROBE

    graph = _load_graph(args)
    rows = amortization_table(PROBE, graph, ORDERING_NAMES, args.seed)
    headers = [
        "ordering", "F(pi)", "E_LA", "avg-gap", "bandwidth",
        "bits/edge", "L1-mr", "Cache-mr", "NQ cycles", "speedup",
        "order-s", "break-even",
    ]
    table = [
        [
            row.ordering,
            gorder_score(graph, row.perm),
            minla_energy(graph, row.perm),
            f"{average_gap(graph, row.perm):.0f}",
            bandwidth(graph, row.perm),
            f"{bits_per_edge(graph, row.perm):.2f}",
            f"{100 * row.stats.l1_miss_rate:.1f}%",
            f"{100 * row.stats.cache_miss_rate:.1f}%",
            f"{row.cycles / 1e6:.2f}M",
            f"{row.speedup:.3f}",
            f"{row.ordering_seconds:.3f}",
            report.format_break_even(row.break_even_runs),
        ]
        for row in sorted(rows, key=lambda row: row.cycles)
    ]
    print(
        report.render_table(
            headers, table,
            title=f"Ordering quality on {graph.name} "
            f"(fastest probe first; speedup and break-even against "
            f"{rows[0].ordering})",
        )
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.graph.stats import summarize

    headers = [
        "dataset", "nodes", "edges", "avg-deg", "max-in", "max-out",
        "reciprocity", "skew", "locality",
    ]
    if args.dataset or getattr(args, "input", None):
        graphs = [_load_graph(args)]
    else:
        graphs = [datasets.load(name) for name in datasets.DATASET_NAMES]
    rows = [summarize(graph).as_row() for graph in graphs]
    print(report.render_table(headers, rows,
                              title="Graph structural statistics"))
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.ordering import bits_per_edge

    graph = _load_graph(args)
    rows = []
    for name in ORDERING_NAMES:
        perm = compute_ordering(name, graph, seed=args.seed)
        rows.append([name, f"{bits_per_edge(graph, perm):.2f}"])
    rows.sort(key=lambda row: float(row[1]))
    print(
        report.render_table(
            ["ordering", "bits/edge"],
            rows,
            title=f"Gap-encoding cost of {graph.name} per ordering",
        )
    )
    return 0


def _cmd_reuse(args: argparse.Namespace) -> int:
    from repro.algorithms import run_arranged
    from repro.cache import (
        RecordingHierarchy,
        median_reuse_distance,
        miss_curve,
        reuse_distances,
        scaled_hierarchy,
    )
    from repro.graph import relabel

    graph = _load_graph(args)
    perm = compute_ordering(args.ordering, graph, seed=0)
    recorder = RecordingHierarchy(scaled_hierarchy())
    # Through run_arranged, so a source names the same logical node
    # under every ordering; the recorder makes the run step scalar.
    run_arranged(
        args.algorithm, relabel(graph, perm), perm, hierarchy=recorder
    )
    distances = reuse_distances(recorder.trace())
    curve = miss_curve(distances, [16, 64, 256, 1024])
    print(f"dataset   : {graph.name}")
    print(f"algorithm : {args.algorithm}")
    print(f"ordering  : {args.ordering}")
    print(f"accesses  : {distances.shape[0]} (line granularity)")
    print(f"median RD : {median_reuse_distance(distances):.0f} lines")
    for capacity, rate in curve.items():
        print(f"LRU {capacity:5d} lines -> miss rate {100 * rate:.1f}%")
    return 0


def _cmd_annealing(args: argparse.Namespace) -> int:
    minla = perf.annealing_sweep(dataset_name=args.dataset)
    minloga = perf.annealing_sweep(
        dataset_name=args.dataset, logarithmic=True
    )
    headers = ["steps_x", "k_x", "MinLA energy", "MinLogA energy"]
    rows = [
        [s, k, f"{energy:,.0f}", f"{minloga[s, k]:,.0f}"]
        for (s, k), energy in sorted(minla.items())
    ]
    print(
        report.render_table(
            headers, rows,
            title=f"Figure 3: annealing sweep on {args.dataset} "
            "(steps/energy as factors of defaults)",
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.suite == "algos":
        base = (
            perf.quick_algos_config() if args.quick
            else perf.AlgosBenchConfig()
        )
        overrides = {
            name: value
            for name, value in [
                ("dataset", args.dataset),
                ("iterations", args.iterations),
                ("hierarchy", args.hierarchy),
                ("num_sources", args.num_sources),
                ("repeats", args.repeats),
            ]
            if value is not None
        }
        config = replace(base, **overrides)
        payload = perf.run_algos_bench(config)
        print(perf.render_algos_bench(payload))
        out = args.out or "BENCH_algos.json"
    elif args.suite == "cache":
        base = (
            perf.quick_cache_config() if args.quick
            else perf.CacheBenchConfig()
        )
        overrides = {
            name: value
            for name, value in [
                ("dataset", args.dataset),
                ("iterations", args.iterations),
                ("hierarchy", args.hierarchy),
                ("repeats", args.repeats),
            ]
            if value is not None
        }
        config = replace(base, **overrides)
        payload = perf.run_cache_bench(config)
        print(perf.render_cache_bench(payload))
        out = args.out or "BENCH_cache.json"
    elif args.suite == "frontier":
        base = (
            perf.quick_frontier_config() if args.quick
            else perf.FrontierBenchConfig()
        )
        overrides = {
            name: value
            for name, value in [
                (
                    "datasets",
                    (args.dataset,) if args.dataset else None,
                ),
                ("query_volume", args.query_volume),
                ("seed", args.seed),
            ]
            if value is not None
        }
        config = replace(base, **overrides)
        payload = perf.run_frontier_bench(config)
        print(perf.render_frontier_bench(payload))
        out = args.out or "BENCH_selector.json"
    else:
        base = (
            perf.quick_config() if args.quick
            else perf.GorderBenchConfig()
        )
        overrides = {
            name: value
            for name, value in [
                ("nodes", args.nodes),
                ("edges_per_node", args.edges_per_node),
                ("window", args.window),
                ("num_parts", args.num_parts),
                ("workers", args.workers),
                ("seed", args.seed),
                ("repeats", args.repeats),
            ]
            if value is not None
        }
        if args.skip_partitioned:
            overrides["include_partitioned"] = False
        config = replace(base, **overrides)
        payload = perf.run_gorder_bench(config)
        print(perf.render_gorder_bench(payload))
        out = args.out or "BENCH_gorder.json"
    path = perf.write_bench_json(payload, out)
    print(f"wrote       : {path}")
    if args.append_history:
        record = perf.append_history(payload, args.append_history)
        quick = " quick" if record["quick"] else ""
        print(
            f"history     : {args.append_history} "
            f"(+1 {record['bench']}{quick} record)"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        DEFAULT_BASELINE,
        DEFAULT_PATHS,
        AnalysisError,
        Baseline,
        rule_versions,
        run_lint,
    )
    from repro.ioutil import atomic_write_text

    paths = tuple(args.paths) or DEFAULT_PATHS
    baseline_path = None if args.no_baseline else (
        args.baseline or DEFAULT_BASELINE
    )
    try:
        if args.write_baseline:
            report = run_lint(paths, baseline_path=None)
            target = args.baseline or DEFAULT_BASELINE
            Baseline.from_findings(
                report.findings, rule_versions=rule_versions()
            ).save(target)
            print(
                f"wrote {len(report.findings)} grandfathered "
                f"finding(s) to {target}"
            )
            return 0
        report = run_lint(
            paths, baseline_path=baseline_path, strict=args.strict
        )
    except AnalysisError as exc:
        print(f"lint error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    if args.out:
        atomic_write_text(args.out, report.render_json() + "\n")
    if args.exit_zero:
        return 0
    return report.exit_code()


def _cmd_deps(args: argparse.Namespace) -> int:
    from repro.analysis import AnalysisError, ProjectAnalysis

    try:
        project = ProjectAnalysis.build(tuple(args.paths) or ("src/repro",))
    except AnalysisError as exc:
        print(f"deps error: {exc}", file=sys.stderr)
        return 2
    graph = project.import_graph()
    cycles = project.import_cycles()
    deferred = project.deferred_edges()
    edge_count = sum(len(targets) for targets in graph.values())
    print(f"modules     : {len(graph)}")
    print(f"edges       : {edge_count} import-time, "
          f"{len(deferred)} deferred (function-level)")
    if args.show_graph:
        for module in sorted(graph):
            for target in sorted(graph[module]):
                print(f"  {module} -> {target}")
    if deferred and args.show_deferred:
        for importer, imported in deferred:
            print(f"  {importer} ~> {imported} (deferred)")
    if cycles:
        print(f"cycles      : {len(cycles)}")
        for component in cycles:
            print("  " + " <-> ".join(component))
    else:
        print("cycles      : none")
    if args.check_cycles and cycles:
        return 1
    return 0


def _cmd_telemetry_summary(args: argparse.Namespace) -> int:
    summary = obs.summarize_trace(args.trace)
    print(f"trace       : {summary.path}")
    print(f"events      : {summary.num_events}")
    if summary.manifest:
        manifest = summary.manifest
        sha = manifest.get("git_sha") or "unknown"
        print(
            f"produced by : repro {manifest.get('repro_version', '?')} "
            f"@ {str(sha)[:12]}, python {manifest.get('python', '?')}, "
            f"numpy {manifest.get('numpy', '?')}"
        )
        if manifest.get("profile") or manifest.get("seed") is not None:
            print(
                f"run         : profile={manifest.get('profile')} "
                f"seed={manifest.get('seed')}"
            )
    if summary.unclosed:
        print(f"warning     : {summary.unclosed} span(s) never closed")
    if summary.spans:
        rows = [
            [
                span.name,
                span.count,
                f"{span.total_seconds:.4f}",
                f"{1e3 * span.mean_seconds:.2f}",
                f"{1e3 * span.max_seconds:.2f}",
            ]
            for span in summary.spans[: args.top]
        ]
        print()
        print(
            report.render_table(
                ["span", "count", "total(s)", "mean(ms)", "max(ms)"],
                rows,
                title=f"Top spans by total time (of {len(summary.spans)})",
            )
        )
    if summary.counters:
        print()
        print(
            report.render_table(
                ["counter", "total"],
                [
                    [name, value]
                    for name, value in sorted(summary.counters.items())
                ],
                title="Counter totals",
            )
        )
    if not summary.spans and not summary.counters:
        print("no spans or counters in this trace")
    return 0


def _cmd_telemetry_tree(args: argparse.Namespace) -> int:
    from repro.obs.trace import build_span_tree, render_tree

    tree = build_span_tree(args.trace)
    print(
        render_tree(
            tree, max_depth=args.depth, min_seconds=args.min_seconds
        )
    )
    return 0


def _cmd_telemetry_critical_path(args: argparse.Namespace) -> int:
    from repro.obs.trace import build_span_tree, render_critical_path

    print(render_critical_path(build_span_tree(args.trace)))
    return 0


def _cmd_telemetry_diff(args: argparse.Namespace) -> int:
    from repro.obs.trace import diff_traces, render_diff

    print(render_diff(diff_traces(args.a, args.b), top=args.top))
    return 0


def _cmd_telemetry_flamegraph(args: argparse.Namespace) -> int:
    from repro.obs.trace import (
        build_span_tree,
        folded_stacks,
        render_folded,
    )

    tree = build_span_tree(args.trace)
    folded = render_folded(folded_stacks(tree, weight=args.weight))
    if args.output:
        from repro.ioutil import atomic_write_text

        atomic_write_text(args.output, folded + "\n" if folded else "")
        stacks = folded.count("\n") + 1 if folded else 0
        print(f"wrote       : {args.output} ({stacks} stack(s))")
    elif folded:
        print(folded)
    return 0


def _cmd_trends(args: argparse.Namespace) -> int:
    import json

    history_path = args.history or perf.DEFAULT_HISTORY
    for bench_json in args.ingest or ():
        try:
            with open(bench_json, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(
                f"error: cannot read {bench_json}: {exc}",
                file=sys.stderr,
            )
            return 2
        record = perf.append_history(payload, history_path)
        quick = " quick" if record["quick"] else ""
        print(
            f"ingested    : {bench_json} -> {history_path} "
            f"({record['bench']}{quick})"
        )
    trend = perf.check_trends(
        history_path,
        threshold=(
            args.threshold if args.threshold is not None
            else perf.DEFAULT_TREND_THRESHOLD
        ),
        window=(
            args.window if args.window is not None
            else perf.DEFAULT_TREND_WINDOW
        ),
    )
    print(perf.render_trends(trend))
    if args.check and not trend.ok:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gorder",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # Telemetry flags are accepted by every subcommand (argparse only
    # resolves flags placed after the subcommand via parents=).
    telemetry_flags = argparse.ArgumentParser(add_help=False)
    group = telemetry_flags.add_argument_group("telemetry")
    group.add_argument(
        "--log-level",
        choices=sorted(obs.LEVELS),
        default=None,
        help="emit telemetry events to stderr at this level",
    )
    group.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="write a JSONL telemetry trace to PATH",
    )
    group.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="alias for --log-level info",
    )
    # Ordering flags (strict for `order`/`run`; the profile-wide
    # commands apply each to the orderings that declare it).
    ordering_flags = argparse.ArgumentParser(add_help=False)
    group = ordering_flags.add_argument_group("ordering")
    group.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=None,
        help="process-pool size for partitioned orderings",
    )
    group.add_argument(
        "--query-volume",
        type=float,
        metavar="Q",
        default=None,
        help="modelled queries for `--ordering auto` amortisation "
             "(default 100000)",
    )
    # Sweep-engine flags shared by the matrix commands.
    sweep_flags = argparse.ArgumentParser(add_help=False)
    group = sweep_flags.add_argument_group("fault tolerance")
    group.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="journal completed cells to PATH (JSONL)",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="replay completed cells from --checkpoint",
    )
    group.add_argument(
        "--cell-timeout",
        type=float,
        metavar="SEC",
        default=None,
        help="wall-clock budget per cell attempt",
    )
    group.add_argument(
        "--retries",
        type=int,
        metavar="N",
        default=0,
        help="re-attempts for a failed/timed-out cell",
    )
    group.add_argument(
        "--backoff",
        type=float,
        metavar="SEC",
        default=0.0,
        help="base backoff between retries (doubles per attempt)",
    )
    group.add_argument(
        "--isolate",
        action="store_true",
        help="run each cell in a spawned subprocess",
    )
    group.add_argument(
        "--strict",
        action="store_true",
        help="abort on the first failed cell (fail-fast)",
    )
    group.add_argument(
        "--inject",
        action="append",
        metavar="SPEC",
        default=None,
        help="inject a deterministic fault (testing; see "
             "docs/robustness.md)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, parents=[telemetry_flags], **kwargs)
        p.set_defaults(func=func)
        return p

    add("datasets", _cmd_datasets, help="list the dataset analogues")

    p = sub.add_parser(
        "order", parents=[telemetry_flags, ordering_flags],
        help="compute a node arrangement",
    )
    p.set_defaults(func=_cmd_order)
    p.add_argument("--dataset", default="epinion",
                   help="dataset analogue name")
    p.add_argument("--input", help="edge-list file instead of a dataset")
    p.add_argument("--ordering", default="gorder",
                   choices=ALL_ORDERING_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="write the arrangement here")

    p = sub.add_parser(
        "run", parents=[telemetry_flags, ordering_flags],
        help="simulate one algorithm run",
    )
    p.set_defaults(func=_cmd_run)
    p.add_argument("--dataset", default="pokec")
    p.add_argument("--input", help="edge-list file instead of a dataset")
    p.add_argument("--algorithm", default="pr", choices=ALGORITHM_NAMES)
    p.add_argument("--ordering", default="gorder",
                   choices=ALL_ORDERING_NAMES)
    p.add_argument("--profile", default=None)

    for name, func, help_text in [
        ("speedup", _cmd_speedup, "Figure 5: relative runtimes"),
        ("ranking", _cmd_ranking, "Figure 6: rank histogram"),
    ]:
        p = sub.add_parser(
            name,
            parents=[telemetry_flags, sweep_flags, ordering_flags],
            help=help_text,
        )
        p.set_defaults(func=func)
        p.add_argument("--profile", default=None)

    p = sub.add_parser(
        "ordering-time", parents=[telemetry_flags, ordering_flags],
        help="Table 2: ordering time",
    )
    p.set_defaults(func=_cmd_ordering_time)
    p.add_argument("--profile", default=None)

    p = add("sweep", _cmd_sweep_run,
            help="fault-tolerant matrix sweep (run/status)")
    sweep_sub = p.add_subparsers(dest="sweep_command", required=True)
    p = sweep_sub.add_parser(
        "run",
        parents=[telemetry_flags, sweep_flags, ordering_flags],
        help="run the speedup matrix through the sweep engine",
    )
    p.set_defaults(func=_cmd_sweep_run)
    p.add_argument("--profile", default=None)
    p.add_argument("--save", metavar="PATH", default=None,
                   help="write the archive (schema v3) to PATH")
    p = sweep_sub.add_parser(
        "status", parents=[telemetry_flags],
        help="summarise a sweep checkpoint journal",
    )
    p.set_defaults(func=_cmd_sweep_status)
    p.add_argument("checkpoint", help="path to a checkpoint journal")

    p = add("serve", _cmd_serve,
            help="ordering-as-a-service daemon (see docs/serving.md)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = ephemeral, printed)")
    p.add_argument("--socket", metavar="PATH", default=None,
                   help="serve on a unix socket instead of TCP")
    p.add_argument("--workers", dest="serve_workers", type=int,
                   default=2, metavar="N",
                   help="compute worker threads (default 2)")
    p.add_argument("--queue-capacity", type=int, default=8,
                   metavar="N",
                   help="waiting requests before 429 (default 8)")
    p.add_argument("--default-deadline", type=float, default=30.0,
                   metavar="SEC",
                   help="deadline when a request names none")
    p.add_argument("--max-deadline", type=float, default=300.0,
                   metavar="SEC",
                   help="ceiling on any request deadline")
    p.add_argument("--retries", type=int, default=1, metavar="N",
                   help="re-attempts after transient worker failures")
    p.add_argument("--backoff", type=float, default=0.05,
                   metavar="SEC",
                   help="base backoff between retries (doubles)")
    p.add_argument("--store-root", metavar="DIR", default=None,
                   help="ordering spill directory (crash-safe warm "
                        "set; default: memory only)")
    p.add_argument("--drain-timeout", type=float, default=5.0,
                   metavar="SEC",
                   help="drain wait before cancelling in-flight work")
    p.add_argument("--preload", metavar="DATASETS", default=None,
                   help="comma-separated datasets to load at startup")
    p.add_argument("--inject", action="append", metavar="SPEC",
                   default=None,
                   help="inject a deterministic fault (testing; see "
                        "docs/robustness.md)")

    p = sub.add_parser(
        "stall", parents=[telemetry_flags],
        help="Figure 1: execute vs stall",
    )
    p.set_defaults(func=_cmd_stall)
    p.add_argument("--dataset", default="sdarc")
    p.add_argument("--profile", default=None)

    p = sub.add_parser(
        "cache-stats", parents=[telemetry_flags],
        help="Table 3: PR cache statistics",
    )
    p.set_defaults(func=_cmd_cache_stats)
    p.add_argument("--dataset", default="flickr")
    p.add_argument("--profile", default=None)

    p = sub.add_parser(
        "window", parents=[telemetry_flags],
        help="Figure 4: window sweep",
    )
    p.set_defaults(func=_cmd_window)
    p.add_argument("--dataset", default="flickr")
    p.add_argument("--profile", default=None)

    p = add("annealing", _cmd_annealing, help="Figure 3: SA sweep")
    p.add_argument("--dataset", default="epinion")

    p = add("evaluate", _cmd_evaluate,
            help="compare every ordering's quality on one graph")
    p.add_argument("--dataset", default="epinion")
    p.add_argument("--input", help="edge-list file instead of a dataset")
    p.add_argument("--seed", type=int, default=0)

    p = add("stats", _cmd_stats,
            help="structural statistics of datasets")
    p.add_argument("--dataset", default=None)
    p.add_argument("--input", help="edge-list file instead of a dataset")

    p = add("compress", _cmd_compress,
            help="gap-encoding cost per ordering")
    p.add_argument("--dataset", default="epinion")
    p.add_argument("--input", help="edge-list file instead of a dataset")
    p.add_argument("--seed", type=int, default=0)

    p = add("reuse", _cmd_reuse,
            help="reuse-distance profile of one run")
    p.add_argument("--dataset", default="epinion")
    p.add_argument("--input", help="edge-list file instead of a dataset")
    p.add_argument("--algorithm", default="nq", choices=ALGORITHM_NAMES)
    p.add_argument("--ordering", default="gorder",
                   choices=ALL_ORDERING_NAMES)

    p = add("bench", _cmd_bench,
            help="perf benchmarks (Gorder kernel / cache replay / "
                 "frontier runtime)")
    p.add_argument("--suite",
                   choices=("gorder", "cache", "algos", "frontier"),
                   default="gorder",
                   help="gorder: ordering kernel (BENCH_gorder.json); "
                        "cache: trace-replay simulator backend "
                        "(BENCH_cache.json); algos: frontier-runtime "
                        "vs scalar emitters (BENCH_algos.json); "
                        "frontier: the auto selector against its "
                        "probe oracle and the algorithm suite "
                        "(BENCH_selector.json)")
    p.add_argument("--quick", action="store_true",
                   help="small smoke configuration (CI bench job)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output JSON path (default BENCH_<suite>.json)")
    p.add_argument("--dataset", default=None,
                   help="cache/algos/frontier suites: dataset for "
                        "the runs")
    p.add_argument("--query-volume", type=float, default=None,
                   help="frontier suite: modelled queries for the "
                        "amortisation decision")
    p.add_argument("--iterations", type=int, default=None,
                   help="cache/algos suites: traced sweep iterations")
    p.add_argument("--hierarchy", choices=("paper", "scaled"),
                   default=None,
                   help="cache/algos suites: simulated hierarchy")
    p.add_argument("--num-sources", type=int, default=None,
                   help="algos suite: diameter SP repetitions")
    p.add_argument("--nodes", type=int, default=None,
                   help="benchmark graph size (default 50000)")
    p.add_argument("--edges-per-node", type=int, default=None,
                   help="average out-degree of the benchmark graph")
    p.add_argument("--window", type=int, default=None,
                   help="Gorder window (default 5)")
    p.add_argument("--num-parts", type=int, default=None,
                   help="partitions for the partitioned section")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for the partitioned section")
    p.add_argument("--seed", type=int, default=None,
                   help="benchmark graph seed")
    p.add_argument("--repeats", type=int, default=None,
                   help="timing repeats per kernel (best-of)")
    p.add_argument("--skip-partitioned", action="store_true",
                   help="skip the partitioned workers comparison")
    p.add_argument("--append-history", metavar="PATH", default=None,
                   help="also append the result to this trend-history "
                        "journal (see `trends`)")

    p = add("trends", _cmd_trends,
            help="bench trend report and regression gate")
    p.add_argument("--history", metavar="PATH", default=None,
                   help="history journal (default bench_history.jsonl)")
    p.add_argument("--ingest", action="append", metavar="BENCH_JSON",
                   default=None,
                   help="append bench JSON payload(s) to the history "
                        "before reporting (repeatable)")
    p.add_argument("--check", action="store_true",
                   help="exit 1 when any metric regresses past the "
                        "gate")
    p.add_argument("--threshold", type=float, default=None,
                   help="regression gate as a fraction (default 0.20)")
    p.add_argument("--window", type=int, default=None,
                   help="rolling-baseline window (default 5 entries)")

    p = add("lint", _cmd_lint,
            help="repo-invariant static analysis (REP rules)")
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default src/repro)")
    p.add_argument("--format", choices=("text", "json"),
                   default="text", help="report format on stdout")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write the JSON report to PATH")
    p.add_argument("--baseline", metavar="PATH", default=None,
                   help="baseline file (default lint_baseline.json "
                        "when present)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any baseline file")
    p.add_argument("--write-baseline", action="store_true",
                   help="grandfather current findings into the "
                        "baseline and exit 0")
    p.add_argument("--strict", action="store_true",
                   help="fail on warnings and stale baseline entries "
                        "too")
    p.add_argument("--exit-zero", action="store_true",
                   help="report findings but always exit 0")

    p = add("deps", _cmd_deps,
            help="project import graph: layering, cycles, deferred "
                 "edges")
    p.add_argument("paths", nargs="*",
                   help="directories to analyse (default src/repro)")
    p.add_argument("--show-graph", action="store_true",
                   help="print every import-time edge")
    p.add_argument("--show-deferred", action="store_true",
                   help="print function-level (deferred) edges")
    p.add_argument("--check-cycles", action="store_true",
                   help="exit 1 when any import cycle exists")

    p = add("telemetry", _cmd_telemetry_summary,
            help="trace analytics: summary, span tree, critical "
                 "path, diff, flamegraph")
    tele_sub = p.add_subparsers(
        dest="telemetry_command", required=True
    )
    p = tele_sub.add_parser(
        "summary", parents=[telemetry_flags],
        help="per-span totals and counter table",
    )
    p.set_defaults(func=_cmd_telemetry_summary)
    p.add_argument("trace", help="path to a JSONL trace file")
    p.add_argument("--top", type=int, default=15,
                   help="show this many spans (default 15)")
    p = tele_sub.add_parser(
        "tree", parents=[telemetry_flags],
        help="reconstructed span tree with self/total time",
    )
    p.set_defaults(func=_cmd_telemetry_tree)
    p.add_argument("trace", help="path to a JSONL trace file")
    p.add_argument("--depth", type=int, default=None,
                   help="only show spans this deep (default: all)")
    p.add_argument("--min-seconds", type=float, default=0.0,
                   help="hide spans with total time below this")
    p = tele_sub.add_parser(
        "critical-path", parents=[telemetry_flags],
        help="heaviest root-to-leaf span chain",
    )
    p.set_defaults(func=_cmd_telemetry_critical_path)
    p.add_argument("trace", help="path to a JSONL trace file")
    p = tele_sub.add_parser(
        "diff", parents=[telemetry_flags],
        help="counter and span-time deltas between two traces",
    )
    p.set_defaults(func=_cmd_telemetry_diff)
    p.add_argument("a", help="baseline JSONL trace")
    p.add_argument("b", help="comparison JSONL trace")
    p.add_argument("--top", type=int, default=15,
                   help="show this many span deltas (default 15)")
    p = tele_sub.add_parser(
        "flamegraph", parents=[telemetry_flags],
        help="folded stacks (flamegraph.pl / speedscope input)",
    )
    p.set_defaults(func=_cmd_telemetry_flamegraph)
    p.add_argument("trace", help="path to a JSONL trace file")
    p.add_argument("--weight", choices=("wall", "cpu"),
                   default="wall",
                   help="frame weight: wall-clock or CPU self time")
    p.add_argument("-o", "--output", metavar="PATH", default=None,
                   help="write folded stacks here instead of stdout")

    return parser


def _configure_telemetry(args: argparse.Namespace) -> bool:
    """Enable telemetry when any log flag was given.  True if enabled."""
    level = getattr(args, "log_level", None)
    if level is None and getattr(args, "verbose", False):
        level = "info"
    jsonl_path = getattr(args, "log_json", None)
    if level is None and jsonl_path is None:
        return False
    obs.configure(
        level=level or "info",
        jsonl_path=jsonl_path,
        text_stream=sys.stderr if level is not None else None,
    )
    obs.emit_manifest(
        profile=getattr(args, "profile", None),
        seed=getattr(args, "seed", None),
        command=args.command,
    )
    return True


_TELEMETRY_ACTIONS = frozenset(
    ("summary", "tree", "critical-path", "diff", "flamegraph")
)


def _normalise_argv(argv: list[str]) -> list[str]:
    """``telemetry TRACE`` still means ``telemetry summary TRACE``.

    The analytics actions arrived after ``repro-gorder telemetry
    trace.jsonl`` had shipped; when the first non-flag token after
    ``telemetry`` is not a known action, ``summary`` is inserted so
    recorded invocations keep working.
    """
    for position, token in enumerate(argv):
        if token.startswith("-"):
            continue
        if token != "telemetry":
            return argv
        for following in argv[position + 1:]:
            if following in ("-h", "--help"):
                return argv
            if following.startswith("-"):
                continue
            if following in _TELEMETRY_ACTIONS:
                return argv
            return (
                argv[: position + 1]
                + ["summary"]
                + argv[position + 1:]
            )
        return argv
    return argv


def main(argv: list[str] | None = None) -> int:
    from repro.perf import SweepKill

    parser = build_parser()
    args = parser.parse_args(_normalise_argv(
        sys.argv[1:] if argv is None else list(argv)
    ))
    configured = False
    try:
        configured = _configure_telemetry(args)
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Completed cells were flushed to the checkpoint per cell; no
        # traceback, conventional 128+SIGINT exit code.
        checkpoint = getattr(args, "checkpoint", None)
        hint = (
            f" — resume with --resume --checkpoint {checkpoint}"
            if checkpoint
            else ""
        )
        print(f"interrupted; completed cells are saved{hint}",
              file=sys.stderr)
        return 130
    except SweepKill as exc:
        # Injected hard kill (fault-injection harness / CI smoke).
        print(f"sweep killed: {exc}", file=sys.stderr)
        return 137
    except BrokenPipeError:
        # Output piped into a pager/head that exited early.  Point
        # stdout at devnull so the interpreter's shutdown flush does
        # not raise a second time, and exit with the SIGPIPE code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if configured:
            obs.emit_counters()
            obs.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
