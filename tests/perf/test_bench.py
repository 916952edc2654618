"""The Gorder benchmark-regression harness (quick-sized)."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.perf import bench
from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    BenchRegressionError,
    GorderBenchConfig,
    quick_config,
    render_gorder_bench,
    run_gorder_bench,
    write_bench_json,
)


@pytest.fixture(scope="module")
def payload():
    """One shared quick benchmark run (module-scoped: it costs time)."""
    return run_gorder_bench(quick_config(nodes=400, workers=2))


class TestConfig:
    def test_defaults_meet_acceptance_floor(self):
        config = GorderBenchConfig()
        assert config.nodes >= 50_000
        assert config.nodes * config.edges_per_node >= 500_000

    def test_quick_config_is_small(self):
        config = quick_config()
        assert config.quick
        assert config.nodes < 10_000

    def test_quick_config_overrides(self):
        config = quick_config(nodes=123, window=2)
        assert config.nodes == 123
        assert config.window == 2
        assert config.quick


class TestPayloadSchema:
    def test_top_level_fields(self, payload):
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert payload["bench"] == "gorder_kernel"
        assert payload["quick"] is True
        assert payload["identical"] is True
        assert payload["speedup_batched_vs_loop"] > 0
        assert "manifest" in payload

    def test_graph_section(self, payload):
        graph = payload["graph"]
        assert graph["generator"] == "social_graph"
        assert graph["nodes"] == 400
        assert graph["edges"] > 0

    def test_kernel_sections(self, payload):
        loop = payload["kernels"]["loop"]
        batched = payload["kernels"]["batched"]
        assert loop["seconds"] > 0 and batched["seconds"] > 0
        # Same greedy, so identical event streams.
        assert loop["heap_pops"] == batched["heap_pops"]
        assert loop["unit_updates"] == batched["unit_updates"]
        assert loop["unit_updates"] > 0
        assert set(loop) == set(batched)

    def test_partitioned_section(self, payload):
        partitioned = payload["partitioned"]
        assert partitioned["identical"] is True
        assert partitioned["workers"] == 2
        assert partitioned["workers_1_seconds"] > 0
        assert partitioned["speedup"] > 0

    def test_json_round_trip(self, payload, tmp_path):
        path = write_bench_json(payload, tmp_path / "bench.json")
        assert json.loads(path.read_text()) == payload

    def test_render_mentions_key_numbers(self, payload):
        text = render_gorder_bench(payload)
        assert "speedup" in text
        assert "identical   : yes" in text
        assert "partitioned" in text


class TestSkipPartitioned:
    def test_partitioned_null_when_skipped(self):
        payload = run_gorder_bench(
            quick_config(nodes=300, include_partitioned=False)
        )
        assert payload["partitioned"] is None
        assert "partitioned" not in render_gorder_bench(payload)


class TestRegressionGuard:
    def test_divergence_raises(self, monkeypatch):
        """A wrong answer must never be blessed with a timing."""

        def fake_sequence(graph, window=5):
            return np.arange(graph.num_nodes, dtype=np.int64)[::-1].copy()

        monkeypatch.setattr(bench, "gorder_sequence", fake_sequence)
        with pytest.raises(BenchRegressionError):
            run_gorder_bench(
                quick_config(nodes=50, include_partitioned=False)
            )


class TestBenchCLI:
    def test_quick_bench_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_gorder.json"
        code = main([
            "bench", "--quick", "--nodes", "300",
            "--skip-partitioned", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["identical"] is True
        assert payload["quick"] is True
        assert "speedup" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Cache trace-replay suite
# ----------------------------------------------------------------------
from repro.perf.bench import (  # noqa: E402
    CacheBenchConfig,
    quick_cache_config,
    render_cache_bench,
    run_cache_bench,
)


@pytest.fixture(scope="module")
def cache_payload():
    """One shared quick cache benchmark run (module-scoped)."""
    return run_cache_bench(quick_cache_config())


class TestCacheConfig:
    def test_defaults_are_the_acceptance_workload(self):
        config = CacheBenchConfig()
        assert config.dataset == "sdarc"
        assert config.iterations == 5
        assert config.hierarchy == "paper"

    def test_quick_config_is_small(self):
        config = quick_cache_config()
        assert config.quick
        assert config.dataset != "sdarc"

    def test_quick_config_overrides(self):
        config = quick_cache_config(iterations=1, repeats=2)
        assert config.iterations == 1
        assert config.repeats == 2
        assert config.quick

    def test_unknown_hierarchy_rejected(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="hierarchy"):
            run_cache_bench(quick_cache_config(hierarchy="l4"))


class TestCachePayloadSchema:
    def test_top_level_fields(self, cache_payload):
        assert (
            cache_payload["schema_version"] == BENCH_SCHEMA_VERSION
        )
        assert cache_payload["bench"] == "cache_replay"
        assert cache_payload["quick"] is True
        assert cache_payload["identical"] is True

    def test_backend_sections(self, cache_payload):
        backends = cache_payload["backends"]
        for name in ("step", "replay"):
            assert backends[name]["seconds"] >= 0
            assert backends[name]["accesses_per_second"] > 0
        assert cache_payload["speedup_replay_vs_step"] > 0

    def test_workload_section(self, cache_payload):
        workload = cache_payload["workload"]
        assert workload["dataset"] == "epinion"
        assert workload["accesses"] > 0
        assert workload["demand_accesses"] <= workload["accesses"]

    def test_end_to_end_section(self, cache_payload):
        end_to_end = cache_payload["end_to_end"]
        assert end_to_end["identical"] is True
        assert end_to_end["speedup"] > 0

    def test_level_counts_sum_to_demand_plus_extra(self, cache_payload):
        workload = cache_payload["workload"]
        assert sum(cache_payload["level_counts"]) == (
            workload["total_refs"]
        )

    def test_json_round_trip(self, cache_payload, tmp_path):
        path = write_bench_json(
            cache_payload, tmp_path / "BENCH_cache.json"
        )
        assert json.loads(path.read_text()) == cache_payload

    def test_render_mentions_key_numbers(self, cache_payload):
        text = render_cache_bench(cache_payload)
        assert "replay vs step" in text
        assert "identical   : yes" in text


class TestCacheRegressionGuard:
    def test_divergence_raises(self, monkeypatch):
        """A wrong answer must never be blessed with a timing."""
        from repro.cache.hierarchy import CacheHierarchy

        real_replay = CacheHierarchy.replay

        def corrupted(self, lines):
            serving = real_replay(self, lines)
            if serving.shape[0]:
                serving[0] = serving[0] + 1
            return serving

        monkeypatch.setattr(CacheHierarchy, "replay", corrupted)
        with pytest.raises(BenchRegressionError):
            run_cache_bench(quick_cache_config(iterations=1))


class TestCacheBenchCLI:
    def test_quick_cache_bench_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_cache.json"
        code = main(
            ["bench", "--suite", "cache", "--quick", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["bench"] == "cache_replay"
        assert payload["identical"] is True
        assert "replay vs step" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Algorithm-runtime suite
# ----------------------------------------------------------------------
import numpy as np  # noqa: E402

from repro.perf.bench import (  # noqa: E402
    RUNTIME_ALGORITHMS,
    AlgosBenchConfig,
    quick_algos_config,
    render_algos_bench,
    run_algos_bench,
)


@pytest.fixture(scope="module")
def algos_payload():
    """One shared quick algos benchmark run (module-scoped)."""
    return run_algos_bench(quick_algos_config())


class TestAlgosConfig:
    def test_defaults_are_the_acceptance_workload(self):
        config = AlgosBenchConfig()
        assert config.dataset == "sdarc"
        assert config.hierarchy == "scaled"
        assert config.iterations == 5
        assert not config.quick

    def test_quick_config_is_small(self):
        config = quick_algos_config()
        assert config.quick
        assert config.dataset != "sdarc"

    def test_quick_config_overrides(self):
        config = quick_algos_config(iterations=1, repeats=2)
        assert config.iterations == 1
        assert config.repeats == 2
        assert config.quick

    def test_unknown_hierarchy_rejected(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="hierarchy"):
            run_algos_bench(quick_algos_config(hierarchy="l4"))


class TestAlgosPayloadSchema:
    def test_top_level_fields(self, algos_payload):
        assert algos_payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert algos_payload["bench"] == "algos_runtime"
        assert algos_payload["quick"] is True
        assert algos_payload["identical"] is True

    def test_every_ported_algorithm_present(self, algos_payload):
        entries = algos_payload["algorithms"]
        assert tuple(entries) == RUNTIME_ALGORITHMS
        for entry in entries.values():
            assert entry["scalar_seconds"] >= 0
            assert entry["runtime_seconds"] >= 0
            assert entry["speedup"] > 0
            assert entry["identical"] is True
            assert entry["total_refs"] > 0
            assert sum(entry["level_counts"]) == entry["total_refs"]
            sim = entry["simulate_seconds"]
            assert sim["scalar"] >= 0 and sim["runtime"] >= 0

    def test_totals_and_headline(self, algos_payload):
        totals = algos_payload["totals"]
        per_algo = algos_payload["algorithms"].values()
        assert totals["scalar_seconds"] == pytest.approx(
            sum(e["scalar_seconds"] for e in per_algo)
        )
        assert algos_payload["speedup_runtime_vs_scalar"] > 0
        with_sim = algos_payload["with_simulation"]
        assert with_sim["scalar_seconds"] >= totals["scalar_seconds"]
        assert with_sim["speedup"] > 0

    def test_workload_section(self, algos_payload):
        workload = algos_payload["workload"]
        assert workload["dataset"] == "epinion"
        assert workload["nodes"] > 0
        assert workload["algorithms"] == list(RUNTIME_ALGORITHMS)

    def test_json_round_trip(self, algos_payload, tmp_path):
        path = write_bench_json(
            algos_payload, tmp_path / "BENCH_algos.json"
        )
        assert json.loads(path.read_text()) == algos_payload

    def test_render_mentions_key_numbers(self, algos_payload):
        text = render_algos_bench(algos_payload)
        assert "runtime vs scalar" in text
        assert "incl. LRU simulation" in text
        assert "identical   : yes" in text


class TestAlgosRegressionGuard:
    def test_divergence_raises(self, monkeypatch):
        """An emitter that changes results must never get a timing."""
        from repro.algorithms import base as algorithms

        real = algorithms.traced_fn

        def crooked(spec, backend="runtime"):
            fn = real(spec, backend)
            if backend != "scalar":
                return fn

            def wrapper(graph, memory, **params):
                return np.asarray(fn(graph, memory, **params)) + 1

            return wrapper

        monkeypatch.setattr(algorithms, "traced_fn", crooked)
        with pytest.raises(BenchRegressionError):
            run_algos_bench(quick_algos_config())


class TestAlgosBenchCLI:
    def test_quick_algos_bench_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_algos.json"
        code = main(
            ["bench", "--suite", "algos", "--quick", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["bench"] == "algos_runtime"
        assert payload["identical"] is True
        assert "speedup" in capsys.readouterr().out


@pytest.fixture(scope="module")
def frontier_payload():
    from repro.perf.bench import (
        quick_frontier_config,
        run_frontier_bench,
    )

    return run_frontier_bench(quick_frontier_config())


class TestFrontierBench:
    def test_quick_config_is_single_dataset(self):
        from repro.perf.bench import quick_frontier_config

        config = quick_frontier_config()
        assert config.quick
        assert config.datasets == ("epinion",)

    def test_payload_schema(self, frontier_payload):
        assert (
            frontier_payload["schema_version"] == BENCH_SCHEMA_VERSION
        )
        assert frontier_payload["bench"] == "selector_frontier"
        assert frontier_payload["within_tolerance"] is True
        assert frontier_payload["max_regret"] >= 0
        assert frontier_payload["max_suite_regret"] >= 0
        assert frontier_payload["workload"]["suite"] == [
            "nq", "bfs", "dfs", "scc", "sp", "pr", "ds", "kcore", "diam",
        ]
        assert "pruned" not in json.dumps(frontier_payload)
        assert "manifest" in frontier_payload

    def test_dataset_entries(self, frontier_payload):
        for entry in frontier_payload["datasets"].values():
            assert entry["nodes"] > 0
            assert entry["selected"]["cycles"] > 0
            assert entry["oracle"]["cycles"] > 0
            assert entry["regret"] >= 0
            assert entry["within_tolerance"] is True
            labels = [row["label"] for row in entry["rows"]]
            assert entry["selected"]["label"] in labels
            assert entry["oracle"]["label"] in labels
            # The suite measured the same candidates, in order.
            assert [row["label"] for row in entry["suite_rows"]] == labels
            assert entry["suite_best"] in labels
            assert entry["predictors"]["degree_skew"] >= 1.0

    def test_selector_within_tolerance_of_oracle(
        self, frontier_payload
    ):
        """Acceptance: chosen probe cycles within 10% of oracle-best
        on every benchmarked dataset."""
        for entry in frontier_payload["datasets"].values():
            oracle = entry["oracle"]["cycles"]
            chosen = entry["selected"]["cycles"]
            assert chosen <= 1.10 * oracle

    def test_selector_within_tolerance_of_suite(self, frontier_payload):
        """Acceptance: the chosen candidate's suite cycles within 10%
        of the suite's best candidate on every benchmarked dataset."""
        for entry in frontier_payload["datasets"].values():
            suite = {
                row["label"]: row["cycles"] for row in entry["suite_rows"]
            }
            chosen = suite[entry["selected"]["label"]]
            best = min(suite.values())
            assert suite[entry["suite_best"]] == best
            assert entry["suite_regret"] == pytest.approx(chosen / best - 1)
            assert entry["suite_regret"] <= 0.10

    def test_json_round_trip(self, frontier_payload, tmp_path):
        path = write_bench_json(
            frontier_payload, tmp_path / "BENCH_selector.json"
        )
        assert json.loads(path.read_text()) == frontier_payload

    def test_render_mentions_selection(self, frontier_payload):
        from repro.perf.bench import render_frontier_bench

        text = render_frontier_bench(frontier_payload)
        assert "selected" in text
        assert "max regret" in text
        assert "break-even" in text

    def test_negative_tolerance_rejected(self):
        from repro.errors import InvalidParameterError
        from repro.perf.bench import (
            quick_frontier_config,
            run_frontier_bench,
        )

        with pytest.raises(InvalidParameterError):
            run_frontier_bench(quick_frontier_config(tolerance=-1.0))

    def test_regression_guard_raises_past_tolerance(
        self, monkeypatch
    ):
        """A selector that misses the oracle by more than the
        tolerance must fail the benchmark, not report it."""
        from dataclasses import replace

        from repro.ordering import select as select_module
        from repro.perf.bench import (
            quick_frontier_config,
            run_frontier_bench,
        )

        real = select_module.select_ordering

        def myopic(graph, **kwargs):
            decision = real(graph, **kwargs)
            inflated = replace(
                decision.chosen,
                cycles=decision.chosen.cycles * 10,
            )
            return replace(decision, chosen=inflated)

        monkeypatch.setattr(
            select_module, "select_ordering", myopic
        )
        with pytest.raises(BenchRegressionError, match="frontier"):
            run_frontier_bench(quick_frontier_config())

    def test_suite_guard_raises_past_tolerance(self, monkeypatch):
        """A pick that wins its probe but loses the suite it stands
        for fails the benchmark too."""
        from dataclasses import replace

        from repro.ordering import select as select_module
        from repro.perf.bench import (
            quick_frontier_config,
            run_frontier_bench,
        )

        real = select_module.amortization_table

        def baseline_wins_suite(workload, graph, configs, seed=0):
            rows = real(workload, graph, configs, seed)
            if workload is select_module.PROBE:
                return rows
            return [rows[0]] + [
                replace(row, cycles=row.cycles * 10) for row in rows[1:]
            ]

        monkeypatch.setattr(
            select_module, "amortization_table", baseline_wins_suite
        )
        with pytest.raises(BenchRegressionError, match="suite"):
            run_frontier_bench(quick_frontier_config(query_volume=1e12))


class TestFrontierBenchCLI:
    def test_quick_frontier_bench_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_selector.json"
        code = main(
            [
                "bench", "--suite", "frontier", "--quick",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["bench"] == "selector_frontier"
        assert payload["within_tolerance"] is True
        assert "selected" in capsys.readouterr().out
