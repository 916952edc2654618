"""The benchmark harness: one table of suites, one payload schema.

Each suite runs at its quick workload.  Tests that read a payload lift
the suite's limits, since speedup floors depend on the host's timing;
``TestLimits`` checks that every limit still gates.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.perf import bench
from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    SUITES,
    BenchRegressionError,
    metric_direction,
    render_bench,
    run_bench,
    write_bench_json,
)


def run_unlimited(name, monkeypatch):
    monkeypatch.setitem(SUITES, name, replace(SUITES[name], limits={}))
    return run_bench(name, "quick")


@pytest.fixture(scope="module")
def payloads():
    """One quick run per suite, shared by the module."""
    runs = {}

    def get(name):
        if name not in runs:
            with pytest.MonkeyPatch.context() as monkeypatch:
                runs[name] = run_unlimited(name, monkeypatch)
        return runs[name]

    return get


@pytest.fixture
def payload(request, payloads):
    return payloads(request.cls.suite)


def bench_cli(name, tmp_path, monkeypatch):
    """``bench --suite name --quick``; the JSON it wrote."""
    monkeypatch.setitem(SUITES, name, replace(SUITES[name], limits={}))
    out = tmp_path / SUITES[name].out
    code = main(["bench", "--suite", name, "--quick", "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


class SuitePayloadChecks:
    """The schema-v2 checks every suite's quick payload passes; each
    suite's class sets ``suite`` and the ``metrics`` it reports."""

    suite: str
    metrics: set

    def test_top_level_fields(self, payload):
        assert set(payload) == {
            "schema_version", "bench", "quick", "manifest", "workload",
            "metrics", "rows", "identical",
        }
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION == 2
        assert payload["bench"] == SUITES[self.suite].bench
        assert payload["quick"] is True
        assert payload["identical"] is True
        assert payload["manifest"]["command"] == "bench"
        quick = SUITES[self.suite].workloads["quick"]
        assert {
            key: payload["workload"][key] for key in quick
        } == dict(quick)

    def test_metric_names(self, payload):
        """The trend series names; renaming one starts a new series."""
        assert set(payload["metrics"]) == self.metrics
        assert all(
            isinstance(value, float) for value in payload["metrics"].values()
        )

    def test_rows_share_columns(self, payload):
        rows = payload["rows"]
        assert rows
        assert all(row.keys() == rows[0].keys() for row in rows)

    def test_json_round_trip(self, payload, tmp_path):
        path = write_bench_json(payload, tmp_path / "bench.json")
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(payload)
        )

    def test_render_mentions_key_numbers(self, payload):
        text = render_bench(payload)
        for name in self.metrics:
            assert name in text
        assert text.endswith("identical   : yes")


class TestSuiteTable:
    def test_every_suite_is_checked(self):
        checked = {cls.suite for cls in SuitePayloadChecks.__subclasses__()}
        assert checked == set(SUITES)

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_every_profile_has_a_workload_and_limits(self, name):
        suite = SUITES[name]
        assert set(suite.workloads) == {"quick", "standard", "full"}
        for limits in suite.limits.values():
            assert set(limits) == set(suite.workloads)

    def test_bench_ids_are_distinct(self):
        assert len({suite.bench for suite in SUITES.values()}) == len(
            SUITES
        )


class TestLimits:
    def test_thresholds(self):
        """The floors and tolerance the harness enforces."""
        assert {
            name: dict(suite.limits) for name, suite in SUITES.items()
        } == {
            "gorder": {
                "speedup_batched_vs_loop": {
                    "quick": 1.0, "standard": 1.5, "full": 3.0,
                },
            },
            "cache": {
                "speedup_replay_vs_step": {
                    "quick": 1.0, "standard": 2.0, "full": 3.0,
                },
            },
            "algos": {
                "speedup_runtime_vs_scalar": {
                    "quick": 1.0, "standard": 2.0, "full": 3.0,
                },
            },
            "frontier": {
                metric: {"quick": 0.1, "standard": 0.1, "full": 0.1}
                for metric in (
                    "selector_max_regret", "selector_suite_regret",
                )
            },
        }

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_missed_limit_raises(self, name, monkeypatch):
        """A limit no run can meet fails the suite, by name."""
        suite = SUITES[name]
        metric = next(iter(suite.limits))
        floor = metric_direction(metric) == "higher"
        impossible = float("inf") if floor else -1.0
        monkeypatch.setitem(
            SUITES, name,
            replace(suite, limits={metric: {"quick": impossible}}),
        )
        expected = "below its floor" if floor else "above its ceiling"
        with pytest.raises(BenchRegressionError, match=expected):
            run_bench(name, "quick")


class TestRemovedFlags:
    @pytest.mark.parametrize(
        "flag",
        [
            ["--dataset", "epinion"], ["--query-volume", "5"],
            ["--iterations", "1"], ["--hierarchy", "paper"],
            ["--num-sources", "1"], ["--nodes", "300"],
            ["--edges-per-node", "4"], ["--window", "3"],
            ["--num-parts", "2"], ["--workers", "2"], ["--seed", "1"],
            ["--repeats", "1"], ["--skip-partitioned"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Gorder kernel suite
# ----------------------------------------------------------------------
class TestConfig:
    def test_defaults_meet_acceptance_floor(self):
        full = SUITES["gorder"].workloads["full"]
        assert full["nodes"] >= 50_000
        assert full["nodes"] * full["edges_per_node"] >= 500_000

    def test_quick_config_is_small(self):
        assert SUITES["gorder"].workloads["quick"]["nodes"] < 10_000


class TestPayloadSchema(SuitePayloadChecks):
    suite = "gorder"
    metrics = {
        "loop_seconds", "batched_seconds", "speedup_batched_vs_loop",
        "batched_updates_per_second",
    }

    def test_graph_section(self, payload):
        workload = payload["workload"]
        assert workload["generator"] == "social_graph"
        assert workload["nodes"] == 2_000
        assert workload["edges"] > 0

    def test_kernel_sections(self, payload):
        loop, batched = payload["rows"]
        assert (loop["kernel"], batched["kernel"]) == ("loop", "batched")
        assert loop["seconds"] > 0 and batched["seconds"] > 0
        # Same greedy, so identical event streams.
        assert loop["heap_pops"] == batched["heap_pops"]
        assert loop["unit_updates"] == batched["unit_updates"]
        assert loop["unit_updates"] > 0
        assert payload["metrics"]["speedup_batched_vs_loop"] == (
            pytest.approx(loop["seconds"] / batched["seconds"])
        )


class TestRegressionGuard:
    def test_divergence_raises(self, monkeypatch):
        """A wrong answer must never be blessed with a timing."""

        def fake_sequence(graph, window=5):
            return np.arange(graph.num_nodes, dtype=np.int64)[::-1].copy()

        monkeypatch.setattr(bench, "gorder_sequence", fake_sequence)
        with pytest.raises(BenchRegressionError, match="diverged"):
            run_bench("gorder", "quick")


class TestBenchCLI:
    def test_quick_bench_writes_json(self, tmp_path, capsys, monkeypatch):
        payload = bench_cli("gorder", tmp_path, monkeypatch)
        assert payload["bench"] == "gorder_kernel"
        assert payload["quick"] is True
        out = capsys.readouterr().out
        assert "speedup_batched_vs_loop" in out
        assert "identical   : yes" in out


# ----------------------------------------------------------------------
# Cache trace-replay suite
# ----------------------------------------------------------------------
class TestCacheConfig:
    def test_defaults_are_the_acceptance_workload(self):
        full = SUITES["cache"].workloads["full"]
        assert full["dataset"] == "sdarc"
        assert full["iterations"] == 5
        assert full["hierarchy"] == "paper"

    def test_quick_config_is_small(self):
        assert SUITES["cache"].workloads["quick"]["dataset"] != "sdarc"


class TestCachePayloadSchema(SuitePayloadChecks):
    suite = "cache"
    metrics = {
        "step_seconds", "replay_seconds", "speedup_replay_vs_step",
        "replay_accesses_per_second",
    }

    def test_backend_sections(self, payload):
        assert [row["backend"] for row in payload["rows"]] == [
            "step", "replay",
        ]
        for row in payload["rows"]:
            assert row["seconds"] > 0
            assert row["accesses_per_second"] > 0
        assert payload["metrics"]["speedup_replay_vs_step"] > 0

    def test_workload_section(self, payload):
        workload = payload["workload"]
        assert workload["dataset"] == "epinion"
        assert workload["accesses"] > 0
        assert workload["demand_accesses"] <= workload["accesses"]

    def test_end_to_end_section(self, payload):
        for row in payload["rows"]:
            assert row["end_to_end_seconds"] > 0

    def test_level_counts_sum_to_demand_plus_extra(self, payload):
        workload = payload["workload"]
        assert sum(workload["level_counts"]) == workload["total_refs"]


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
        with pytest.raises(BenchRegressionError, match="diverged"):
            run_bench("cache", "quick")


class TestCacheBenchCLI:
    def test_quick_cache_bench_writes_json(
        self, tmp_path, capsys, monkeypatch
    ):
        payload = bench_cli("cache", tmp_path, monkeypatch)
        assert payload["bench"] == "cache_replay"
        assert "speedup_replay_vs_step" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Algorithm-runtime suite
# ----------------------------------------------------------------------
class TestAlgosConfig:
    def test_defaults_are_the_acceptance_workload(self):
        full = SUITES["algos"].workloads["full"]
        assert full["dataset"] == "sdarc"
        assert full["hierarchy"] == "scaled"
        assert full["iterations"] == 5

    def test_quick_config_is_small(self):
        assert SUITES["algos"].workloads["quick"]["dataset"] != "sdarc"


class TestAlgosPayloadSchema(SuitePayloadChecks):
    suite = "algos"
    metrics = {
        "scalar_seconds_total", "runtime_seconds_total",
        "speedup_runtime_vs_scalar",
    }

    def test_every_ported_algorithm_present(self, payload):
        from repro.oracles import TRACED_SCALAR

        rows = payload["rows"]
        assert [row["algorithm"] for row in rows] == list(TRACED_SCALAR)
        for row in rows:
            assert row["scalar_seconds"] >= 0
            assert row["runtime_seconds"] >= 0
            assert row["speedup"] > 0
            assert row["total_refs"] > 0
            assert sum(row["level_counts"]) == row["total_refs"]
            assert row["scalar_simulate_seconds"] >= 0
            assert row["runtime_simulate_seconds"] >= 0

    def test_totals_and_headline(self, payload):
        metrics = payload["metrics"]
        rows = payload["rows"]
        assert metrics["scalar_seconds_total"] == pytest.approx(
            sum(row["scalar_seconds"] for row in rows)
        )
        assert metrics["speedup_runtime_vs_scalar"] == pytest.approx(
            metrics["scalar_seconds_total"]
            / metrics["runtime_seconds_total"]
        )

    def test_workload_section(self, payload):
        from repro.oracles import TRACED_SCALAR

        workload = payload["workload"]
        assert workload["dataset"] == "epinion"
        assert workload["nodes"] > 0
        assert workload["algorithms"] == list(TRACED_SCALAR)


class TestAlgosRegressionGuard:
    def test_divergence_raises(self, monkeypatch):
        """An emitter that changes results must never get a timing."""
        from repro import oracles

        real = oracles.TRACED_SCALAR["pr"]

        def crooked(graph, memory, **params):
            return np.asarray(real(graph, memory, **params)) + 1

        monkeypatch.setitem(oracles.TRACED_SCALAR, "pr", crooked)
        with pytest.raises(BenchRegressionError, match="'pr'"):
            run_bench("algos", "quick")


class TestAlgosBenchCLI:
    def test_quick_algos_bench_writes_json(
        self, tmp_path, capsys, monkeypatch
    ):
        payload = bench_cli("algos", tmp_path, monkeypatch)
        assert payload["bench"] == "algos_runtime"
        assert "speedup_runtime_vs_scalar" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Selector frontier suite
# ----------------------------------------------------------------------
class TestFrontierBench(SuitePayloadChecks):
    suite = "frontier"
    metrics = {
        "selector_max_regret", "selector_suite_regret",
        "selector_selection_seconds", "selector_chosen_cycles_total",
    }

    def test_quick_config_is_single_dataset(self):
        quick = SUITES["frontier"].workloads["quick"]
        assert quick["datasets"] == ("epinion",)

    def test_payload_schema(self, payload):
        workload = payload["workload"]
        assert workload["suite"] == [
            "nq", "bfs", "dfs", "scc", "sp", "pr", "ds", "kcore", "diam",
        ]
        assert set(workload["graphs"]) == {"epinion"}
        assert "pruned" not in json.dumps(payload)
        assert payload["metrics"]["selector_chosen_cycles_total"] == sum(
            row["cycles"] for row in payload["rows"] if row["selected"]
        )

    def test_dataset_entries(self, payload):
        for name, graph in payload["workload"]["graphs"].items():
            assert graph["nodes"] > 0
            assert graph["predictors"]["degree_skew"] >= 1.0
            rows = [row for row in payload["rows"] if row["dataset"] == name]
            # The baseline comes first, and the pick is the least
            # amortised cost, measured on the probe and the suite alike.
            assert rows[0]["ordering"] == "original"
            (selected,) = [row for row in rows if row["selected"]]
            assert selected["amortised_seconds"] == min(
                row["amortised_seconds"] for row in rows
            )
            assert all(row["suite_cycles"] > 0 for row in rows)

    def test_selector_within_tolerance_of_oracle(self, payload):
        """Acceptance: chosen probe cycles within 10% of oracle-best
        on every benchmarked dataset."""
        for name in payload["workload"]["graphs"]:
            rows = [row for row in payload["rows"] if row["dataset"] == name]
            oracle = min(row["cycles"] for row in rows)
            (selected,) = [row for row in rows if row["selected"]]
            assert selected["cycles"] <= 1.10 * oracle
            assert selected["regret"] == pytest.approx(
                selected["cycles"] / oracle - 1
            )

    def test_selector_within_tolerance_of_suite(self, payload):
        """Acceptance: the chosen candidate's suite cycles within 10%
        of the suite's best candidate on every benchmarked dataset."""
        for name in payload["workload"]["graphs"]:
            rows = [row for row in payload["rows"] if row["dataset"] == name]
            best = min(row["suite_cycles"] for row in rows)
            (selected,) = [row for row in rows if row["selected"]]
            assert selected["suite_regret"] == pytest.approx(
                selected["suite_cycles"] / best - 1
            )
            assert selected["suite_regret"] <= 0.10
        assert payload["metrics"]["selector_suite_regret"] <= 0.10

    def test_render_mentions_selection(self, payload):
        text = render_bench(payload)
        assert "selected" in text
        assert "selector_max_regret" in text
        assert "break_even_runs" in text

    def test_regression_guard_raises_past_tolerance(self, monkeypatch):
        """A selector that misses the oracle by more than the
        tolerance must fail the benchmark, not report it."""
        from repro.ordering import select as select_module

        real = select_module.select_ordering

        def myopic(graph, **kwargs):
            decision = real(graph, **kwargs)
            inflated = replace(
                decision.chosen, cycles=decision.chosen.cycles * 10,
            )
            return replace(decision, chosen=inflated)

        monkeypatch.setattr(select_module, "select_ordering", myopic)
        with pytest.raises(BenchRegressionError, match="max_regret"):
            run_bench("frontier", "quick")

    def test_suite_guard_raises_past_tolerance(self, monkeypatch):
        """A pick that wins its probe but loses the suite it stands
        for fails the benchmark too."""
        from repro.ordering import select as select_module

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
        with pytest.raises(BenchRegressionError, match="suite_regret"):
            run_bench("frontier", "quick")


class TestFrontierBenchCLI:
    def test_quick_frontier_bench_writes_json(
        self, tmp_path, capsys, monkeypatch
    ):
        payload = bench_cli("frontier", tmp_path, monkeypatch)
        assert payload["bench"] == "selector_frontier"
        assert "selected" in capsys.readouterr().out
