"""Benchmark trend store: history journal, rolling baseline, gate."""

import json

import pytest

from repro import obs
from repro.errors import InvalidParameterError
from repro.perf.trends import (
    DEFAULT_TREND_THRESHOLD,
    HISTORY_SCHEMA_VERSION,
    TrendError,
    append_history,
    bench_metrics,
    check_trends,
    history_record,
    load_history,
    render_trends,
    trend_report,
)


def gorder_payload(
    batched=0.1, loop=0.3, sha="abc123", machine="ci", quick=True
):
    return {
        "schema_version": 1,
        "bench": "gorder_kernel",
        "quick": quick,
        "kernels": {
            "loop": {"seconds": loop, "updates_per_second": 1e6},
            "batched": {
                "seconds": batched,
                "updates_per_second": 3e6,
            },
        },
        "speedup_batched_vs_loop": loop / batched,
        "manifest": {
            "git_sha": sha,
            "machine": machine,
            "platform": "linux",
            "python": "3.11",
            "created_unix": 1000.0,
        },
    }


def cache_payload(step=0.5, replay=0.05):
    return {
        "schema_version": 1,
        "bench": "cache_replay",
        "quick": False,
        "backends": {
            "step": {"seconds": step},
            "replay": {
                "seconds": replay,
                "accesses_per_second": 2e7,
            },
        },
        "speedup_replay_vs_step": step / replay,
        "manifest": {"git_sha": "abc", "machine": "ci"},
    }



def algos_payload(scalar=0.9, runtime=0.2):
    return {
        "schema_version": 1,
        "bench": "algos_runtime",
        "quick": False,
        "totals": {
            "scalar_seconds": scalar,
            "runtime_seconds": runtime,
        },
        "speedup_runtime_vs_scalar": scalar / runtime,
        "manifest": {"git_sha": "abc", "machine": "ci"},
    }


def selector_payload(
    regret=0.0, seconds=1.5, cycles=2.0e5, suite_regret=0.01
):
    return {
        "schema_version": 1,
        "bench": "selector_frontier",
        "quick": False,
        "datasets": {
            "epinion": {"selected": {"cycles": cycles}},
            "pokec": {"selected": {"cycles": cycles / 2}},
        },
        "totals": {"selection_seconds": seconds},
        "max_regret": regret,
        "max_suite_regret": suite_regret,
        "within_tolerance": True,
        "manifest": {"git_sha": "abc", "machine": "ci"},
    }


class TestBenchMetrics:
    def test_gorder_metrics(self):
        metrics = bench_metrics(gorder_payload())
        assert metrics["batched_seconds"] == 0.1
        assert metrics["loop_seconds"] == 0.3
        assert metrics["speedup_batched_vs_loop"] == pytest.approx(3.0)
        assert metrics["batched_updates_per_second"] == 3e6

    def test_gorder_partitioned_optional(self):
        payload = gorder_payload()
        payload["partitioned"] = {"workers_n_seconds": 0.07}
        metrics = bench_metrics(payload)
        assert metrics["partitioned_workers_n_seconds"] == 0.07
        assert (
            "partitioned_workers_n_seconds"
            not in bench_metrics(gorder_payload())
        )

    def test_cache_metrics(self):
        metrics = bench_metrics(cache_payload())
        assert metrics["replay_seconds"] == 0.05
        assert metrics["speedup_replay_vs_step"] == pytest.approx(10.0)

    def test_algos_metrics(self):
        metrics = bench_metrics(algos_payload())
        assert metrics["scalar_seconds_total"] == 0.9
        assert metrics["runtime_seconds_total"] == 0.2
        assert metrics["speedup_runtime_vs_scalar"] == pytest.approx(
            4.5
        )

    def test_selector_metrics(self):
        metrics = bench_metrics(selector_payload())
        assert metrics["selector_max_regret"] == 0.0
        assert metrics["selector_suite_regret"] == 0.01
        assert metrics["selector_selection_seconds"] == 1.5
        assert metrics["selector_chosen_cycles_total"] == (
            pytest.approx(3.0e5)
        )

    def test_selector_zero_regret_never_gates(self):
        """A 0 -> 0 regret series has no defined relative change and
        must stay flat, not divide by zero or flag a regression."""
        report = trend_report(
            [
                history_record(selector_payload(regret=0.0))
                for _ in range(4)
            ]
        )
        assert report.ok
        rows = [
            row for row in report.rows
            if row.metric == "selector_max_regret"
        ]
        assert rows and rows[0].change is None

    def test_selector_regret_regression_gates(self):
        records = [
            history_record(selector_payload(regret=r))
            for r in (0.02, 0.02, 0.02, 0.08)
        ]
        report = trend_report(records)
        assert not report.ok
        assert any(
            row.metric == "selector_max_regret" and row.regressed
            for row in report.rows
        )

    def test_selector_suite_regret_regression_gates(self):
        records = [
            history_record(selector_payload(suite_regret=r))
            for r in (0.02, 0.02, 0.02, 0.08)
        ]
        report = trend_report(records)
        assert any(
            row.metric == "selector_suite_regret" and row.regressed
            for row in report.rows
        )

    def test_every_selector_metric_has_a_direction(self):
        from repro.perf.trends import METRIC_DIRECTIONS

        for name in bench_metrics(selector_payload()):
            assert name in METRIC_DIRECTIONS

    def test_algos_missing_field_named(self):
        payload = algos_payload()
        del payload["totals"]["runtime_seconds"]
        with pytest.raises(TrendError, match="missing"):
            bench_metrics(payload)

    def test_every_algos_metric_has_a_direction(self):
        from repro.perf.trends import METRIC_DIRECTIONS

        for name in bench_metrics(algos_payload()):
            assert name in METRIC_DIRECTIONS

    def test_unknown_suite_rejected(self):
        with pytest.raises(TrendError, match="unknown bench suite"):
            bench_metrics({"bench": "mystery"})

    def test_missing_field_named(self):
        payload = gorder_payload()
        del payload["kernels"]["loop"]
        with pytest.raises(TrendError, match="missing"):
            bench_metrics(payload)


class TestHistoryRecord:
    def test_record_carries_manifest_key(self):
        record = history_record(gorder_payload())
        assert record["schema_version"] == HISTORY_SCHEMA_VERSION
        assert record["kind"] == "bench"
        assert record["git_sha"] == "abc123"
        assert record["machine"] == "ci"
        assert record["quick"] is True

    def test_wrong_schema_version_rejected(self):
        payload = gorder_payload()
        payload["schema_version"] = 2
        with pytest.raises(TrendError, match="schema_version"):
            history_record(payload)


class TestAppendLoad:
    def test_append_then_load_roundtrip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(gorder_payload(), path)
        append_history(cache_payload(), path)
        records = load_history(path)
        assert [r["bench"] for r in records] == [
            "gorder_kernel", "cache_replay",
        ]

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(gorder_payload(), path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "ben')
        assert len(load_history(path)) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{oops\n")
        append_history(gorder_payload(), path)
        with pytest.raises(TrendError, match="corrupt at line 1"):
            load_history(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TrendError, match="cannot read"):
            load_history(tmp_path / "nope.jsonl")

    def test_foreign_kind_lines_skipped(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"kind": "note", "text": "hi"}\n')
        append_history(gorder_payload(), path)
        assert len(load_history(path)) == 1

    def test_newer_schema_version_rejected(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        record = history_record(gorder_payload())
        record["schema_version"] = HISTORY_SCHEMA_VERSION + 1
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(TrendError, match="schema_version"):
            load_history(path)


class TestTrendReport:
    def records(self, *batched_times, **kwargs):
        return [
            history_record(gorder_payload(batched=t, **kwargs))
            for t in batched_times
        ]

    def test_first_record_is_baseline_not_regression(self):
        report = trend_report(self.records(0.1))
        assert report.ok
        row = {r.metric: r for r in report.rows}["batched_seconds"]
        assert row.baseline is None
        assert row.change is None
        assert row.samples == 0

    def test_regression_past_threshold_fails(self):
        report = trend_report(self.records(0.1, 0.1, 0.13))
        assert not report.ok
        names = {row.metric for row in report.regressions}
        assert "batched_seconds" in names

    def test_within_threshold_passes(self):
        report = trend_report(self.records(0.1, 0.1, 0.11))
        assert report.ok

    def test_improvement_never_regresses(self):
        assert trend_report(self.records(0.1, 0.1, 0.05)).ok

    def test_higher_is_better_direction(self):
        slow = gorder_payload()
        slow["speedup_batched_vs_loop"] = 1.1  # was 3.0
        report = trend_report(
            [history_record(gorder_payload())] * 2
            + [history_record(slow)]
        )
        metrics = {row.metric for row in report.regressions}
        assert "speedup_batched_vs_loop" in metrics

    def test_baseline_is_median_of_window(self):
        report = trend_report(
            self.records(0.1, 0.2, 0.12, 0.1),
            window=3,
        )
        row = {r.metric: r for r in report.rows}["batched_seconds"]
        assert row.baseline == pytest.approx(0.12)
        assert row.samples == 3

    def test_window_excludes_older_entries(self):
        # Only the 2 entries before the newest count with window=2.
        report = trend_report(
            self.records(9.0, 0.1, 0.1, 0.1),
            window=2,
        )
        row = {r.metric: r for r in report.rows}["batched_seconds"]
        assert row.baseline == pytest.approx(0.1)

    def test_series_are_keyed_by_machine_and_quick(self):
        fast_ci = history_record(gorder_payload(batched=0.1))
        slow_laptop = history_record(
            gorder_payload(batched=0.5, machine="laptop")
        )
        # Different machine: the laptop entry must not be gated
        # against the CI baseline.
        report = trend_report([fast_ci, fast_ci, slow_laptop])
        assert report.ok

    def test_bad_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            trend_report([], threshold=0.0)
        with pytest.raises(InvalidParameterError):
            trend_report([], window=0)

    def test_regression_emits_event(self):
        obs.configure(capture=True)
        try:
            trend_report(self.records(0.1, 0.2))
            names = [e["name"] for e in obs.captured()]
            assert "trends.regression" in names
        finally:
            obs.reset()


class TestCheckAndRender:
    def test_check_trends_end_to_end(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(gorder_payload(batched=0.1), path)
        append_history(gorder_payload(batched=0.1), path)
        assert check_trends(path).ok
        append_history(gorder_payload(batched=0.2), path)
        report = check_trends(path)
        assert not report.ok
        text = render_trends(report)
        assert "REGRESSED" in text
        assert "regressed past 20%" in text

    def test_render_empty_history(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text("")
        text = render_trends(check_trends(path))
        assert "no bench records" in text

    def test_default_threshold_is_twenty_percent(self):
        assert DEFAULT_TREND_THRESHOLD == 0.20


class TestCommittedBenchFiles:
    """Acceptance: the repo's BENCH_*.json snapshots ingest cleanly."""

    @pytest.mark.parametrize(
        "name",
        [
            "BENCH_gorder.json",
            "BENCH_cache.json",
            "BENCH_selector.json",
        ],
    )
    def test_committed_bench_ingests_and_passes(self, name, tmp_path):
        import pathlib

        source = pathlib.Path(__file__).parents[2] / name
        if not source.exists():
            pytest.skip(f"{name} not committed")
        payload = json.loads(source.read_text())
        path = tmp_path / "hist.jsonl"
        append_history(payload, path)
        report = check_trends(path)
        assert report.ok  # single entry: baseline, not regression
        assert report.rows
