"""Benchmark trend store: a longitudinal perf record with a gate.

The two committed ``BENCH_*.json`` snapshots answer "how fast is this
commit"; they cannot answer "did the replay backend get slower since
they were written".  This module turns bench results into an
**append-only JSONL history** — one line per ingested schema-v1 bench
payload, keyed by its manifest (git SHA, machine, platform, quick
flag) — and reads per-metric trends back out of it:

* :func:`append_history` — ``repro-gorder bench --append-history``
  ingests a just-produced payload (flushed + fsynced per line, the
  same durability contract as the sweep checkpoint journal);
* :func:`load_history` — torn-tail tolerant reader (a killed append
  loses at most the half-written line);
* :func:`trend_report` — per-metric deltas of each series' latest
  entry against a **rolling baseline** (median of the preceding
  ``window`` entries of the same series), flagging regressions past
  a configurable threshold;
* ``repro-gorder trends [--check]`` — the CLI, whose ``--check`` mode
  exits non-zero on any regression (enforced by the CI bench-smoke
  job).

A *series* is ``(bench, quick, machine)``: quick CI smoke numbers
never baseline full acceptance runs, and one machine's timings never
gate another's.  Direction is per metric — ``*_seconds`` regress by
growing, ``speedup_*``/``*_per_second`` by shrinking.  A series with
no prior entries reports ``n/a`` and passes: the first record of a
fresh history (e.g. the committed BENCH files ingested once) is a
baseline, not a regression.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.errors import InvalidParameterError, ReproError

#: Current history-record schema version.
HISTORY_SCHEMA_VERSION = 1

#: Default history file (repo root; CI keeps one as a build artifact).
DEFAULT_HISTORY = "bench_history.jsonl"

#: Default regression threshold: fail past 20% worse than baseline.
DEFAULT_TREND_THRESHOLD = 0.20

#: Default rolling-baseline width (median of up to N prior entries).
DEFAULT_TREND_WINDOW = 5


class TrendError(ReproError):
    """A bench payload or trend history could not be used."""


#: metric name -> direction: ``lower`` is better, or ``higher``.
METRIC_DIRECTIONS = {
    "loop_seconds": "lower",
    "batched_seconds": "lower",
    "speedup_batched_vs_loop": "higher",
    "batched_updates_per_second": "higher",
    "partitioned_workers_n_seconds": "lower",
    "step_seconds": "lower",
    "replay_seconds": "lower",
    "speedup_replay_vs_step": "higher",
    "replay_accesses_per_second": "higher",
    "scalar_seconds_total": "lower",
    "runtime_seconds_total": "lower",
    "speedup_runtime_vs_scalar": "higher",
    "selector_max_regret": "lower",
    "selector_suite_regret": "lower",
    "selector_selection_seconds": "lower",
    "selector_chosen_cycles_total": "lower",
}


def bench_metrics(payload: dict) -> dict[str, float]:
    """The trend-tracked metrics of one schema-v1 bench payload."""
    bench = payload.get("bench")
    try:
        if bench == "gorder_kernel":
            kernels = payload["kernels"]
            metrics = {
                "loop_seconds": kernels["loop"]["seconds"],
                "batched_seconds": kernels["batched"]["seconds"],
                "speedup_batched_vs_loop": payload[
                    "speedup_batched_vs_loop"
                ],
                "batched_updates_per_second": kernels["batched"][
                    "updates_per_second"
                ],
            }
            partitioned = payload.get("partitioned")
            if partitioned:
                metrics["partitioned_workers_n_seconds"] = partitioned[
                    "workers_n_seconds"
                ]
        elif bench == "cache_replay":
            backends = payload["backends"]
            metrics = {
                "step_seconds": backends["step"]["seconds"],
                "replay_seconds": backends["replay"]["seconds"],
                "speedup_replay_vs_step": payload[
                    "speedup_replay_vs_step"
                ],
                "replay_accesses_per_second": backends["replay"][
                    "accesses_per_second"
                ],
            }
        elif bench == "algos_runtime":
            totals = payload["totals"]
            metrics = {
                "scalar_seconds_total": totals["scalar_seconds"],
                "runtime_seconds_total": totals["runtime_seconds"],
                "speedup_runtime_vs_scalar": payload[
                    "speedup_runtime_vs_scalar"
                ],
            }
        elif bench == "selector_frontier":
            metrics = {
                # max_regret is 0 when the selector matched the
                # oracle everywhere; the rolling-median gate treats a
                # 0 -> 0 sequence as flat, and any sustained miss
                # shows up long before the in-payload tolerance.
                "selector_max_regret": payload["max_regret"],
                "selector_suite_regret": payload["max_suite_regret"],
                "selector_selection_seconds": payload["totals"][
                    "selection_seconds"
                ],
                "selector_chosen_cycles_total": sum(
                    entry["selected"]["cycles"]
                    for entry in payload["datasets"].values()
                ),
            }
        else:
            raise TrendError(
                f"unknown bench suite {bench!r}; expected "
                "'gorder_kernel', 'cache_replay', 'algos_runtime' or "
                "'selector_frontier'"
            )
    except (KeyError, TypeError) as exc:
        raise TrendError(
            f"bench payload for {bench!r} is missing {exc}"
        ) from exc
    return {
        name: float(value)
        for name, value in metrics.items()
        if value is not None
    }


def history_record(payload: dict) -> dict:
    """One JSON-ready history line for a schema-v1 bench payload."""
    version = payload.get("schema_version")
    if version != 1:
        raise TrendError(
            f"bench payload has schema_version {version!r}; the "
            "trend store ingests version 1"
        )
    manifest = payload.get("manifest") or {}
    return {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "kind": "bench",
        "bench": payload.get("bench"),
        "quick": bool(payload.get("quick", False)),
        "recorded_unix": manifest.get("created_unix"),
        "git_sha": manifest.get("git_sha"),
        "machine": manifest.get("machine"),
        "platform": manifest.get("platform"),
        "python": manifest.get("python"),
        "profile": manifest.get("profile"),
        "metrics": bench_metrics(payload),
    }


def append_history(
    payload: dict, path: str | os.PathLike
) -> dict:
    """Append one bench payload to the history journal; the record.

    Each line is flushed and fsynced before the call returns, so a
    recorded measurement survives any subsequent kill — the same
    contract as the sweep checkpoint journal.
    """
    record = history_record(payload)
    line = json.dumps(record, separators=(",", ":"), default=str)
    history = Path(path)
    try:
        with open(history, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
    except OSError as exc:
        raise TrendError(
            f"cannot append to history {history}: {exc}"
        ) from exc
    obs.event(
        "trends.appended",
        path=str(history),
        bench=record["bench"],
        quick=record["quick"],
        git_sha=record["git_sha"],
    )
    return record


def load_history(path: str | os.PathLike) -> list[dict]:
    """Parse the history journal, tolerating a torn final line.

    Raises :class:`TrendError` on a missing file or corruption
    anywhere except the final line (a killed append).  Records with a
    newer schema version are rejected rather than misread.
    """
    history = Path(path)
    try:
        text = history.read_text(encoding="utf-8")
    except OSError as exc:
        raise TrendError(
            f"cannot read history {history}: {exc}"
        ) from exc
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    records: list[dict] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                obs.event(
                    "trends.torn_tail",
                    level="warning",
                    path=str(history),
                    line=lineno,
                )
                break
            raise TrendError(
                f"history {history} is corrupt at line {lineno}: "
                f"{exc.msg}"
            ) from exc
        if not isinstance(record, dict):
            raise TrendError(
                f"history {history}:{lineno}: expected a JSON "
                f"object, got {type(record).__name__}"
            )
        if record.get("kind") != "bench":
            continue
        version = record.get("schema_version")
        if version != HISTORY_SCHEMA_VERSION:
            raise TrendError(
                f"history {history}:{lineno} has schema_version "
                f"{version!r}; this build reads "
                f"{HISTORY_SCHEMA_VERSION}"
            )
        records.append(record)
    return records


# ----------------------------------------------------------------------
# Trend analysis
# ----------------------------------------------------------------------
@dataclass
class TrendRow:
    """The latest value of one metric series against its baseline."""

    bench: str
    quick: bool
    metric: str
    direction: str
    latest: float
    #: Rolling-baseline value; ``None`` with no prior entries.
    baseline: float | None
    #: Prior entries the baseline summarises.
    samples: int
    git_sha: str | None = None
    machine: str | None = None

    @property
    def change(self) -> float | None:
        """Relative change of the metric vs. baseline (signed)."""
        if self.baseline is None or self.baseline == 0:
            return None
        return (self.latest - self.baseline) / self.baseline

    def regressed(self, threshold: float) -> bool:
        """Worse than baseline by more than ``threshold``?"""
        change = self.change
        if change is None:
            return False
        if self.direction == "lower":
            return change > threshold
        return change < -threshold


@dataclass
class TrendReport:
    """Every series' latest-vs-baseline row, plus the failing ones."""

    path: str
    threshold: float
    window: int
    rows: list[TrendRow] = field(default_factory=list)

    @property
    def regressions(self) -> list[TrendRow]:
        return [
            row for row in self.rows if row.regressed(self.threshold)
        ]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _series_key(record: dict) -> tuple:
    return (
        record.get("bench"),
        bool(record.get("quick", False)),
        record.get("machine"),
    )


def trend_report(
    history: list[dict],
    path: str | os.PathLike = DEFAULT_HISTORY,
    threshold: float = DEFAULT_TREND_THRESHOLD,
    window: int = DEFAULT_TREND_WINDOW,
) -> TrendReport:
    """Compare each series' newest entry to its rolling baseline.

    The baseline of a metric is the **median** of its value over the
    up-to-``window`` entries preceding the newest one within the same
    ``(bench, quick, machine)`` series — robust to one outlier run
    and tolerant of drift across many.
    """
    if threshold <= 0:
        raise InvalidParameterError(
            f"trend threshold must be positive, got {threshold}"
        )
    if window < 1:
        raise InvalidParameterError(
            f"trend window must be at least 1, got {window}"
        )
    series: dict[tuple, list[dict]] = {}
    for record in history:
        series.setdefault(_series_key(record), []).append(record)
    report = TrendReport(
        path=str(path), threshold=threshold, window=window
    )
    for key in sorted(
        series, key=lambda k: tuple(str(part) for part in k)
    ):
        records = series[key]
        latest = records[-1]
        prior = records[:-1][-window:]
        for metric in sorted(latest.get("metrics", {})):
            value = latest["metrics"][metric]
            baseline_values = [
                record["metrics"][metric]
                for record in prior
                if metric in record.get("metrics", {})
            ]
            baseline = (
                statistics.median(baseline_values)
                if baseline_values
                else None
            )
            report.rows.append(
                TrendRow(
                    bench=str(latest.get("bench")),
                    quick=bool(latest.get("quick", False)),
                    metric=metric,
                    direction=METRIC_DIRECTIONS.get(metric, "lower"),
                    latest=float(value),
                    baseline=baseline,
                    samples=len(baseline_values),
                    git_sha=latest.get("git_sha"),
                    machine=latest.get("machine"),
                )
            )
    for row in report.regressions:
        obs.event(
            "trends.regression",
            level="warning",
            bench=row.bench,
            metric=row.metric,
            baseline=row.baseline,
            latest=row.latest,
            change=row.change,
        )
    return report


def check_trends(
    path: str | os.PathLike = DEFAULT_HISTORY,
    threshold: float = DEFAULT_TREND_THRESHOLD,
    window: int = DEFAULT_TREND_WINDOW,
) -> TrendReport:
    """Load ``path`` and produce its :class:`TrendReport`."""
    return trend_report(
        load_history(path), path=path, threshold=threshold,
        window=window,
    )


def render_trends(report: TrendReport) -> str:
    """Human-readable trend table plus the gate verdict."""
    from repro.perf.report import render_table

    if not report.rows:
        return (
            f"history     : {report.path}\n"
            "no bench records in this history"
        )
    rows = []
    for row in report.rows:
        change = row.change
        rows.append([
            row.bench + (" (quick)" if row.quick else ""),
            row.metric,
            "n/a" if row.baseline is None else f"{row.baseline:.4g}",
            f"{row.latest:.4g}",
            "n/a" if change is None else f"{100 * change:+.1f}%",
            (
                "REGRESSED"
                if row.regressed(report.threshold)
                else "ok"
            ),
        ])
    table = render_table(
        ["bench", "metric", "baseline", "latest", "change", "gate"],
        rows,
        title=(
            f"Benchmark trends ({report.path}; threshold "
            f"{100 * report.threshold:.0f}%, window {report.window})"
        ),
    )
    verdict = (
        "gate        : ok"
        if report.ok
        else f"gate        : {len(report.regressions)} metric(s) "
        f"regressed past {100 * report.threshold:.0f}%"
    )
    return f"{table}\n{verdict}"
