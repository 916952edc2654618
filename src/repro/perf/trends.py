"""Benchmark trend store: a longitudinal perf record with a gate.

The committed ``BENCH_*.json`` snapshots answer "how fast is this
commit"; they cannot answer "did the replay backend get slower since
they were written".  This module turns bench results into an
**append-only JSONL history** — one line per ingested schema-v2 bench
payload, holding its ``metrics`` map and keyed by its manifest (git
SHA, machine, platform, quick flag) — and reads per-metric trends back
out of it:

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
gate another's.  Direction follows the metric's name
(:func:`~repro.perf.bench.metric_direction`): ``speedup_*`` and
``*_per_second`` regress by shrinking, every other metric by growing.
A history line holds metric names and values only, so lines written
from schema-v1 payloads keep baselining the same metrics of v2 ones.
A series with no prior entries reports ``n/a`` and passes: the first
record of a fresh history (e.g. the committed BENCH files ingested
once) is a baseline, not a regression.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.errors import InvalidParameterError, ReproError
from repro.perf.bench import BENCH_SCHEMA_VERSION, SUITES, metric_direction

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


def bench_metrics(payload: dict) -> dict[str, float]:
    """The trend-tracked metrics of one schema-v2 bench payload."""
    bench = payload.get("bench")
    known = [suite.bench for suite in SUITES.values()]
    if bench not in known:
        raise TrendError(
            f"unknown bench suite {bench!r}; expected one of "
            + ", ".join(map(repr, known))
        )
    try:
        return {
            name: float(value)
            for name, value in payload["metrics"].items()
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise TrendError(
            f"bench payload for {bench!r} is missing a numeric metrics "
            f"map ({exc!r})"
        ) from exc


def history_record(payload: dict) -> dict:
    """One JSON-ready history line for a schema-v2 bench payload."""
    version = payload.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise TrendError(
            f"bench payload has schema_version {version!r}; the "
            f"trend store ingests version {BENCH_SCHEMA_VERSION}"
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
                    direction=metric_direction(metric),
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
