"""Plain-text rendering of the paper's tables and figures.

The benchmarks print their results in the same row/series layout the
paper uses, so a reader can put the two side by side.  Everything here
is presentation only — no measurement logic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.perf.runner import RunResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.store import CellFailure


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """A fixed-width ASCII table (right-aligned numbers)."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in cells))
        if cells
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(
            "  ".join(value.rjust(w) for value, w in zip(row, widths))
        )
    return "\n".join(lines)


def render_bar(value: float, scale: float, width: int = 40) -> str:
    """A one-line horizontal bar, for figure-like output."""
    if scale <= 0:
        return ""
    filled = max(0, min(width, round(width * value / scale)))
    return "#" * filled


def render_speedup_series(
    title: str,
    relatives: Mapping[str, float | None],
    limit: float = 2.0,
) -> str:
    """One Figure 5 panel: orderings as bars relative to Gorder (=1).

    A ``None`` value marks a cell the fault-tolerant sweep could not
    produce; it renders as an explicit gap rather than being dropped.
    """
    lines = [title]
    for ordering, value in relatives.items():
        if value is None:
            lines.append(f"  {ordering:>10s}   -   |(failed)")
            continue
        bar = render_bar(min(value, limit), limit)
        clipped = "+" if value > limit else ""
        lines.append(f"  {ordering:>10s} {value:5.2f} |{bar}{clipped}")
    return "\n".join(lines)


def render_failures(
    title: str, failures: Sequence["CellFailure"]
) -> str:
    """A table of structured cell failures (graceful-degradation view)."""
    headers = [
        "dataset", "algorithm", "ordering", "seed", "error",
        "attempts", "elapsed(s)",
    ]
    rows = [
        [
            failure.dataset,
            failure.algorithm,
            failure.ordering,
            failure.seed,
            "timeout" if failure.timed_out else failure.error_type,
            failure.attempts,
            f"{failure.elapsed_seconds:.2f}",
        ]
        for failure in failures
    ]
    return render_table(headers, rows, title=title)


def render_stall_split(
    title: str, results: Mapping[str, RunResult]
) -> str:
    """One Figure 1 panel: execute vs stall share per algorithm."""
    lines = [title]
    lines.append(
        f"  {'algorithm':>10s} {'total(M)':>9s} {'execute%':>9s} "
        f"{'stall%':>7s}"
    )
    for algorithm, result in results.items():
        total = result.cost.total_cycles
        stall = result.cost.stall_fraction
        lines.append(
            f"  {algorithm:>10s} {total / 1e6:9.1f} "
            f"{100 * (1 - stall):8.1f}% {100 * stall:6.1f}%"
        )
    return "\n".join(lines)


def render_cache_stats(
    title: str, results: Mapping[str, RunResult]
) -> str:
    """A Table 3-shaped block: one row per ordering."""
    headers = ["Order", "L1-ref", "L1-mr", "L3-ref", "L3-r", "Cache-mr"]
    rows = []
    for ordering, result in results.items():
        stats = result.stats
        rows.append(
            [
                ordering,
                stats.l1_refs,
                f"{100 * stats.l1_miss_rate:.1f} %",
                stats.l3_refs,
                f"{100 * stats.l3_ratio:.1f} %",
                f"{100 * stats.cache_miss_rate:.1f} %",
            ]
        )
    return render_table(headers, rows, title=title)


def render_rank_histogram(
    title: str, histogram: Mapping[str, Sequence[int]]
) -> str:
    """Figure 6: per-ordering counts of each achieved rank."""
    orderings = list(histogram)
    num_ranks = len(next(iter(histogram.values()))) if histogram else 0
    headers = ["Order"] + [f"#{r + 1}" for r in range(num_ranks)]
    # Sort by quality: best orderings (low mean rank) first.
    def mean_rank(name: str) -> float:
        counts = histogram[name]
        total = sum(counts)
        if not total:
            return float("inf")
        return sum(r * c for r, c in enumerate(counts)) / total

    rows = [
        [name] + list(histogram[name])
        for name in sorted(orderings, key=mean_rank)
    ]
    return render_table(headers, rows, title=title)


def render_heatmap(
    title: str,
    values: Mapping[tuple[float, float], float],
    row_label: str = "rows",
    col_label: str = "cols",
) -> str:
    """ASCII heat map for two-parameter sweeps (Figure 3's shape).

    Cells are shaded by quintile of the value range using
    `` .:*#@`` (low to high).  Exact values belong in a table; the
    heat map shows the landscape.
    """
    shades = " .:*#@"
    rows = sorted({key[0] for key in values})
    cols = sorted({key[1] for key in values})
    lows = min(values.values())
    highs = max(values.values())
    span = highs - lows
    lines = [title, f"  rows={row_label}, cols={col_label}"]
    header = "  " + " ".join(f"{col:>8g}" for col in cols)
    lines.append(header)
    for row in rows:
        cells = []
        for col in cols:
            value = values[(row, col)]
            level = (
                int(5 * (value - lows) / span) if span else 0
            )
            cells.append(shades[min(level, 5)] * 8)
        lines.append(f"{row:>8g} " + " ".join(cells))
    lines.append(
        f"  scale: '{shades[1]}' = low ({lows:,.0f}) ... "
        f"'{shades[5]}' = high ({highs:,.0f})"
    )
    return "\n".join(lines)


def format_break_even(value: float | None) -> str:
    """An amortisation break-even in NQ probe runs (queries); ``None``
    is JSON's ``inf``."""
    if value is None or value == float("inf"):
        return "never"
    if value == 0:
        return "baseline"
    return f"{value:,.0f} queries"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3g}" if abs(value) < 1000 else f"{value:,.0f}"
    return str(value)
