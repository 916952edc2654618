"""Run the rule pack over files and fold the results into a report.

The engine is both the implementation of ``repro-gorder lint`` and a
pytest-importable API::

    from repro.analysis import run_lint

    report = run_lint(["src/repro"], baseline_path="lint_baseline.json")
    assert report.exit_code() == 0, report.render_text()

Exit-code contract (shared with the CLI):

* ``0`` — no new findings (warnings allowed unless ``--strict``).
* ``1`` — new error-severity findings; under ``--strict`` also new
  warnings or stale baseline entries.
* ``2`` — the analysis itself failed (unreadable file, syntax error,
  malformed baseline) — distinct so CI can tell "dirty" from
  "broken".
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.baseline import Baseline, BaselineMatch
from repro.analysis.core import (
    AnalysisError,
    FileContext,
    Finding,
    Rule,
    Severity,
    all_rules,
    noqa_directives,
    suppressed,
)

#: Directory names never descended into.
SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".venv", "venv", ".eggs", "build", "dist",
    "node_modules",
})

#: Default target: the library itself.
DEFAULT_PATHS = ("src/repro",)

#: Conventional baseline location at the repo root.
DEFAULT_BASELINE = "lint_baseline.json"


def iter_python_files(paths: list[str] | tuple[str, ...]) -> list[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not SKIP_DIRS.intersection(candidate.parts)
            )
        elif path.is_file():
            files.append(path)
        else:
            raise AnalysisError(f"no such file or directory: {raw}")
    unique = sorted(set(files))
    return unique


def _display_path(path: Path) -> str:
    """Repo-relative posix path when possible (baseline stability)."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def analyze_source(
    source: str,
    path: str = "<string>",
    rules: list[Rule] | None = None,
) -> list[Finding]:
    """Lint one source string; inline noqa suppression applied."""
    ctx = FileContext.parse(path, source)
    directives = noqa_directives(ctx.lines)
    findings: list[Finding] = []
    for rule in rules if rules is not None else all_rules():
        for finding in rule.check(ctx):
            if not suppressed(finding, directives):
                findings.append(finding)
    return sorted(findings)


def analyze_file(
    path: str | os.PathLike, rules: list[Rule] | None = None
) -> list[Finding]:
    """Lint one file on disk."""
    file_path = Path(path)
    try:
        source = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise AnalysisError(f"cannot read {path}: {exc}") from exc
    return analyze_source(
        source, path=_display_path(file_path), rules=rules
    )


@dataclass
class LintReport:
    """Everything one lint run produced."""

    #: Findings not covered by the baseline, sorted.
    findings: list[Finding] = field(default_factory=list)
    #: Findings the baseline grandfathered.
    baselined: list[Finding] = field(default_factory=list)
    #: Baseline identities that matched nothing (pay-down complete).
    stale_baseline: list[tuple[str, str, str]] = field(
        default_factory=list
    )
    files_checked: int = 0
    strict: bool = False

    # -- outcome -------------------------------------------------------
    def errors(self) -> list[Finding]:
        return [
            finding
            for finding in self.findings
            if finding.severity >= Severity.ERROR
        ]

    def exit_code(self) -> int:
        if self.errors():
            return 1
        if self.strict and (self.findings or self.stale_baseline):
            return 1
        return 0

    # -- rendering -----------------------------------------------------
    def summary_line(self) -> str:
        by_severity: dict[str, int] = {}
        for finding in self.findings:
            label = finding.severity.label
            by_severity[label] = by_severity.get(label, 0) + 1
        parts = [f"{self.files_checked} file(s) checked"]
        if self.findings:
            breakdown = ", ".join(
                f"{count} {label}(s)"
                for label, count in sorted(by_severity.items())
            )
            parts.append(f"{len(self.findings)} finding(s): {breakdown}")
        else:
            parts.append("no findings")
        if self.baselined:
            parts.append(f"{len(self.baselined)} baselined")
        if self.stale_baseline:
            parts.append(
                f"{len(self.stale_baseline)} stale baseline entr(y/ies)"
            )
        return "; ".join(parts)

    def render_text(self) -> str:
        lines = [finding.describe() for finding in self.findings]
        for rule, path, snippet in self.stale_baseline:
            lines.append(
                f"{path}: stale baseline entry for {rule} "
                f"({snippet!r} no longer found) — remove it or "
                "regenerate with --write-baseline"
            )
        lines.append(self.summary_line())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "strict": self.strict,
            "exit_code": self.exit_code(),
            "findings": [
                finding.to_dict() for finding in self.findings
            ],
            "baselined": [
                finding.to_dict() for finding in self.baselined
            ],
            "stale_baseline": [
                {"rule": rule, "path": path, "snippet": snippet}
                for rule, path, snippet in self.stale_baseline
            ],
            "summary": self.summary_line(),
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)


def run_lint(
    paths: list[str] | tuple[str, ...] = DEFAULT_PATHS,
    baseline_path: str | os.PathLike | None = None,
    strict: bool = False,
    rules: list[Rule] | None = None,
) -> LintReport:
    """Lint ``paths`` and fold in the baseline; the library entry point.

    ``baseline_path`` may name a missing file — that simply means an
    empty baseline (a *malformed* file still raises).
    """
    files = iter_python_files(paths)
    findings: list[Finding] = []
    for file_path in files:
        findings.extend(analyze_file(file_path, rules=rules))
    versions = {
        rule.id: rule.version
        for rule in (rules if rules is not None else all_rules())
    }
    match = BaselineMatch(new=sorted(findings))
    if baseline_path is not None and Path(baseline_path).exists():
        match = Baseline.load(baseline_path).apply(
            findings, rule_versions=versions
        )
    return LintReport(
        findings=match.new,
        baselined=match.suppressed,
        stale_baseline=match.stale,
        files_checked=len(files),
        strict=strict,
    )

