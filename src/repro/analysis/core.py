"""Static-analysis core: findings, rules, visitors and suppression.

The engine (:mod:`repro.analysis.engine`) parses each file once into
an :class:`ast.Module`, wraps it in a :class:`FileContext`, and hands
the context to every registered :class:`Rule`.  Rules walk the tree
with :class:`RuleVisitor` subclasses and report :class:`Finding`
objects; the engine then applies inline ``# repro: noqa[RULE]``
suppression and the committed baseline before anything reaches the
user.

Rules register themselves with the :func:`register` decorator, so
importing :mod:`repro.analysis.rules` populates :data:`RULES` — the
same shape as the repo's ordering and algorithm registries.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from repro.errors import ReproError


class AnalysisError(ReproError):
    """A file or baseline could not be analysed (I/O, syntax, schema)."""


class Severity(enum.IntEnum):
    """How bad a finding is; ordering follows the numeric value."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        """Lower-case name used in reports and JSON."""
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Severity":
        try:
            return cls[label.upper()]
        except KeyError:
            known = ", ".join(s.label for s in cls)
            raise AnalysisError(
                f"unknown severity {label!r}; known: {known}"
            ) from None


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``snippet`` is the stripped source line — it doubles as the
    location-independent identity the baseline matches on, so moving
    code around does not resurrect grandfathered findings.
    """

    path: str
    line: int
    rule: str
    message: str
    snippet: str = ""
    severity: Severity = Severity.ERROR

    @property
    def key(self) -> tuple[str, str, str]:
        """Baseline identity: where (modulo line number) and what."""
        return (self.rule, self.path, self.snippet)

    def describe(self) -> str:
        """One-line ``path:line: RULE [severity] message`` rendering."""
        return (
            f"{self.path}:{self.line}: {self.rule} "
            f"[{self.severity.label}] {self.message}"
        )

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "severity": self.severity.label,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass
class FileContext:
    """Everything a rule may inspect about one parsed file."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            raise AnalysisError(
                f"{path}:{exc.lineno or 0}: cannot parse: {exc.msg}"
            ) from exc
        return cls(
            path=PurePosixPath(path).as_posix(),
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )

    def snippet(self, line: int) -> str:
        """The stripped source text of 1-based ``line`` ('' if absent)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


class Rule:
    """Base class: one invariant, one id, one severity.

    Subclasses set the class attributes and implement :meth:`check`.
    Most build a :class:`RuleVisitor` and return its findings.
    """

    id: str = ""
    title: str = ""
    severity: Severity = Severity.ERROR
    #: One-paragraph rationale shown in ``docs/static_analysis.md``.
    rationale: str = ""
    #: Bumped whenever the rule's detection logic changes.  Baseline
    #: entries record the version they were written against; an entry
    #: whose rule has since bumped is expired (stale) rather than
    #: silently suppressing findings the new logic would surface.
    version: int = 1

    def check(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
    ) -> Finding:
        """A :class:`Finding` anchored at ``node`` in ``ctx``."""
        line = getattr(node, "lineno", 0)
        return Finding(
            path=ctx.path,
            line=line,
            rule=self.id,
            message=message,
            snippet=ctx.snippet(line),
            severity=self.severity,
        )


class RuleVisitor(ast.NodeVisitor):
    """AST visitor that collects findings for one rule on one file."""

    def __init__(self, rule: Rule, ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.findings: list[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.rule.finding(self.ctx, node, message))


#: Registry of every known rule, keyed by id (``REP001`` ...).
RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one rule instance to :data:`RULES`."""
    rule = cls()
    if not re.fullmatch(r"REP\d{3}", rule.id):
        raise AnalysisError(
            f"rule id {rule.id!r} does not match REPnnn"
        )
    if rule.id in RULES:
        raise AnalysisError(f"duplicate rule id {rule.id}")
    RULES[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id."""
    from repro.analysis import rules as _rules  # noqa: F401  (registers)

    return [RULES[rule_id] for rule_id in sorted(RULES)]


def rule_versions() -> dict[str, int]:
    """``rule id -> version`` of every registered rule (baseline
    entries written against an older version expire)."""
    return {rule.id: rule.version for rule in all_rules()}


#: ``# repro: noqa`` or ``# repro: noqa[REP001,REP002]``.
_NOQA = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?",
    re.IGNORECASE,
)

#: Sentinel set meaning "suppress every rule on this line".
ALL_RULES = frozenset({"*"})


def noqa_directives(lines: list[str]) -> dict[int, frozenset[str]]:
    """Per-line suppression: 1-based line -> rule ids (or ALL_RULES)."""
    directives: dict[int, frozenset[str]] = {}
    for number, text in enumerate(lines, start=1):
        if "#" not in text:
            continue
        match = _NOQA.search(text)
        if match is None:
            continue
        names = match.group("rules")
        if names is None:
            directives[number] = ALL_RULES
        else:
            directives[number] = frozenset(
                name.strip().upper()
                for name in names.split(",")
                if name.strip()
            )
    return directives


def suppressed(
    finding: Finding, directives: dict[int, frozenset[str]]
) -> bool:
    """True if an inline noqa on the finding's line covers its rule."""
    rules = directives.get(finding.line)
    if rules is None:
        return False
    return rules is ALL_RULES or "*" in rules or finding.rule in rules
