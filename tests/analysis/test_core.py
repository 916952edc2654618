"""Core machinery: findings, severities, the registry, suppression."""

import pytest

from repro.analysis import (
    ALL_RULES,
    RULES,
    AnalysisError,
    FileContext,
    Finding,
    Rule,
    Severity,
    all_rules,
    noqa_directives,
    register,
    suppressed,
)


class TestSeverity:
    def test_labels_round_trip(self):
        for severity in Severity:
            assert Severity.from_label(severity.label) is severity

    def test_unknown_label_raises(self):
        with pytest.raises(AnalysisError, match="unknown severity"):
            Severity.from_label("fatal")

    def test_ordering_follows_badness(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR


class TestFinding:
    def make(self, **overrides):
        payload = dict(
            path="src/x.py",
            line=3,
            rule="REP001",
            message="boom",
            snippet="x = 1",
            severity=Severity.ERROR,
        )
        payload.update(overrides)
        return Finding(**payload)

    def test_describe_format(self):
        text = self.make().describe()
        assert text == "src/x.py:3: REP001 [error] boom"

    def test_key_ignores_line_number(self):
        assert self.make(line=3).key == self.make(line=99).key

    def test_to_dict_schema(self):
        payload = self.make().to_dict()
        assert payload == {
            "path": "src/x.py",
            "line": 3,
            "rule": "REP001",
            "severity": "error",
            "message": "boom",
            "snippet": "x = 1",
        }

    def test_sorts_by_path_then_line(self):
        findings = [
            self.make(path="b.py", line=1),
            self.make(path="a.py", line=9),
            self.make(path="a.py", line=2),
        ]
        ordered = sorted(findings)
        assert [(f.path, f.line) for f in ordered] == [
            ("a.py", 2), ("a.py", 9), ("b.py", 1),
        ]


class TestFileContext:
    def test_syntax_error_raises_analysis_error(self):
        with pytest.raises(AnalysisError, match="cannot parse"):
            FileContext.parse("bad.py", "def f(:\n")

    def test_snippet_out_of_range_is_empty(self):
        ctx = FileContext.parse("ok.py", "x = 1\n")
        assert ctx.snippet(1) == "x = 1"
        assert ctx.snippet(99) == ""


class TestRegistry:
    def test_seven_rules_registered(self):
        rules = all_rules()
        assert [rule.id for rule in rules] == [
            "REP001", "REP002", "REP003",
            "REP004", "REP005", "REP006", "REP008",
        ]

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.title
            assert rule.rationale

    def test_register_rejects_malformed_id(self):
        class BadId(Rule):
            id = "XXX1"

        with pytest.raises(AnalysisError, match="REPnnn"):
            register(BadId)
        assert "XXX1" not in RULES

    def test_register_rejects_duplicate_id(self):
        class Clone(Rule):
            id = "REP001"

        with pytest.raises(AnalysisError, match="duplicate"):
            register(Clone)


class TestNoqaDirectives:
    def test_bare_and_targeted_directives(self):
        directives = noqa_directives([
            "x = 1  # repro: noqa",
            "y = 2  # repro: noqa[REP001, REP002]",
            "z = 3",
        ])
        assert directives[1] is ALL_RULES
        assert directives[2] == frozenset({"REP001", "REP002"})
        assert 3 not in directives

    def test_suppressed_matches_rule_and_line(self):
        finding = Finding(
            path="x.py", line=2, rule="REP001", message="m"
        )
        covered = {2: frozenset({"REP001"})}
        elsewhere = {5: frozenset({"REP001"})}
        other_rule = {2: frozenset({"REP006"})}
        assert suppressed(finding, covered)
        assert not suppressed(finding, elsewhere)
        assert not suppressed(finding, other_rule)
