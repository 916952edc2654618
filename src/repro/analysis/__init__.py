"""Project-aware static analysis: the ``repro.analysis`` rule engine.

An AST-based lint engine whose rules encode *this repo's* invariants
— the conventions the reproduction's correctness rests on and that
generic linters cannot know about:

========  ==========================================================
REP001    unseeded / legacy random number generation
REP002    non-atomic truncating writes outside ``repro.ioutil``
REP003    silently swallowed exceptions (bare/broad ``except``)
REP004    narrow numpy dtypes on accumulators (int32 overflow)
REP005    telemetry discipline (spans as context managers, one
          registry, greppable counter names)
REP006    builtin exceptions raised instead of ``ReproError``
REP008    lock-guarded attribute mutated without its lock
========  ==========================================================

Every rule sees one file at a time.  :mod:`repro.analysis.project`
adds the import graph of a whole tree for ``repro-gorder deps``
(layering and cycles).  The scalar oracles need no rule: they live in
:mod:`repro.oracles`, which a test keeps out of the telemetry and I/O
layers and runs with RNG, file I/O and telemetry patched to raise.

Use it from the command line (``repro-gorder lint`` /
``repro-gorder deps``), from CI (the blocking ``lint`` job), or from
tests::

    from repro.analysis import analyze_source, run_lint

    findings = analyze_source("import numpy as np\\nnp.random.rand(3)\\n")
    assert findings[0].rule == "REP001"

Suppress a finding inline with ``# repro: noqa[REP001]`` (bare
``# repro: noqa`` suppresses every rule on that line), or grandfather
it in the committed ``lint_baseline.json`` (see
:mod:`repro.analysis.baseline`).  ``docs/static_analysis.md`` walks
through every rule with bad/good examples.
"""

from repro.analysis.baseline import (
    BASELINE_VERSION,
    Baseline,
    BaselineMatch,
)
from repro.analysis.core import (
    ALL_RULES,
    RULES,
    AnalysisError,
    FileContext,
    Finding,
    Rule,
    RuleVisitor,
    Severity,
    all_rules,
    noqa_directives,
    register,
    rule_versions,
    suppressed,
)
from repro.analysis.engine import (
    DEFAULT_BASELINE,
    DEFAULT_PATHS,
    LintReport,
    analyze_file,
    analyze_source,
    iter_python_files,
    run_lint,
)
from repro.analysis.imports import ImportMap
from repro.analysis.project import FileFacts, ProjectAnalysis

__all__ = [
    "ALL_RULES",
    "AnalysisError",
    "BASELINE_VERSION",
    "Baseline",
    "BaselineMatch",
    "DEFAULT_BASELINE",
    "DEFAULT_PATHS",
    "FileContext",
    "FileFacts",
    "Finding",
    "ImportMap",
    "LintReport",
    "ProjectAnalysis",
    "RULES",
    "Rule",
    "RuleVisitor",
    "Severity",
    "all_rules",
    "analyze_file",
    "analyze_source",
    "iter_python_files",
    "noqa_directives",
    "register",
    "rule_versions",
    "run_lint",
    "suppressed",
]
