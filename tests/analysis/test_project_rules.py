"""Cross-module rules REP008/REP010 and the acceptance
mutations: fixtures run against synthetic mini-packages; the
acceptance tests mutate a copy of the real tree and expect the gate
to fail."""

import shutil
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    ProjectAnalysis,
    rule_versions,
    run_project_lint,
)
from repro.analysis.project_rules import LockGuardRule, OraclePurityRule

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def check(rule, paths=("pkg",)):
    project = ProjectAnalysis.build(list(paths))
    return rule.check_project(project)


def findings_with_noqa(rule, paths=("pkg",)):
    project = ProjectAnalysis.build(list(paths))
    return project.project_findings([rule])


# ----------------------------------------------------------------------
# REP008 — lock-guard inference
# ----------------------------------------------------------------------
class TestLockGuard:
    def test_guarded_elsewhere_fires_on_the_unguarded_site(
        self, make_tree
    ):
        make_tree({
            "pkg/__init__.py": "",
            "pkg/box.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def add(self, item):
                        with self._lock:
                            self._items.append(item)

                    def drop(self):
                        self._items.clear()
            """,
        })
        findings = check(LockGuardRule())
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "REP008"
        assert finding.path == "pkg/box.py"
        assert "Box.drop" in finding.message
        assert "self._items" in finding.message
        assert "self._lock" in finding.message

    def test_all_sites_guarded_is_clean(self, make_tree):
        make_tree({
            "pkg/__init__.py": "",
            "pkg/box.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def add(self, item):
                        with self._lock:
                            self._items.append(item)

                    def drop(self):
                        with self._lock:
                            self._items.clear()
            """,
        })
        assert check(LockGuardRule()) == []

    def test_never_guarded_attribute_is_clean(self, make_tree):
        """An attribute no site guards is (per this rule) not shared."""
        make_tree({
            "pkg/__init__.py": "",
            "pkg/box.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._hits = 0

                    def record(self):
                        self._hits += 1

                    def reset(self):
                        self._hits = 0
            """,
        })
        assert check(LockGuardRule()) == []

    def test_lockless_class_is_ignored(self, make_tree):
        make_tree({
            "pkg/__init__.py": "",
            "pkg/box.py": """
                class Box:
                    def add(self, item):
                        self._items = [item]

                    def drop(self):
                        self._items = []
            """,
        })
        assert check(LockGuardRule()) == []

    def test_init_assignments_are_exempt(self, make_tree):
        """Pre-publication construction never counts as a race."""
        make_tree({
            "pkg/__init__.py": "",
            "pkg/box.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def add(self, item):
                        with self._lock:
                            self._items.append(item)
            """,
        })
        assert check(LockGuardRule()) == []

    def test_lock_held_helper_is_inferred(self, make_tree):
        """A private helper whose every call site holds the lock is
        lock-held — the OrderingCache._lookup idiom."""
        make_tree({
            "pkg/__init__.py": "",
            "pkg/box.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def add(self, item):
                        with self._lock:
                            self._insert(item)

                    def refill(self, items):
                        with self._lock:
                            for item in items:
                                self._insert(item)

                    def reset(self):
                        with self._lock:
                            self._items = []

                    def _insert(self, item):
                        self._items.append(item)
            """,
        })
        assert check(LockGuardRule()) == []

    def test_helper_with_one_unguarded_call_site_fires(
        self, make_tree
    ):
        make_tree({
            "pkg/__init__.py": "",
            "pkg/box.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def add(self, item):
                        with self._lock:
                            self._insert(item)

                    def sneak(self, item):
                        self._insert(item)

                    def reset(self):
                        with self._lock:
                            self._items = []

                    def _insert(self, item):
                        self._items.append(item)
            """,
        })
        findings = check(LockGuardRule())
        assert len(findings) == 1
        assert "Box._insert" in findings[0].message

    def test_condition_wrapping_the_lock_counts_as_holding_it(
        self, make_tree
    ):
        make_tree({
            "pkg/__init__.py": "",
            "pkg/queue.py": """
                import threading

                class Queue:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._ready = threading.Condition(self._lock)
                        self._jobs = []

                    def put(self, job):
                        with self._ready:
                            self._jobs.append(job)

                    def drain(self):
                        with self._lock:
                            self._jobs.clear()
            """,
        })
        assert check(LockGuardRule()) == []

    def test_noqa_quarantines_an_intentional_site(self, make_tree):
        make_tree({
            "pkg/__init__.py": "",
            "pkg/box.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def add(self, item):
                        with self._lock:
                            self._items.append(item)

                    def drop(self):
                        self._items.clear()  # repro: noqa[REP008]
            """,
        })
        assert findings_with_noqa(LockGuardRule()) == []

    def test_baseline_grandfathers_then_gate_holds(self, make_tree):
        make_tree({
            "pkg/__init__.py": "",
            "pkg/box.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def add(self, item):
                        with self._lock:
                            self._items.append(item)

                    def drop(self):
                        self._items.clear()
            """,
        })
        report = run_project_lint(["pkg"])
        assert report.exit_code() == 1
        assert {f.rule for f in report.findings} == {"REP008"}
        Baseline.from_findings(
            report.findings, rule_versions=rule_versions()
        ).save("baseline.json")
        grandfathered = run_project_lint(
            ["pkg"], baseline_path="baseline.json"
        )
        assert grandfathered.exit_code() == 0
        assert len(grandfathered.baselined) == 1


# ----------------------------------------------------------------------
# REP010 — oracle purity
# ----------------------------------------------------------------------
class TestOraclePurity:
    def test_transitive_rng_fires_with_call_path(self, make_tree):
        make_tree({
            "orc/__init__.py": "",
            "orc/algo.py": """
                from orc.util import mix

                def count_reference(values):
                    return mix(values)
            """,
            "orc/util.py": """
                import numpy as np

                def mix(values):
                    return np.random.rand(len(values))
            """,
        })
        findings = check(OraclePurityRule(), paths=("orc",))
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "REP010"
        assert finding.path == "orc/util.py"
        assert "oracle orc.algo.count_reference" in finding.message
        assert (
            "orc.algo.count_reference -> orc.util.mix"
            in finding.message
        )

    def test_pure_oracle_is_clean(self, make_tree):
        make_tree({
            "orc/__init__.py": "",
            "orc/algo.py": """
                def count_traced_scalar(values):
                    return sum(values)
            """,
        })
        assert check(OraclePurityRule(), paths=("orc",)) == []

    def test_seeded_rng_is_exempt(self, make_tree):
        make_tree({
            "orc/__init__.py": "",
            "orc/algo.py": """
                import numpy as np

                def shuffle_reference(values):
                    rng = np.random.default_rng(7)
                    return rng.permutation(len(values))
            """,
        })
        assert check(OraclePurityRule(), paths=("orc",)) == []

    def test_unseeded_rng_in_the_root_fires(self, make_tree):
        make_tree({
            "orc/__init__.py": "",
            "orc/algo.py": """
                import numpy as np

                def shuffle_reference(values):
                    rng = np.random.default_rng()
                    return rng.permutation(len(values))
            """,
        })
        findings = check(OraclePurityRule(), paths=("orc",))
        assert len(findings) == 1
        assert "randomness" in findings[0].message

    def test_print_is_io(self, make_tree):
        make_tree({
            "orc/__init__.py": "",
            "orc/algo.py": """
                def count_reference(values):
                    print(len(values))
                    return len(values)
            """,
        })
        findings = check(OraclePurityRule(), paths=("orc",))
        assert len(findings) == 1
        assert "print()" in findings[0].message

    def test_numpy_out_kwarg_fires(self, make_tree):
        make_tree({
            "orc/__init__.py": "",
            "orc/algo.py": """
                import numpy as np

                def scan_reference(values, buf):
                    np.cumsum(values, out=buf)
                    return buf
            """,
        })
        findings = check(OraclePurityRule(), paths=("orc",))
        assert len(findings) == 1
        assert "in place" in findings[0].message

    def test_telemetry_mutation_fires(self, make_tree):
        make_tree({
            "orc/__init__.py": "",
            "orc/algo.py": """
                from repro import obs

                def count_reference(values):
                    obs.inc("oracle.calls")
                    return len(values)
            """,
        })
        findings = check(OraclePurityRule(), paths=("orc",))
        assert len(findings) == 1
        assert "telemetry" in findings[0].message

    def test_traced_scalar_kwarg_registers_a_local_root(
        self, make_tree
    ):
        make_tree({
            "orc/__init__.py": "",
            "orc/reg.py": """
                import numpy as np

                def walker(values):
                    return np.random.rand(len(values))

                def register(**kwargs):
                    return kwargs

                register(traced_scalar=walker)
            """,
        })
        findings = check(OraclePurityRule(), paths=("orc",))
        assert len(findings) == 1
        assert "oracle orc.reg.walker" in findings[0].message

    def test_traced_scalar_kwarg_registers_an_imported_root(
        self, make_tree
    ):
        make_tree({
            "orc/__init__.py": "",
            "orc/impure.py": """
                import numpy as np

                def walker(values):
                    return np.random.rand(len(values))
            """,
            "orc/reg.py": """
                from orc.impure import walker

                def register(**kwargs):
                    return kwargs

                register(traced_scalar=walker)
            """,
        })
        findings = check(OraclePurityRule(), paths=("orc",))
        assert len(findings) == 1
        assert "oracle orc.impure.walker" in findings[0].message

    def test_noqa_quarantines_a_reviewed_site(self, make_tree):
        make_tree({
            "orc/__init__.py": "",
            "orc/algo.py": """
                import numpy as np

                def count_reference(values, acc):
                    np.add.at(acc, values, 1)  # repro: noqa[REP010]
                    return acc
            """,
        })
        assert findings_with_noqa(
            OraclePurityRule(), paths=("orc",)
        ) == []


# ----------------------------------------------------------------------
# Acceptance: mutations of the real tree must fail the gate
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not REPO_SRC.is_dir(), reason="repo source tree not available"
)
class TestAcceptanceMutations:
    @pytest.fixture
    def tree(self, tmp_path, monkeypatch):
        shutil.copytree(
            REPO_SRC,
            tmp_path / "src" / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def mutate(self, tree, relpath, old, new):
        path = tree / relpath
        text = path.read_text()
        assert old in text, f"mutation anchor missing in {relpath}"
        path.write_text(text.replace(old, new))

    def test_clean_copy_passes_strict(self, tree):
        report = run_project_lint(["src/repro"], strict=True)
        assert report.exit_code() == 0, report.render_text()

    def test_deleting_a_lock_guard_fails_the_gate(self, tree):
        self.mutate(
            tree,
            "src/repro/perf/runner.py",
            "    def _insert(self, key: tuple, entry: _CacheEntry) -> None:"
            "\n        with self._lock:",
            "    def _insert(self, key: tuple, entry: _CacheEntry) -> None:"
            "\n        if True:",
        )
        report = run_project_lint(["src/repro"])
        assert report.exit_code() == 1
        rules = {f.rule for f in report.findings}
        assert rules == {"REP008"}
        assert any(
            f.path == "src/repro/perf/runner.py"
            for f in report.findings
        )
