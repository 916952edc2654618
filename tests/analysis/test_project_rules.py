"""The two rules that once needed whole-program analysis, ported.

* REP008 (lock guards) is a per-file rule: every lock-owning class is
  defined in one file, so its fixtures run through ``analyze_source``.
* The oracle-purity cases that REP010 answered from an approximate
  call graph are now fixture oracles run under the tripwire harness
  (:mod:`tests.tripwire`), which checks the calls they really make.

The acceptance tests mutate a copy of the real tree and expect plain
``lint --strict`` to fail.
"""

import json
import random
import shutil
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.analysis import (
    Baseline,
    all_rules,
    analyze_source,
    rule_versions,
    run_lint,
)
from repro.cli import main

from tests.tripwire import TripwireError, run_oracle

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

RACY_BOX = """
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
"""


def check(source, path="pkg/box.py"):
    """REP008 findings of one source file."""
    rep008 = [rule for rule in all_rules() if rule.id == "REP008"]
    return analyze_source(textwrap.dedent(source), path, rules=rep008)


# ----------------------------------------------------------------------
# REP008 — lock-guard inference
# ----------------------------------------------------------------------
class TestLockGuard:
    def test_guarded_elsewhere_fires_on_the_unguarded_site(self):
        findings = check(RACY_BOX)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "REP008"
        assert finding.path == "pkg/box.py"
        assert finding.snippet == "self._items.clear()"
        assert finding.message == (
            "Box.drop mutates self._items (.clear()) without holding "
            "self._lock, but 1 other site(s) guard it "
            "(e.g. Box.add line 11)"
        )

    def test_all_sites_guarded_is_clean(self):
        assert check("""
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
        """) == []

    def test_never_guarded_attribute_is_clean(self):
        """An attribute no site guards is (per this rule) not shared."""
        assert check("""
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._hits = 0

                def record(self):
                    self._hits += 1

                def reset(self):
                    self._hits = 0
        """) == []

    def test_lockless_class_is_ignored(self):
        assert check("""
            class Box:
                def add(self, item):
                    self._items = [item]

                def drop(self):
                    self._items = []
        """) == []

    def test_init_assignments_are_exempt(self):
        """Pre-publication construction never counts as a race."""
        assert check("""
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, item):
                    with self._lock:
                        self._items.append(item)
        """) == []

    def test_lock_held_helper_is_inferred(self):
        """A private helper whose every call site holds the lock is
        lock-held — the OrderingCache._insert idiom."""
        assert check("""
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
        """) == []

    def test_helper_with_one_unguarded_call_site_fires(self):
        findings = check("""
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
        """)
        assert len(findings) == 1
        assert "Box._insert" in findings[0].message

    def test_condition_wrapping_the_lock_counts_as_holding_it(self):
        assert check("""
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
        """) == []

    def test_noqa_quarantines_an_intentional_site(self):
        quarantined = RACY_BOX.replace(
            "self._items.clear()",
            "self._items.clear()  # repro: noqa[REP008]",
        )
        assert check(quarantined) == []

    def test_baseline_grandfathers_then_gate_holds(self, make_tree):
        make_tree({"pkg/__init__.py": "", "pkg/box.py": RACY_BOX})
        report = run_lint(["pkg"])
        assert report.exit_code() == 1
        assert {f.rule for f in report.findings} == {"REP008"}
        Baseline.from_findings(
            report.findings, rule_versions=rule_versions()
        ).save("baseline.json")
        grandfathered = run_lint(["pkg"], baseline_path="baseline.json")
        assert grandfathered.exit_code() == 0
        assert len(grandfathered.baselined) == 1


# ----------------------------------------------------------------------
# Oracle purity: fixture oracles the tripwire rejects
# ----------------------------------------------------------------------
def mix(values):
    return np.random.rand(len(values))


class TestOraclePurity:
    def test_transitive_rng_fires_with_call_path(self):
        def count_reference(values):
            return mix(values)

        with pytest.raises(TripwireError, match="numpy.random.rand") as info:
            run_oracle(count_reference, np.arange(4))
        assert "mix" in [entry.name for entry in info.traceback]

    def test_pure_oracle_is_clean(self):
        def count_traced_scalar(values):
            return sum(values)

        assert run_oracle(count_traced_scalar, np.arange(4)) == 6

    def test_seeded_rng_is_exempt(self):
        def shuffle_reference(values):
            rng = np.random.default_rng(7)
            local = random.Random(7)
            return rng.permutation(len(values)), local.random()

        run_oracle(shuffle_reference, np.arange(4))

    def test_unseeded_rng_in_the_root_fires(self):
        def shuffle_reference(values):
            rng = np.random.default_rng()
            return rng.permutation(len(values))

        with pytest.raises(TripwireError, match="without a seed"):
            run_oracle(shuffle_reference, np.arange(4))

    def test_print_is_io(self):
        def count_reference(values):
            print(len(values))
            return len(values)

        with pytest.raises(TripwireError, match="print"):
            run_oracle(count_reference, np.arange(4))

    def test_open_is_io(self, tmp_path):
        def count_reference(values):
            with open(tmp_path / "log.txt", "w") as handle:
                handle.write("x")
            return len(values)

        with pytest.raises(TripwireError, match="open"):
            run_oracle(count_reference, np.arange(4))
        assert not (tmp_path / "log.txt").exists()

    def test_numpy_out_kwarg_fires(self):
        def scan_reference(values, buf):
            np.cumsum(values, out=buf)
            return buf

        with pytest.raises(ValueError, match="read-only"):
            run_oracle(scan_reference, np.arange(4), np.zeros(4, int))

    def test_local_accumulator_write_is_allowed(self):
        """An in-place update of an array the oracle allocated never
        escapes it (PageRank's next_rank); no quarantine needed."""

        def count_reference(values):
            acc = np.zeros(4, dtype=np.int64)
            np.add.at(acc, values, 1)
            return acc

        counts = run_oracle(count_reference, np.array([0, 2, 2]))
        assert counts.tolist() == [1, 0, 2, 0]

    def test_telemetry_mutation_fires(self):
        def count_reference(values):
            obs.inc("oracle.calls")
            return len(values)

        with pytest.raises(TripwireError, match="obs.inc"):
            run_oracle(count_reference, np.arange(4))

    def test_tripwire_is_removed_on_exit(self):
        inc = obs.inc
        with pytest.raises(TripwireError):
            run_oracle(mix, np.arange(4))
        assert obs.inc is inc
        assert 0.0 <= random.random() < 1.0
        assert np.random.default_rng().random() < 1.0


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
        report = run_lint(["src/repro"], strict=True)
        assert report.exit_code() == 0, report.render_text()

    def test_deleting_a_lock_guard_fails_the_gate(self, tree, capsys):
        self.mutate(
            tree,
            "src/repro/perf/runner.py",
            "    def _insert(self, key: tuple, entry: _CacheEntry) -> None:"
            "\n        with self._lock:",
            "    def _insert(self, key: tuple, entry: _CacheEntry) -> None:"
            "\n        if True:",
        )
        assert main(
            ["lint", "--strict", "--format", "json", "src/repro"]
        ) == 1
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert {f["rule"] for f in findings} == {"REP008"}
        assert any(
            f["path"] == "src/repro/perf/runner.py" for f in findings
        )
