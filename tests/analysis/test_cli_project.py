"""CLI surfaces over a whole tree: lint on a package, and deps."""

import json
from pathlib import Path

import pytest

from repro.cli import main

CLEAN_TREE = {
    "pkg/__init__.py": "",
    "pkg/a.py": """
        from pkg.b import helper

        def run(x):
            return helper(x)
    """,
    "pkg/b.py": """
        def helper(x):
            return x + 1
    """,
}

RACY_TREE = {
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
}

CYCLIC_TREE = {
    "pkg/__init__.py": "",
    "pkg/a.py": "import pkg.b\n",
    "pkg/b.py": "import pkg.a\n",
}


class TestLintProject:
    def test_clean_tree_exits_zero(self, make_tree, capsys):
        make_tree(CLEAN_TREE)
        assert main(["lint", "pkg"]) == 0
        assert "3 file(s) checked; no findings" in capsys.readouterr().out

    def test_race_exits_one(self, make_tree, capsys):
        """REP008 is a per-file rule: plain lint reports the race."""
        make_tree(RACY_TREE)
        assert main(["lint", "pkg"]) == 1
        assert "REP008" in capsys.readouterr().out

    def test_write_baseline_then_gate_passes(self, make_tree, capsys):
        make_tree(RACY_TREE)
        assert main([
            "lint", "--write-baseline", "--baseline", "baseline.json",
            "pkg",
        ]) == 0
        payload = json.loads(Path("baseline.json").read_text())
        assert payload["version"] == 2
        assert all(
            isinstance(entry["rule_version"], int)
            for entry in payload["findings"]
        )
        capsys.readouterr()
        assert main(["lint", "--baseline", "baseline.json", "pkg"]) == 0

    def test_missing_path_exits_two(self, make_tree):
        make_tree(CLEAN_TREE)
        assert main(["lint", "nowhere"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["lint", "--project", "pkg"],
            ["lint", "--cache", "cache.json", "pkg"],
            ["deps", "--cache", "cache.json", "pkg"],
        ],
    )
    def test_project_mode_flags_are_gone(self, make_tree, argv):
        make_tree(CLEAN_TREE)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


class TestDeps:
    def test_reports_modules_and_edges(self, make_tree, capsys):
        make_tree(CLEAN_TREE)
        assert main(["deps", "pkg"]) == 0
        out = capsys.readouterr().out
        assert "modules     : 3" in out
        assert "cycles      : none" in out

    def test_show_graph_prints_edges(self, make_tree, capsys):
        make_tree(CLEAN_TREE)
        assert main(["deps", "--show-graph", "pkg"]) == 0
        assert "pkg.a -> pkg.b" in capsys.readouterr().out

    def test_check_cycles_fails_on_a_cycle(self, make_tree, capsys):
        make_tree(CYCLIC_TREE)
        assert main(["deps", "--check-cycles", "pkg"]) == 1
        assert "pkg.a <-> pkg.b" in capsys.readouterr().out

    def test_check_cycles_passes_on_a_dag(self, make_tree):
        make_tree(CLEAN_TREE)
        assert main(["deps", "--check-cycles", "pkg"]) == 0

    def test_missing_path_exits_two(self, make_tree, capsys):
        make_tree(CLEAN_TREE)
        assert main(["deps", "nowhere"]) == 2
        assert "deps error" in capsys.readouterr().err
