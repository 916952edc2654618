"""Project layer: module naming and the import graph ``deps`` reads."""

from pathlib import Path

import pytest

from repro.analysis import ProjectAnalysis
from repro.analysis.project import module_name_for

#: A package exercising plain, from-, symbol- and deferred imports.
MINI_PKG = {
    "pkg/__init__.py": """
        GREETING = "hello"

        from pkg import alpha
    """,
    "pkg/alpha.py": """
        from pkg.beta import helper

        def run(x):
            return helper(x)

        def lazy():
            from pkg import gamma

            return gamma.make()
    """,
    "pkg/beta.py": """
        def helper(x):
            return x + 1
    """,
    "pkg/gamma.py": """
        def make():
            return 0
    """,
    "pkg/epsilon.py": """
        from pkg import GREETING

        def greet():
            return GREETING
    """,
}


class TestModuleNaming:
    def test_package_chain(self, make_tree):
        root = make_tree(MINI_PKG)
        assert module_name_for(root / "pkg" / "alpha.py") == "pkg.alpha"

    def test_init_names_the_package(self, make_tree):
        root = make_tree(MINI_PKG)
        assert module_name_for(root / "pkg" / "__init__.py") == "pkg"

    def test_loose_file_uses_its_stem(self, make_tree):
        root = make_tree({"loose.py": "x = 1\n"})
        assert module_name_for(root / "loose.py") == "loose"

    def test_copied_tree_resolves_identically(self, make_tree):
        """Moving the tree does not change module names (CI, tmp)."""
        root = make_tree(MINI_PKG)
        project = ProjectAnalysis.build(["pkg"])
        assert "pkg.alpha" in project.facts
        assert project.facts["pkg.alpha"].path == "pkg/alpha.py"
        assert root == Path.cwd()


class TestImportGraph:
    @pytest.fixture
    def project(self, make_tree):
        make_tree(MINI_PKG)
        return ProjectAnalysis.build(["pkg"])

    def test_from_import_edges_to_the_submodule(self, project):
        graph = project.import_graph()
        assert graph["pkg.alpha"] == {"pkg.beta"}

    def test_registry_init_does_not_self_cycle(self, project):
        """``from pkg import alpha`` in pkg/__init__ must not also
        charge pkg itself — that welds registry packages into fake
        cycles."""
        graph = project.import_graph()
        assert graph["pkg"] == {"pkg.alpha"}
        assert project.import_cycles() == []

    def test_symbol_reexport_edges_to_the_package(self, project):
        graph = project.import_graph()
        assert graph["pkg.epsilon"] == {"pkg"}

    def test_deferred_import_excluded_by_default(self, project):
        graph = project.import_graph()
        assert "pkg.gamma" not in graph["pkg.alpha"]
        assert project.deferred_edges() == [("pkg.alpha", "pkg.gamma")]

    def test_deferred_import_included_on_request(self, project):
        graph = project.import_graph(include_deferred=True)
        assert "pkg.gamma" in graph["pkg.alpha"]

    def test_cycle_detection(self, make_tree):
        make_tree({
            "loop/__init__.py": "",
            "loop/a.py": "import loop.b\n",
            "loop/b.py": "import loop.a\n",
            "loop/c.py": "import loop.a\n",
        })
        project = ProjectAnalysis.build(["loop"])
        assert project.import_cycles() == [["loop.a", "loop.b"]]
