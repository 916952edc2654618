"""The project import graph behind ``repro-gorder deps``.

Parses every file of a source tree once and records its import
statements, resolved to absolute module names, so ``deps`` can report
the layering: import-time edges (the ones that can form cycles) and
function-level (deferred) edges, reported separately because deferring
an import is exactly how code breaks a cycle.  Tests read the same
graph to check that a module stays out of a layer, e.g. that
:mod:`repro.oracles` never imports telemetry or I/O.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.core import AnalysisError, FileContext
from repro.analysis.engine import _display_path, iter_python_files


def module_name_for(path: Path) -> str:
    """Dotted module name from package structure (``''`` if loose).

    Walks up from the file while each parent directory holds an
    ``__init__.py`` — so any copy of the tree (a tmp fixture, a CI
    checkout) names its modules identically regardless of where the
    tree sits on disk.
    """
    parts: list[str] = []
    if path.name != "__init__.py":
        parts.append(path.stem)
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


@dataclass
class ImportEdge:
    """One import statement, resolved to an absolute module path."""

    target: str
    names: list[str] = field(default_factory=list)
    deferred: bool = False
    line: int = 0


@dataclass
class FileFacts:
    """The import statements of one parsed file."""

    path: str
    module: str
    imports: list[ImportEdge] = field(default_factory=list)


class _ImportCollector(ast.NodeVisitor):
    """Every import of one module, flagged when inside a function."""

    def __init__(self, module: str, is_package: bool) -> None:
        self.module = module
        self.is_package = is_package
        self.imports: list[ImportEdge] = []
        self._function_depth = 0

    def _visit_function(self, node) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.imports.append(
                ImportEdge(
                    target=alias.name,
                    deferred=self._function_depth > 0,
                    line=node.lineno,
                )
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = node.module or ""
        if node.level:
            # Resolve ``from . import x`` against our own module.
            base = self.module.split(".")
            if not self.is_package:
                base = base[:-1]
            cut = node.level - 1
            if cut:
                base = base[:-cut]
            target = ".".join(base + ([node.module] if node.module else []))
        self.imports.append(
            ImportEdge(
                target=target,
                names=[
                    alias.name for alias in node.names if alias.name != "*"
                ],
                deferred=self._function_depth > 0,
                line=node.lineno,
            )
        )


@dataclass
class ProjectAnalysis:
    """The import facts of one source tree, and the graphs they form."""

    #: Module name -> facts (files outside any package key by path).
    facts: dict[str, FileFacts] = field(default_factory=dict)

    @classmethod
    def build(cls, paths: list[str] | tuple[str, ...]) -> "ProjectAnalysis":
        """Parse every python file under ``paths``."""
        project = cls()
        for file_path in iter_python_files(paths):
            display = _display_path(file_path)
            try:
                source = file_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise AnalysisError(
                    f"cannot read {file_path}: {exc}"
                ) from exc
            ctx = FileContext.parse(display, source)
            module = module_name_for(file_path)
            collector = _ImportCollector(
                module, file_path.name == "__init__.py"
            )
            collector.visit(ctx.tree)
            facts = FileFacts(
                path=ctx.path, module=module, imports=collector.imports
            )
            project.facts[module or facts.path] = facts
        return project

    def _resolve_import(self, edge: ImportEdge) -> list[str]:
        """Internal modules one import statement pulls in.

        ``from pkg import submodule`` depends on the *submodule*, not
        on ``pkg``'s ``__init__`` — charging the package too would
        weld every registry-style package (whose ``__init__`` imports
        its submodules) into one giant fake cycle.  The package edge
        is kept only when a name resolves to a re-exported symbol
        rather than a submodule.
        """
        targets: list[str] = []
        symbol_names = 0
        for name in edge.names:
            candidate = f"{edge.target}.{name}"
            if candidate in self.facts:
                targets.append(candidate)
            else:
                symbol_names += 1
        if edge.target in self.facts and (
            symbol_names or not edge.names
        ):
            targets.append(edge.target)
        return targets

    def import_graph(
        self, include_deferred: bool = False
    ) -> dict[str, set[str]]:
        """Module -> internal modules it imports (top-level edges).

        Function-level (deferred) imports are excluded by default:
        they cannot create import-time cycles — that is exactly why
        the code deferred them — but :meth:`deferred_edges` reports
        them so the layering stays visible.
        """
        graph: dict[str, set[str]] = {
            module: set() for module in self.facts
        }
        for module, facts in self.facts.items():
            for edge in facts.imports:
                if edge.deferred and not include_deferred:
                    continue
                for target in self._resolve_import(edge):
                    if target != module:
                        graph[module].add(target)
        return graph

    def deferred_edges(self) -> list[tuple[str, str]]:
        """Function-level internal imports as (importer, imported)."""
        edges: set[tuple[str, str]] = set()
        for module, facts in self.facts.items():
            for edge in facts.imports:
                if not edge.deferred:
                    continue
                for target in self._resolve_import(edge):
                    if target != module:
                        edges.add((module, target))
        return sorted(edges)

    def import_cycles(self) -> list[list[str]]:
        """Strongly connected components of size > 1 (import cycles)."""
        graph = self.import_graph()
        return [
            sorted(component)
            for component in _strongly_connected(graph)
            if len(component) > 1
        ]


def _strongly_connected(
    graph: dict[str, set[str]],
) -> list[list[str]]:
    """Tarjan's SCC, iteratively (the tree is deep enough to care)."""
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in sorted(graph):
        if root in index_of:
            continue
        work: list[tuple[str, list[str], int]] = [
            (root, sorted(graph.get(root, ())), 0)
        ]
        while work:
            node, successors, position = work.pop()
            if position == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for offset in range(position, len(successors)):
                successor = successors[offset]
                if successor not in index_of:
                    work.append((node, successors, offset + 1))
                    work.append(
                        (
                            successor,
                            sorted(graph.get(successor, ())),
                            0,
                        )
                    )
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(
                        lowlink[node], index_of[successor]
                    )
            if advanced:
                continue
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(
                    lowlink[parent], lowlink[node]
                )
    return components
