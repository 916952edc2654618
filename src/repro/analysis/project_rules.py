"""Cross-module rules: lock-guard races and oracle purity.

These rules run over a :class:`~repro.analysis.project.ProjectAnalysis`
rather than a single file — each encodes an invariant that spans
modules:

====== ==============================================================
REP008 A ``self`` attribute mutated under ``with self._lock:``
       somewhere must be guarded everywhere (lock-held helpers are
       inferred from their call sites).
REP010 Reference/traced-scalar oracles are transitively free of RNG,
       I/O, telemetry mutation, and numpy in-place ops.
====== ==============================================================
"""

from __future__ import annotations

from collections import deque

from repro.analysis.core import Finding, Severity
from repro.analysis.project import (
    ClassFacts,
    FileFacts,
    ProjectAnalysis,
    ProjectRule,
    register_project,
)


# ----------------------------------------------------------------------
# REP008 — lock-guard inference
# ----------------------------------------------------------------------
@register_project
class LockGuardRule(ProjectRule):
    """Guarded-elsewhere-but-not-here mutations of shared state.

    For every class that owns a ``threading`` lock, each ``self``
    attribute's mutation sites are split into guarded (under a
    ``with self.<lock>:`` block, directly or via a lock-held helper)
    and unguarded.  An attribute with at least one guarded site makes
    every unguarded site a finding: either the guard is missing (a
    race) or the attribute is not actually shared (then no site
    should take the lock).

    Lock-held helpers are inferred by fixpoint: a method is
    lock-held if it is called at least once within the class and
    every intra-class call site runs under the lock (directly or
    from another lock-held method).  This keeps the
    ``OrderingCache._lookup``/``_evict_over_caps`` idiom — private
    helpers whose callers hold the lock — free of false positives.
    """

    id = "REP008"
    title = "lock-guarded attribute mutated without its lock"
    severity = Severity.ERROR
    version = 1
    rationale = (
        "PR 7 hand-fixed OrderingCache races that this inference "
        "catches mechanically: once any mutation site of an "
        "attribute takes a lock, an unguarded site is a data race "
        "waiting for a second thread."
    )

    def check_project(self, project: ProjectAnalysis) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules():
            facts = project.facts[module]
            for name in sorted(facts.classes):
                findings.extend(
                    self._check_class(facts, facts.classes[name])
                )
        return findings

    # -- per-class inference -------------------------------------------
    def _canonical_lock(
        self, cls: ClassFacts, guard: str | None
    ) -> str | None:
        """Resolve a guard attr to the lock it holds (None if not one)."""
        if guard is None:
            return None
        seen = set()
        while guard in cls.lock_aliases and guard not in seen:
            seen.add(guard)
            guard = cls.lock_aliases[guard]
        return guard if guard in cls.lock_attrs else None

    def _lock_held_methods(self, cls: ClassFacts) -> dict[str, str]:
        """Method name -> lock it provably always runs under."""
        sites_by_callee: dict[str, list] = {}
        for call in cls.self_calls:
            sites_by_callee.setdefault(call.callee, []).append(call)
        held: dict[str, str] = {}
        changed = True
        while changed:
            changed = False
            for callee, sites in sites_by_callee.items():
                if callee in held or callee not in cls.methods:
                    continue
                locks = set()
                for site in sites:
                    lock = self._canonical_lock(cls, site.guard)
                    if lock is None:
                        lock = held.get(site.method)
                    locks.add(lock)
                if len(locks) == 1 and None not in locks:
                    held[callee] = locks.pop()
                    changed = True
        return held

    def _check_class(
        self, facts: FileFacts, cls: ClassFacts
    ) -> list[Finding]:
        if not cls.lock_attrs:
            return []
        held = self._lock_held_methods(cls)
        ignore = set(cls.lock_attrs) | set(cls.lock_aliases)
        by_attr: dict[str, list] = {}
        for site in cls.mutations:
            if site.attr in ignore:
                continue
            by_attr.setdefault(site.attr, []).append(site)
        findings = []
        for attr in sorted(by_attr):
            sites = by_attr[attr]
            guarded, unguarded = [], []
            for site in sites:
                lock = self._canonical_lock(cls, site.guard)
                if lock is None:
                    lock = held.get(site.method)
                (guarded if lock is not None else unguarded).append(
                    (site, lock)
                )
            if not guarded or not unguarded:
                continue
            example_site, example_lock = guarded[0]
            for site, _ in unguarded:
                findings.append(
                    self.project_finding(
                        facts.path,
                        site.line,
                        site.snippet,
                        f"{cls.name}.{site.method} mutates "
                        f"self.{attr} ({site.kind}) without holding "
                        f"self.{example_lock}, but "
                        f"{len(guarded)} other site(s) guard it "
                        f"(e.g. {cls.name}.{example_site.method} "
                        f"line {example_site.line})",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# REP010 — oracle purity
# ----------------------------------------------------------------------
@register_project
class OraclePurityRule(ProjectRule):
    """Reference oracles must stay transitively pure.

    Roots are ``*_reference``/``*_traced_scalar`` functions plus
    anything bound via a ``traced_scalar=`` keyword.  A breadth-first
    walk of the approximate call graph from each root collects the
    impurity markers (RNG, I/O, telemetry mutation, numpy in-place)
    the fact extractor recorded; each impure site reachable from an
    oracle is a finding, annotated with the call path that reaches
    it.
    """

    id = "REP010"
    title = "reference oracle transitively impure"
    severity = Severity.ERROR
    version = 1
    rationale = (
        "The scalar oracles are the ground truth the vectorised "
        "runtime is checked against (counter-identical backends); "
        "hidden RNG, I/O, or telemetry mutation makes that ground "
        "truth flaky or order-dependent."
    )

    def check_project(self, project: ProjectAnalysis) -> list[Finding]:
        table = project.symbol_table()
        graph = project.call_graph()
        roots = self._roots(project, table)
        # site identity -> (first root, call path, site, facts)
        reported: dict[tuple[str, int], tuple] = {}
        for root in sorted(roots):
            for node, path in self._walk(graph, root):
                facts, scope = self._locate(project, table, node)
                if facts is None:
                    continue
                for site in facts.purity.get(scope, ()):
                    identity = (facts.path, site.line)
                    if identity not in reported:
                        reported[identity] = (root, path, site, facts)
        findings = []
        for identity in sorted(reported):
            root, path, site, facts = reported[identity]
            via = " -> ".join(path)
            findings.append(
                self.project_finding(
                    facts.path,
                    site.line,
                    site.snippet,
                    f"oracle {root} {site.what} "
                    f"(call path: {via})",
                )
            )
        return findings

    def _roots(
        self, project: ProjectAnalysis, table: dict[str, dict]
    ) -> set[str]:
        roots = set()
        for module, facts in project.facts.items():
            for entry in facts.oracle_roots:
                if entry.startswith("@local:"):
                    candidates = (
                        f"{module}.{entry.removeprefix('@local:')}",
                    )
                else:
                    # Definition-site roots are module-relative
                    # qualnames; kwarg-bound roots may already be
                    # fully qualified via the import map.
                    candidates = (f"{module}.{entry}", entry)
                for candidate in candidates:
                    if candidate in table:
                        roots.add(candidate)
                        break
        return roots

    def _walk(self, graph: dict[str, set[str]], root: str):
        """Yield (node, call path from root) in BFS order."""
        queue = deque([(root, (root,))])
        seen = {root}
        while queue:
            node, path = queue.popleft()
            yield node, path
            for callee in sorted(graph.get(node, ())):
                if callee in seen:
                    continue
                seen.add(callee)
                queue.append((callee, path + (callee,)))

    def _locate(
        self,
        project: ProjectAnalysis,
        table: dict[str, dict],
        node: str,
    ) -> tuple[FileFacts | None, str]:
        info = table.get(node)
        if info is None:
            return None, ""
        module = info["module"]
        facts = project.module(module)
        scope = node[len(module) + 1:] if facts is not None else ""
        return facts, scope
