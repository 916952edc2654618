"""Whole-program analysis: per-file facts, project graphs, caching.

The per-file engine (:mod:`repro.analysis.engine`) sees one module at
a time; the invariants that actually bite — a mutation missing the
lock every *other* method takes, an oracle that transitively calls
the RNG — span modules.  This layer parses all of ``src/repro`` once into:

* a **project symbol table** (qualified classes/functions per module),
* an **import graph** (top-level edges for cycle detection, deferred
  function-level edges reported separately),
* an **approximate call graph** (resolved imports, local calls and
  ``self.`` method calls), and
* per-class **lock facts**: which attributes hold ``threading`` locks,
  which attribute mutations happen under which ``with self._lock:``
  guard.

Everything a cross-module rule needs is distilled into a JSON-
serialisable :class:`FileFacts` per file, so the expensive part —
parsing and fact extraction — is cached on disk keyed by content
hash.  A warm run loads facts (and the cached per-file findings)
without touching :mod:`ast` at all; only the cheap cross-module rule
evaluation re-runs.  The cache signature folds in the engine version
and every rule's version, so bumping a rule invalidates stale facts
instead of silently replaying old findings.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.analysis.core import (
    ENGINE_VERSION,
    AnalysisError,
    FileContext,
    Finding,
    Rule,
    Severity,
    all_rules,
    noqa_directives,
    suppressed,
)
from repro.analysis.imports import ImportMap, attr_root, call_name
from repro.ioutil import atomic_write_text

#: Version of the fact-extraction schema below.  Bumped whenever
#: :class:`FileFacts` gains/changes fields, invalidating disk caches.
FACTS_VERSION = 2

#: Conventional on-disk cache location at the repo root.
DEFAULT_PROJECT_CACHE = ".repro-lint-cache.json"

#: ``threading`` constructors that create a lock-like object.
LOCK_CONSTRUCTORS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})

#: Container methods that mutate the receiver in place.
MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert",
    "remove", "discard", "pop", "popleft", "popitem", "clear",
    "update", "setdefault", "move_to_end", "add", "sort", "reverse",
})

def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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


# ----------------------------------------------------------------------
# Per-file facts
# ----------------------------------------------------------------------
@dataclass
class ImportEdge:
    """One import statement, resolved to an absolute module path."""

    target: str
    names: list[str] = field(default_factory=list)
    deferred: bool = False
    line: int = 0


@dataclass
class MutationSite:
    """One mutation of a ``self.<attr>`` inside a class method."""

    attr: str
    method: str
    line: int
    snippet: str
    kind: str
    #: ``self.<X>`` attribute named by the nearest enclosing ``with``
    #: (classified against the class's lock attrs later), or ``None``.
    guard: str | None = None


@dataclass
class SelfCall:
    """An intra-class ``self.method(...)`` call site."""

    method: str
    callee: str
    line: int
    guard: str | None = None


@dataclass
class ClassFacts:
    """Everything REP008 needs to know about one class."""

    name: str
    line: int
    snippet: str
    #: Attributes assigned a ``threading`` lock-like object.
    lock_attrs: list[str] = field(default_factory=list)
    #: Lock aliases: ``Condition(self._lock)`` guards ``_lock`` too.
    lock_aliases: dict[str, str] = field(default_factory=dict)
    mutations: list[MutationSite] = field(default_factory=list)
    self_calls: list[SelfCall] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)


@dataclass
class PuritySite:
    """One impure operation inside a function body."""

    line: int
    snippet: str
    what: str


@dataclass
class FileFacts:
    """The JSON-serialisable distillate of one parsed file."""

    path: str
    module: str
    sha: str
    imports: list[ImportEdge] = field(default_factory=list)
    #: Qualified name -> {kind, line, snippet}.
    symbols: dict[str, dict] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    #: Function qualname -> called targets (dotted / @self:attr /
    #: @local:name markers, resolved at project level).
    calls: dict[str, list[str]] = field(default_factory=dict)
    purity: dict[str, list[PuritySite]] = field(default_factory=dict)
    oracle_roots: list[str] = field(default_factory=list)
    #: 1-based line (as str, JSON keys) -> suppressed rule ids.
    noqa: dict[str, list[str]] = field(default_factory=dict)
    #: Per-file rule findings (already noqa-filtered), as dicts.
    findings: list[dict] = field(default_factory=list)

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FileFacts":
        facts = cls(
            path=payload["path"],
            module=payload["module"],
            sha=payload["sha"],
        )
        facts.imports = [
            ImportEdge(**entry) for entry in payload.get("imports", [])
        ]
        facts.symbols = dict(payload.get("symbols", {}))
        for name, raw in payload.get("classes", {}).items():
            cf = ClassFacts(
                name=raw["name"],
                line=raw["line"],
                snippet=raw["snippet"],
                lock_attrs=list(raw.get("lock_attrs", [])),
                lock_aliases=dict(raw.get("lock_aliases", {})),
                methods=list(raw.get("methods", [])),
            )
            cf.mutations = [
                MutationSite(**site)
                for site in raw.get("mutations", [])
            ]
            cf.self_calls = [
                SelfCall(**site) for site in raw.get("self_calls", [])
            ]
            facts.classes[name] = cf
        facts.calls = {
            name: list(targets)
            for name, targets in payload.get("calls", {}).items()
        }
        facts.purity = {
            name: [PuritySite(**site) for site in sites]
            for name, sites in payload.get("purity", {}).items()
        }
        facts.oracle_roots = list(payload.get("oracle_roots", []))
        facts.noqa = {
            line: list(rules)
            for line, rules in payload.get("noqa", {}).items()
        }
        facts.findings = list(payload.get("findings", []))
        return facts

    # -- queries -------------------------------------------------------
    def noqa_rules(self, line: int) -> frozenset[str]:
        return frozenset(self.noqa.get(str(line), ()))

    def suppresses(self, rule_id: str, line: int) -> bool:
        rules = self.noqa_rules(line)
        return "*" in rules or rule_id in rules


# ----------------------------------------------------------------------
# Fact extraction
# ----------------------------------------------------------------------
class _FactExtractor(ast.NodeVisitor):
    """One traversal collecting every fact the project layer needs."""

    def __init__(self, ctx: FileContext, module: str) -> None:
        self.ctx = ctx
        self.module = module
        self.imports = ImportMap(ctx.tree)
        self.facts = FileFacts(path=ctx.path, module=module, sha="")
        #: (kind, name) scope stack; kinds: class | function.
        self._scopes: list[tuple[str, str]] = []
        #: ``self.<attr>`` guard stack inside the current method.
        self._guards: list[str] = []
        self._class_stack: list[ClassFacts] = []
        self._function_depth = 0

    # -- helpers -------------------------------------------------------
    def _qualname(self, name: str | None = None) -> str:
        parts = [scope_name for _, scope_name in self._scopes]
        if name is not None:
            parts.append(name)
        return ".".join(parts)

    def _current_function(self) -> str | None:
        for kind, name in reversed(self._scopes):
            if kind == "function":
                return self._qualname()
        return None

    def _current_method(self) -> tuple[ClassFacts, str] | None:
        """(class facts, method name) when directly inside a method."""
        if not self._class_stack:
            return None
        for kind, name in reversed(self._scopes):
            if kind == "function":
                return self._class_stack[-1], name
            if kind == "class":
                return None
        return None

    def _self_attr(self, node: ast.AST) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _snippet(self, node: ast.AST) -> str:
        return self.ctx.snippet(getattr(node, "lineno", 0))

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.facts.imports.append(
                ImportEdge(
                    target=alias.name,
                    deferred=self._function_depth > 0,
                    line=node.lineno,
                )
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = node.module or ""
        if node.level:
            # Resolve ``from . import x`` against our own module.
            base = self.module.split(".")
            if Path(self.ctx.path).name != "__init__.py":
                base = base[:-1]
            cut = node.level - 1
            if cut:
                base = base[:-cut]
            target = ".".join(base + ([node.module] if node.module else []))
        names = [
            alias.name for alias in node.names if alias.name != "*"
        ]
        self.facts.imports.append(
            ImportEdge(
                target=target,
                names=names,
                deferred=self._function_depth > 0,
                line=node.lineno,
            )
        )
        self.generic_visit(node)

    # -- scopes --------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qualname(node.name)
        self.facts.symbols[qualname] = {
            "kind": "class",
            "line": node.lineno,
            "snippet": self._snippet(node),
        }
        cls = ClassFacts(
            name=qualname,
            line=node.lineno,
            snippet=self._snippet(node),
        )
        self.facts.classes[qualname] = cls
        self._scopes.append(("class", node.name))
        self._class_stack.append(cls)
        self.generic_visit(node)
        self._class_stack.pop()
        self._scopes.pop()

    def _visit_function(self, node) -> None:
        qualname = self._qualname(node.name)
        self.facts.symbols[qualname] = {
            "kind": "function",
            "line": node.lineno,
            "snippet": self._snippet(node),
        }
        if self._class_stack and self._scopes[-1][0] == "class":
            self._class_stack[-1].methods.append(node.name)
        if node.name.endswith(("_reference", "_traced_scalar")):
            self.facts.oracle_roots.append(qualname)
        self._scopes.append(("function", node.name))
        self._function_depth += 1
        guards = self._guards
        self._guards = []  # guards never span function boundaries
        self.generic_visit(node)
        self._guards = guards
        self._function_depth -= 1
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- guard tracking ------------------------------------------------
    def _guard_attrs(self, node) -> list[str]:
        attrs = []
        for item in node.items:
            attr = self._self_attr(item.context_expr)
            if attr is not None:
                attrs.append(attr)
        return attrs

    def _visit_with(self, node) -> None:
        attrs = self._guard_attrs(node)
        self._guards.extend(attrs)
        self.generic_visit(node)
        for _ in attrs:
            self._guards.pop()

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def _active_guard(self) -> str | None:
        return self._guards[-1] if self._guards else None

    # -- mutations and lock discovery ----------------------------------
    def _record_mutation(
        self, attr: str, node: ast.AST, kind: str
    ) -> None:
        located = self._current_method()
        if located is None:
            return
        cls, method = located
        if method == "__init__":
            return  # pre-publication construction is single-threaded
        cls.mutations.append(
            MutationSite(
                attr=attr,
                method=method,
                line=getattr(node, "lineno", 0),
                snippet=self._snippet(node),
                kind=kind,
                guard=self._active_guard(),
            )
        )

    def _lock_constructor(self, value: ast.AST) -> ast.Call | None:
        if not isinstance(value, ast.Call):
            return None
        resolved = self.imports.resolve(value.func)
        if resolved is not None:
            root, _, last = resolved.rpartition(".")
            if root == "threading" and last in LOCK_CONSTRUCTORS:
                return value
            return None
        name = call_name(value)
        if (
            name in LOCK_CONSTRUCTORS
            and attr_root(value.func) in (None, "threading")
        ):
            return value
        return None

    def _record_lock_assign(
        self, target_attr: str, value: ast.AST
    ) -> None:
        call = self._lock_constructor(value)
        if call is None or not self._class_stack:
            return
        cls = self._class_stack[-1]
        if target_attr not in cls.lock_attrs:
            cls.lock_attrs.append(target_attr)
        # Condition(self._lock) aliases the wrapped lock: holding
        # either guards the state both protect.
        if call.args:
            wrapped = self._self_attr(call.args[0])
            if wrapped is not None:
                cls.lock_aliases[target_attr] = wrapped

    def _handle_assign_target(
        self, target: ast.AST, node: ast.AST, kind: str
    ) -> None:
        attr = self._self_attr(target)
        if attr is not None:
            self._record_mutation(attr, node, kind)
            return
        if isinstance(target, ast.Subscript):
            attr = self._self_attr(target.value)
            if attr is not None:
                self._record_mutation(attr, node, f"{kind} (item)")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._handle_assign_target(element, node, kind)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            attr = self._self_attr(target)
            if attr is not None:
                self._record_lock_assign(attr, node.value)
            self._handle_assign_target(target, node, "assignment")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            attr = self._self_attr(node.target)
            if attr is not None:
                self._record_lock_assign(attr, node.value)
            self._handle_assign_target(
                node.target, node, "assignment"
            )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._handle_assign_target(
            node.target, node, "augmented assignment"
        )
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            attr = self._self_attr(target)
            if attr is None and isinstance(target, ast.Subscript):
                attr = self._self_attr(target.value)
            if attr is not None:
                self._record_mutation(attr, node, "del")
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def _call_target(self, node: ast.Call) -> str | None:
        resolved = self.imports.resolve(node.func)
        if resolved is not None:
            return resolved
        func = node.func
        if isinstance(func, ast.Name):
            return f"@local:{func.id}"
        if isinstance(func, ast.Attribute):
            attr = self._self_attr(func)
            if attr is not None:
                return f"@self:{attr}"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        scope = self._current_function()
        target = self._call_target(node)
        if scope is not None and target is not None:
            self.facts.calls.setdefault(scope, [])
            if target not in self.facts.calls[scope]:
                self.facts.calls[scope].append(target)
        # Intra-class dispatch for lock-held helper inference.
        located = self._current_method()
        if located is not None and target is not None:
            cls, method = located
            if target.startswith("@self:"):
                cls.self_calls.append(
                    SelfCall(
                        method=method,
                        callee=target.removeprefix("@self:"),
                        line=node.lineno,
                        guard=self._active_guard(),
                    )
                )
        # Mutating container method on a self attribute?
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in MUTATING_METHODS:
                attr = self._self_attr(func.value)
                if attr is not None:
                    self._record_mutation(
                        attr, node, f".{func.attr}()"
                    )
        # Oracle registration hook: traced_scalar=<fn>.
        for keyword in node.keywords:
            if keyword.arg != "traced_scalar":
                continue
            value = keyword.value
            resolved = self.imports.resolve(value)
            if resolved is not None:
                self.facts.oracle_roots.append(resolved)
            elif isinstance(value, ast.Name):
                self.facts.oracle_roots.append(
                    f"@local:{value.id}"
                )
        if scope is not None:
            self._record_purity(scope, node)
        self.generic_visit(node)

    # -- purity --------------------------------------------------------
    _NUMPY_IO = frozenset({
        "numpy.load", "numpy.save", "numpy.savez",
        "numpy.savez_compressed", "numpy.loadtxt", "numpy.savetxt",
    })
    _NUMPY_INPLACE = frozenset({
        "numpy.copyto", "numpy.put", "numpy.place", "numpy.putmask",
    })
    _PATH_IO = frozenset({
        "read_text", "write_text", "read_bytes", "write_bytes",
    })
    _TELEMETRY_ATTRS = frozenset({
        "inc", "event", "progress", "span", "profile",
    })

    _SEEDED_RNG = frozenset({
        "numpy.random.default_rng", "numpy.random.seed",
        "random.Random", "random.seed",
    })

    def _purity_violation(self, node: ast.Call) -> str | None:
        resolved = self.imports.resolve(node.func)
        if resolved is not None:
            if resolved in self._SEEDED_RNG and (
                node.args or node.keywords
            ):
                # Explicitly seeded generators are deterministic;
                # REP001 polices the unseeded forms per file.
                pass
            elif resolved.startswith("numpy.random.") or (
                resolved == "random"
                or resolved.startswith("random.")
            ):
                return f"draws randomness via {resolved}"
            if resolved in self._NUMPY_IO:
                return f"performs I/O via {resolved}"
            if resolved in self._NUMPY_INPLACE or (
                resolved.startswith("numpy.")
                and resolved.endswith(".at")
            ):
                return f"mutates arrays in place via {resolved}"
            if resolved.startswith("repro.obs"):
                return f"mutates telemetry via {resolved}"
        name = call_name(node)
        root = attr_root(node.func)
        if isinstance(node.func, ast.Name):
            if name == "open":
                return "performs I/O via open()"
            if name == "print":
                return "performs I/O via print()"
        if name in self._PATH_IO and isinstance(
            node.func, ast.Attribute
        ):
            return f"performs I/O via .{name}()"
        if (
            name in self._TELEMETRY_ATTRS
            and root in ("obs", "telemetry", "TELEMETRY")
        ):
            return f"mutates telemetry via {root}.{name}()"
        if resolved is not None and resolved.startswith("numpy."):
            for keyword in node.keywords:
                if keyword.arg == "out":
                    return (
                        f"mutates arrays in place via "
                        f"{resolved}(out=...)"
                    )
        return None

    def _record_purity(self, scope: str, node: ast.Call) -> None:
        what = self._purity_violation(node)
        if what is None:
            return
        self.facts.purity.setdefault(scope, []).append(
            PuritySite(
                line=node.lineno,
                snippet=self._snippet(node),
                what=what,
            )
        )


def extract_facts(
    ctx: FileContext,
    module: str,
    sha: str,
    rules: list[Rule] | None = None,
) -> FileFacts:
    """Distill one parsed file into :class:`FileFacts`.

    Runs the per-file rule pack as part of extraction so cached files
    replay their findings without re-parsing.
    """
    extractor = _FactExtractor(ctx, module)
    extractor.visit(ctx.tree)
    facts = extractor.facts
    facts.sha = sha
    directives = noqa_directives(ctx.lines)
    facts.noqa = {
        str(line): sorted(rule_ids)
        for line, rule_ids in directives.items()
    }
    for rule in rules if rules is not None else all_rules():
        for finding in rule.check(ctx):
            if not suppressed(finding, directives):
                facts.findings.append(finding.to_dict())
    return facts


# ----------------------------------------------------------------------
# Project rules
# ----------------------------------------------------------------------
class ProjectRule(Rule):
    """A rule evaluated over the whole project's facts at once.

    Subclasses implement :meth:`check_project`; the per-file
    :meth:`~Rule.check` is inert so project rules can share the
    registry plumbing (ids, severities, versions, docs) without being
    run file-by-file.
    """

    def check(self, ctx: FileContext) -> list[Finding]:
        return []

    def check_project(
        self, project: "ProjectAnalysis"
    ) -> list[Finding]:
        raise NotImplementedError

    def project_finding(
        self,
        path: str,
        line: int,
        snippet: str,
        message: str,
    ) -> Finding:
        return Finding(
            path=path,
            line=line,
            rule=self.id,
            message=message,
            snippet=snippet,
            severity=self.severity,
        )


#: Registry of project-wide rules, keyed by id.
PROJECT_RULES: dict[str, ProjectRule] = {}


def register_project(cls: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator adding one project rule to the registry."""
    rule = cls()
    if rule.id in PROJECT_RULES:
        raise AnalysisError(f"duplicate project rule id {rule.id}")
    PROJECT_RULES[rule.id] = rule
    return cls


def all_project_rules() -> list[ProjectRule]:
    """Every registered project rule, ordered by id."""
    from repro.analysis import project_rules as _rules  # noqa: F401

    return [PROJECT_RULES[rule_id] for rule_id in sorted(PROJECT_RULES)]


def rule_versions() -> dict[str, int]:
    """``rule id -> version`` over file *and* project rules."""
    versions = {rule.id: rule.version for rule in all_rules()}
    versions.update(
        {rule.id: rule.version for rule in all_project_rules()}
    )
    return versions


def _cache_signature() -> str:
    payload = {
        "engine": ENGINE_VERSION,
        "facts": FACTS_VERSION,
        "rules": rule_versions(),
    }
    return _sha256(json.dumps(payload, sort_keys=True))


# ----------------------------------------------------------------------
# The project itself
# ----------------------------------------------------------------------
@dataclass
class ProjectAnalysis:
    """All facts of one source tree, plus its derived graphs."""

    #: Module name -> facts (files outside any package key by path).
    facts: dict[str, FileFacts] = field(default_factory=dict)
    files_parsed: int = 0
    files_cached: int = 0

    # -- construction --------------------------------------------------
    @classmethod
    def build(
        cls,
        paths: list[str] | tuple[str, ...],
        cache_path: str | os.PathLike | None = None,
        rules: list[Rule] | None = None,
    ) -> "ProjectAnalysis":
        """Parse (or cache-load) every python file under ``paths``."""
        from repro.analysis.engine import (
            _display_path,
            iter_python_files,
        )

        project = cls()
        signature = _cache_signature()
        cached_files: dict[str, dict] = {}
        if cache_path is not None and Path(cache_path).exists():
            cached_files = _load_cache(cache_path, signature)
        for file_path in iter_python_files(paths):
            display = _display_path(file_path)
            try:
                source = file_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise AnalysisError(
                    f"cannot read {file_path}: {exc}"
                ) from exc
            sha = _sha256(source)
            entry = cached_files.get(display)
            if entry is not None and entry.get("sha") == sha:
                facts = FileFacts.from_dict(entry["facts"])
                project.files_cached += 1
            else:
                ctx = FileContext.parse(display, source)
                module = module_name_for(file_path)
                facts = extract_facts(ctx, module, sha, rules=rules)
                project.files_parsed += 1
            project.facts[facts.module or facts.path] = facts
        if cache_path is not None:
            project.save_cache(cache_path, signature)
        return project

    def save_cache(
        self, cache_path: str | os.PathLike, signature: str | None = None
    ) -> None:
        payload = {
            "version": 1,
            "signature": signature or _cache_signature(),
            "files": {
                facts.path: {"sha": facts.sha, "facts": facts.to_dict()}
                for facts in self.facts.values()
            },
        }
        atomic_write_text(
            cache_path, json.dumps(payload, sort_keys=True)
        )

    # -- queries -------------------------------------------------------
    def module(self, name: str) -> FileFacts | None:
        return self.facts.get(name)

    def modules(self) -> list[str]:
        return sorted(self.facts)

    def symbol_table(self) -> dict[str, dict]:
        """Fully-qualified name -> symbol info across the project."""
        table: dict[str, dict] = {}
        for module, facts in self.facts.items():
            for qualname, info in facts.symbols.items():
                table[f"{module}.{qualname}"] = dict(
                    info, module=module, path=facts.path
                )
        return table

    def _resolve_import(
        self, edge: ImportEdge
    ) -> list[str]:
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

    # -- call graph ----------------------------------------------------
    def call_graph(self) -> dict[str, set[str]]:
        """Project-qualified caller -> callee edges (approximate).

        Resolves ``@local:name`` against the caller's module,
        ``@self:attr`` against the caller's class, and dotted paths
        against the project symbol table (with a module ``__init__``
        re-export fallback: ``repro.ordering.compute_ordering`` finds
        ``repro.ordering.base.compute_ordering``).
        """
        table = self.symbol_table()
        by_suffix: dict[str, list[str]] = {}
        for qualname in table:
            module, _, symbol = qualname.rpartition(".")
            by_suffix.setdefault(symbol, []).append(qualname)
        graph: dict[str, set[str]] = {}
        for module, facts in self.facts.items():
            for scope, targets in facts.calls.items():
                caller = f"{module}.{scope}"
                edges = graph.setdefault(caller, set())
                for target in targets:
                    for callee in self._resolve_call(
                        module, scope, target, table, by_suffix
                    ):
                        edges.add(callee)
        return graph

    def _resolve_call(
        self,
        module: str,
        scope: str,
        target: str,
        table: dict[str, dict],
        by_suffix: dict[str, list[str]],
    ) -> list[str]:
        if target.startswith("@local:"):
            name = target.removeprefix("@local:")
            qualname = f"{module}.{name}"
            return [qualname] if qualname in table else []
        if target.startswith("@self:"):
            attr = target.removeprefix("@self:")
            # scope is Class.method (possibly nested); find the class.
            parts = scope.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                owner = ".".join(parts[:cut])
                candidate = f"{module}.{owner}.{attr}"
                if candidate in table:
                    return [candidate]
            return []
        if target in table:
            return [target]
        # Re-export through a package __init__: resolve by symbol
        # name when the dotted prefix is an internal package.
        prefix, _, symbol = target.rpartition(".")
        if prefix in self.facts:
            candidates = [
                qualname
                for qualname in by_suffix.get(symbol, ())
                if qualname.startswith(prefix.rsplit(".", 1)[0])
            ]
            if len(candidates) == 1:
                return candidates
        return []

    # -- findings ------------------------------------------------------
    def file_findings(self) -> list[Finding]:
        """Per-file rule findings replayed from the (cached) facts."""
        findings = []
        for facts in self.facts.values():
            for payload in facts.findings:
                findings.append(
                    Finding(
                        path=payload["path"],
                        line=payload["line"],
                        rule=payload["rule"],
                        message=payload["message"],
                        snippet=payload.get("snippet", ""),
                        severity=Severity.from_label(
                            payload.get("severity", "error")
                        ),
                    )
                )
        return findings

    def project_findings(
        self, project_rules: list[ProjectRule] | None = None
    ) -> list[Finding]:
        """Cross-module findings, with per-line noqa applied."""
        by_path = {
            facts.path: facts for facts in self.facts.values()
        }
        findings: list[Finding] = []
        rules = (
            project_rules
            if project_rules is not None
            else all_project_rules()
        )
        for rule in rules:
            for finding in rule.check_project(self):
                facts = by_path.get(finding.path)
                if facts is not None and facts.suppresses(
                    finding.rule, finding.line
                ):
                    continue
                findings.append(finding)
        return sorted(findings)


def _load_cache(
    cache_path: str | os.PathLike, signature: str
) -> dict[str, dict]:
    """Cached per-file entries, or ``{}`` on any mismatch.

    A malformed or stale cache silently degrades to a cold run —
    the cache is an accelerator, never a correctness input.
    """
    try:
        payload = json.loads(Path(cache_path).read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return {}
    if (
        not isinstance(payload, dict)
        or payload.get("version") != 1
        or payload.get("signature") != signature
        or not isinstance(payload.get("files"), dict)
    ):
        return {}
    return payload["files"]


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
