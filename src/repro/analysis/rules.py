"""The REP rule pack: this repo's reproducibility invariants, as code.

Each rule mechanises a convention the reproduction depends on — the
conventions whose violations previous PRs had to fix by hand after
the fact.  Severity ``ERROR`` findings fail the lint gate outright;
``WARNING`` findings fail only under ``--strict``.

See ``docs/static_analysis.md`` for a bad/good example per rule.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field

from repro.analysis.core import (
    FileContext,
    Finding,
    Rule,
    RuleVisitor,
    Severity,
    register,
)
from repro.analysis.imports import ImportMap, attr_root, call_name

#: numpy dtypes too narrow to accumulate edge/trace counts into.
NARROW_DTYPES = frozenset({
    "int8", "int16", "int32", "uint8", "uint16", "uint32",
})

#: Builtin exceptions that are legitimate to raise directly.
ALLOWED_BUILTIN_RAISES = frozenset({
    "SystemExit",
    "KeyboardInterrupt",
    "GeneratorExit",
    "StopIteration",
    "StopAsyncIteration",
    "NotImplementedError",
})

#: Every builtin exception name (computed once at import).
BUILTIN_EXCEPTIONS = frozenset(
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)


def _narrow_dtype(node: ast.AST, imports: ImportMap) -> str | None:
    """The narrow-dtype name an expression denotes, else ``None``.

    Recognises ``np.int32`` / ``numpy.uint16`` attribute chains and
    the ``"int32"`` string spelling.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value in NARROW_DTYPES else None
    resolved = imports.resolve(node)
    if resolved and resolved.startswith("numpy."):
        name = resolved.split(".")[-1]
        return name if name in NARROW_DTYPES else None
    return None


def _keyword(node: ast.Call, name: str) -> ast.expr | None:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


@register
class UnseededRandomRule(Rule):
    """REP001: every random stream must come from a seeded generator."""

    id = "REP001"
    title = "unseeded or legacy random number generation"
    severity = Severity.ERROR
    rationale = (
        "The paper's experiments are only comparable across runs and "
        "machines if every random draw is reproducible.  Legacy "
        "``numpy.random.*`` functions and unseeded generators pull "
        "from hidden global state, so two runs of the same cell can "
        "diverge silently.  All randomness must flow from "
        "``numpy.random.default_rng(seed)`` with an explicit seed."
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        imports = ImportMap(ctx.tree)
        visitor = _RandomVisitor(self, ctx, imports)
        visitor.visit(ctx.tree)
        return visitor.findings


class _RandomVisitor(RuleVisitor):
    def __init__(
        self, rule: Rule, ctx: FileContext, imports: ImportMap
    ) -> None:
        super().__init__(rule, ctx)
        self.imports = imports

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.imports.resolve(node.func)
        if resolved is not None:
            if resolved.startswith("numpy.random."):
                self._check_numpy(node, resolved)
            elif resolved.startswith("random."):
                self._check_stdlib(node, resolved)
        self.generic_visit(node)

    def _unseeded(self, node: ast.Call) -> bool:
        return not node.args and not node.keywords

    def _check_numpy(self, node: ast.Call, resolved: str) -> None:
        name = resolved.removeprefix("numpy.random.")
        if name == "default_rng":
            if self._unseeded(node):
                self.report(
                    node,
                    "default_rng() without a seed is irreproducible; "
                    "pass an explicit seed",
                )
        elif name == "Generator":
            pass  # wrapping an explicit BitGenerator is fine
        else:
            self.report(
                node,
                f"legacy numpy.random.{name} uses hidden global "
                "state; use numpy.random.default_rng(seed)",
            )

    def _check_stdlib(self, node: ast.Call, resolved: str) -> None:
        name = resolved.removeprefix("random.")
        if "." in name:
            return  # method on random.Random instance via alias: fine
        if name == "Random":
            if self._unseeded(node):
                self.report(
                    node,
                    "random.Random() without a seed is "
                    "irreproducible; pass an explicit seed",
                )
        else:
            self.report(
                node,
                f"module-level random.{name} uses hidden global "
                "state; use random.Random(seed) or "
                "numpy.random.default_rng(seed)",
            )


@register
class NonAtomicWriteRule(Rule):
    """REP002: truncating writes must go through the atomic helper."""

    id = "REP002"
    title = "non-atomic truncating write"
    severity = Severity.ERROR
    rationale = (
        "A kill mid-write must never leave a truncated archive, "
        "permutation or checkpoint for the next run to trip over — "
        "the sweep engine's resume guarantees are stated in those "
        "terms.  Truncating writes (`open(path, 'w')`, `np.save`) "
        "must go through ``repro.ioutil.atomic_open`` (temp file + "
        "``os.replace``).  Append-mode journal writes are exempt: the "
        "checkpoint journal is torn-tail tolerant by design."
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        imports = ImportMap(ctx.tree)
        visitor = _WriteScopeVisitor(imports)
        visitor.visit(ctx.tree)
        findings: list[Finding] = []
        for call, atomic_scope, message in visitor.writes:
            if atomic_scope:
                continue
            findings.append(self.finding(ctx, call, message))
        return findings


class _WriteScopeVisitor(ast.NodeVisitor):
    """Assign each write call to its nearest enclosing scope.

    A scope (module or function) that also calls ``os.replace`` /
    ``Path.replace(target)`` is performing the tmp-then-replace dance
    itself — its writes are the atomic implementation, not violations.
    """

    def __init__(self, imports: ImportMap) -> None:
        self.imports = imports
        #: (call node, scope-was-atomic, message) per write found.
        self.writes: list[tuple[ast.Call, bool, str]] = []
        self._frames: list[dict] = []

    def _in_scope(self, node: ast.AST) -> None:
        frame: dict = {"atomic": False, "writes": []}
        self._frames.append(frame)
        self.generic_visit(node)
        self._frames.pop()
        for call, message in frame["writes"]:
            self.writes.append((call, frame["atomic"], message))

    def visit_Module(self, node: ast.Module) -> None:
        self._in_scope(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._in_scope(node)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef
    ) -> None:
        self._in_scope(node)

    def visit_Call(self, node: ast.Call) -> None:
        frame = self._frames[-1]
        if self._is_atomic_marker(node):
            frame["atomic"] = True
        message = self._violation(node)
        if message is not None:
            frame["writes"].append((node, message))
        self.generic_visit(node)

    def _is_atomic_marker(self, node: ast.Call) -> bool:
        """A call proving the scope does the tmp-then-replace dance."""
        name = call_name(node)
        if name is not None and name.startswith("atomic_"):
            return True  # repro.ioutil.atomic_open / atomic_write_*
        if self.imports.resolve(node.func) == "os.replace":
            return True
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "replace"
            and len(node.args) == 1
            and not node.keywords
        )  # pathlib.Path.replace(target); str.replace takes two args

    def _violation(self, node: ast.Call) -> str | None:
        imports = self.imports
        resolved = imports.resolve(node.func)
        if resolved in (
            "numpy.save", "numpy.savez", "numpy.savez_compressed"
        ):
            return (
                f"{resolved} writes in place; write via "
                "repro.ioutil.atomic_open (tmp + os.replace)"
            )
        name = call_name(node)
        if name in ("write_text", "write_bytes") and isinstance(
            node.func, ast.Attribute
        ):
            if self._mentions_tmp(node.func.value):
                return None
            return (
                f"Path.{name} truncates in place; use "
                "repro.ioutil.atomic_write_text/bytes"
            )
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "open"
        ):
            mode = self._open_mode(node)
            if mode is None:
                return None
            if any(flag in mode for flag in ("w", "x", "+")):
                target = node.args[0] if node.args else None
                if target is not None and self._mentions_tmp(target):
                    return None  # writing the temp side of the dance
                return (
                    f"open(..., {mode!r}) truncates in place; use "
                    "repro.ioutil.atomic_open (tmp + os.replace)"
                )
        return None

    def _open_mode(self, node: ast.Call) -> str | None:
        mode = (
            node.args[1]
            if len(node.args) >= 2
            else _keyword(node, "mode")
        )
        if isinstance(mode, ast.Constant) and isinstance(
            mode.value, str
        ):
            return mode.value
        return None

    def _mentions_tmp(self, node: ast.AST) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and "tmp" in child.id:
                return True
            if (
                isinstance(child, ast.Attribute)
                and "tmp" in child.attr
            ):
                return True
            if isinstance(child, ast.Constant) and isinstance(
                child.value, str
            ):
                if "tmp" in child.value:
                    return True
        return False


@register
class SwallowedExceptionRule(Rule):
    """REP003: broad handlers must re-raise, record or report."""

    id = "REP003"
    title = "silently swallowed exception"
    severity = Severity.ERROR
    rationale = (
        "A swallowed exception turns a broken cell into a silently "
        "wrong number in the archive.  ``except:`` and ``except "
        "Exception:`` bodies must re-raise, emit a telemetry event "
        "(``obs.event``/``obs.inc``), or convert the failure into a "
        "structured ``CellFailure`` record — the sweep engine's "
        "graceful-degradation contract."
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        imports = ImportMap(ctx.tree)
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            label = self._broad_label(node)
            if label is None:
                continue
            if self._mitigated(node, imports):
                continue
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"{label} without re-raise, telemetry event or "
                    "CellFailure record swallows errors silently",
                )
            )
        return findings

    def _broad_label(self, node: ast.ExceptHandler) -> str | None:
        if node.type is None:
            return "bare except"
        names = []
        if isinstance(node.type, ast.Tuple):
            names = [
                element.id
                for element in node.type.elts
                if isinstance(element, ast.Name)
            ]
        elif isinstance(node.type, ast.Name):
            names = [node.type.id]
        for name in names:
            if name in ("Exception", "BaseException"):
                return f"except {name}"
        return None

    def _mitigated(
        self, node: ast.ExceptHandler, imports: ImportMap
    ) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Raise):
                return True
            if not isinstance(child, ast.Call):
                continue
            resolved = imports.resolve(child.func)
            if resolved is not None and resolved.startswith(
                "repro.obs"
            ):
                return True
            root = attr_root(child.func)
            if root in ("obs", "telemetry", "TELEMETRY"):
                return True
            name = call_name(child)
            if name is not None and name.endswith("Failure"):
                return True
            if name == "exception":  # logger.exception(...)
                return True
        return False


@register
class NarrowDtypeRule(Rule):
    """REP004: edge/trace counts must not accumulate in 32 bits."""

    id = "REP004"
    title = "narrow numpy dtype on an accumulator"
    severity = Severity.WARNING
    rationale = (
        "Edge counts, trace lengths and cycle totals exceed 2**31 on "
        "production-scale graphs; accumulating them in int32 "
        "overflows silently (numpy wraps around rather than raising)."
        "  Reductions must widen explicitly, and accumulator buffers "
        "must be int64 unless a guard proves the narrow dtype safe."
    )

    #: Reduction calls whose dtype= argument sets the accumulator.
    REDUCTIONS = frozenset({"sum", "cumsum", "prod", "dot", "trace"})
    #: Creation calls checked when the target name looks accumulator-ish.
    CREATIONS = frozenset(
        {"zeros", "empty", "ones", "full", "arange", "array"}
    )
    #: Name fragments that mark a buffer as a running total.
    ACCUMULATOR_TOKENS = ("count", "total", "accum", "cycles")

    def check(self, ctx: FileContext) -> list[Finding]:
        imports = ImportMap(ctx.tree)
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                finding = self._check_reduction(ctx, node, imports)
                if finding is not None:
                    findings.append(finding)
            elif isinstance(node, ast.Assign):
                finding = self._check_creation(ctx, node, imports)
                if finding is not None:
                    findings.append(finding)
        return findings

    def _check_reduction(
        self, ctx: FileContext, node: ast.Call, imports: ImportMap
    ) -> Finding | None:
        name = call_name(node)
        if name not in self.REDUCTIONS:
            return None
        dtype_expr = _keyword(node, "dtype")
        if dtype_expr is None:
            return None
        dtype = _narrow_dtype(dtype_expr, imports)
        if dtype is None:
            return None
        return self.finding(
            ctx,
            node,
            f"{name}(dtype={dtype}) accumulates in {dtype} and wraps "
            "past 2**31; accumulate in int64",
        )

    def _check_creation(
        self, ctx: FileContext, node: ast.Assign, imports: ImportMap
    ) -> Finding | None:
        if len(node.targets) != 1 or not isinstance(
            node.targets[0], ast.Name
        ):
            return None
        target = node.targets[0].id.lower()
        if not any(
            token in target for token in self.ACCUMULATOR_TOKENS
        ):
            return None
        value = node.value
        if not isinstance(value, ast.Call):
            return None
        resolved = imports.resolve(value.func)
        if resolved is None or not resolved.startswith("numpy."):
            return None
        if resolved.split(".")[-1] not in self.CREATIONS:
            return None
        dtype_expr = _keyword(value, "dtype")
        if dtype_expr is None:
            return None
        dtype = _narrow_dtype(dtype_expr, imports)
        if dtype is None:
            return None
        return self.finding(
            ctx,
            node.targets[0],
            f"accumulator {node.targets[0].id!r} created as {dtype}; "
            "running totals overflow 32 bits on large graphs",
        )


@register
class TelemetryDisciplineRule(Rule):
    """REP005: spans are context managers; one registry per process."""

    id = "REP005"
    title = "telemetry discipline violation"
    severity = Severity.ERROR
    rationale = (
        "A span (or profiled phase) that is not used as a context "
        "manager never closes, so traces report unclosed spans and "
        "aggregates go missing.  A second ``Telemetry()`` registry "
        "splits counters across instances, and fully dynamic names "
        "cannot be enumerated by the trace summariser.  Spans and "
        "``obs.profile`` phases must be entered with ``with``; "
        "counters live on ``repro.obs.TELEMETRY``; counter, event "
        "and phase names keep at least one literal segment."
    )

    #: The registry implementation itself is exempt.
    EXEMPT_PATH_FRAGMENT = "repro/obs/"

    def check(self, ctx: FileContext) -> list[Finding]:
        if self.EXEMPT_PATH_FRAGMENT in ctx.path:
            return []
        imports = ImportMap(ctx.tree)
        managed = self._context_managed_nodes(ctx.tree)
        returned = self._returned_nodes(ctx.tree)
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if self._is_span_call(node, imports):
                if id(node) not in managed and id(node) not in returned:
                    called = call_name(node)
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"{called or 'span'} not used as a "
                            "context manager; it will never close "
                            f"(with obs.{called or 'span'}(...):)",
                        )
                    )
                if self._is_obs_call(node, imports, "profile"):
                    finding = self._check_phase_name(ctx, node)
                    if finding is not None:
                        findings.append(finding)
            elif self._is_registry_instantiation(node, imports):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "Telemetry() instantiated outside the "
                        "registry; use repro.obs.TELEMETRY",
                    )
                )
            else:
                finding = self._check_counter_name(ctx, node, imports)
                if finding is not None:
                    findings.append(finding)
        return findings

    def _context_managed_nodes(self, tree: ast.Module) -> set[int]:
        nodes: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for child in ast.walk(item.context_expr):
                        nodes.add(id(child))
        return nodes

    def _returned_nodes(self, tree: ast.Module) -> set[int]:
        """Calls forwarded by a wrapper: ``return obs.span(...)``."""
        return {
            id(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Return) and node.value is not None
        }

    def _is_obs_call(
        self, node: ast.Call, imports: ImportMap, attr: str
    ) -> bool:
        resolved = imports.resolve(node.func)
        if resolved is not None:
            if resolved in (f"repro.obs.{attr}", f"obs.{attr}"):
                return True
            if resolved.startswith("repro.obs.") and resolved.endswith(
                f".{attr}"
            ):
                return True
        if call_name(node) != attr:
            return False
        return attr_root(node.func) in ("obs", "telemetry", "TELEMETRY")

    def _is_span_call(
        self, node: ast.Call, imports: ImportMap
    ) -> bool:
        return self._is_obs_call(
            node, imports, "span"
        ) or self._is_obs_call(node, imports, "profile")

    def _is_registry_instantiation(
        self, node: ast.Call, imports: ImportMap
    ) -> bool:
        resolved = imports.resolve(node.func)
        if resolved is not None:
            return resolved.endswith(".Telemetry")
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == "Telemetry"
        )

    @staticmethod
    def _has_literal_segment(name: ast.expr) -> bool:
        """A literal string, or an f-string with a literal piece."""
        if isinstance(name, ast.Constant) and isinstance(
            name.value, str
        ):
            return True
        return isinstance(name, ast.JoinedStr) and any(
            isinstance(part, ast.Constant)
            and isinstance(part.value, str)
            and part.value.strip(". ")
            for part in name.values
        )  # a literal segment keeps the name greppable

    def _check_phase_name(
        self, ctx: FileContext, node: ast.Call
    ) -> Finding | None:
        if not node.args or self._has_literal_segment(node.args[0]):
            return None
        return self.finding(
            ctx,
            node,
            f"obs.{call_name(node)} name is fully dynamic; profiled "
            "phase names need a literal segment so traces can be "
            "summarised",
        )

    def _check_counter_name(
        self, ctx: FileContext, node: ast.Call, imports: ImportMap
    ) -> Finding | None:
        for attr in ("inc", "event", "progress"):
            if self._is_obs_call(node, imports, attr):
                break
        else:
            return None
        if not node.args or self._has_literal_segment(node.args[0]):
            return None
        return self.finding(
            ctx,
            node,
            f"obs.{call_name(node)} name is fully dynamic; counter "
            "and event names need a literal segment so traces can be "
            "summarised",
        )


@register
class ForeignExceptionRule(Rule):
    """REP006: deliberate errors derive from repro.errors.ReproError."""

    id = "REP006"
    title = "builtin exception raised instead of a ReproError"
    severity = Severity.ERROR
    rationale = (
        "Callers catch ``ReproError`` at API boundaries (the CLI "
        "maps it to exit code 1) without swallowing genuine "
        "programming errors.  Raising bare builtins (``ValueError``, "
        "``RuntimeError``) breaks that contract: the CLI turns them "
        "into tracebacks and the sweep engine cannot distinguish a "
        "documented-domain error from a bug."
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = self._raised_name(node.exc)
            if name is None:
                continue
            if (
                name in BUILTIN_EXCEPTIONS
                and name not in ALLOWED_BUILTIN_RAISES
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"raise {name} leaks a builtin through the "
                        "repro.errors hierarchy; raise a ReproError "
                        "subclass",
                    )
                )
        return findings

    def _raised_name(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            if node.value.id == "builtins":
                return node.attr
        return None


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


def _self_attr(node: ast.AST) -> str | None:
    """``X`` for a ``self.X`` expression, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@dataclass
class _Mutation:
    """One mutation of ``self.<attr>`` inside a method."""

    attr: str
    method: str
    node: ast.AST
    kind: str
    #: ``self.<X>`` items of the enclosing ``with`` blocks, outermost
    #: first.
    guards: tuple[str, ...]


@dataclass
class _ClassLocks:
    """What REP008 knows about one class."""

    name: str
    #: Attributes assigned a ``threading`` lock-like object.
    lock_attrs: set[str] = field(default_factory=set)
    #: Lock aliases: ``Condition(self._lock)`` guards ``_lock`` too.
    lock_aliases: dict[str, str] = field(default_factory=dict)
    mutations: list[_Mutation] = field(default_factory=list)
    #: ``(caller method, callee, guards)`` per ``self.m(...)`` call.
    self_calls: list[tuple[str, str, tuple[str, ...]]] = field(
        default_factory=list
    )
    methods: set[str] = field(default_factory=set)

    def canonical_lock(self, guard: str | None) -> str | None:
        """The lock a guard attr holds (``None`` if not a lock)."""
        if guard is None:
            return None
        seen: set[str] = set()
        while guard in self.lock_aliases and guard not in seen:
            seen.add(guard)
            guard = self.lock_aliases[guard]
        return guard if guard in self.lock_attrs else None

    def held_lock(self, guards: tuple[str, ...]) -> str | None:
        """The lock held by the innermost ``with`` item that is one
        (``None`` if no enclosing item is a lock)."""
        for guard in reversed(guards):
            lock = self.canonical_lock(guard)
            if lock is not None:
                return lock
        return None

    def lock_held_methods(self) -> dict[str, str]:
        """Method name -> lock it provably always runs under."""
        sites_by_callee: dict[str, list] = {}
        for caller, callee, guard in self.self_calls:
            sites_by_callee.setdefault(callee, []).append((caller, guard))
        held: dict[str, str] = {}
        changed = True
        while changed:
            changed = False
            for callee, sites in sites_by_callee.items():
                if callee in held or callee not in self.methods:
                    continue
                locks = {
                    self.held_lock(guards) or held.get(caller)
                    for caller, guards in sites
                }
                lock = locks.pop() if len(locks) == 1 else None
                if lock is not None:
                    held[callee] = lock
                    changed = True
        return held


@register
class LockGuardRule(Rule):
    """REP008: guarded-elsewhere-but-not-here mutations of shared state.

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
    ``OrderingCache._hit``/``_evict_over_caps`` idiom — private
    helpers whose callers hold the lock — free of false positives.
    Every lock-owning class is defined in one file, so one file is
    all the rule needs to see.
    """

    id = "REP008"
    title = "lock-guarded attribute mutated without its lock"
    severity = Severity.ERROR
    #: 2: a site is guarded by the innermost enclosing ``with`` item
    #: that is a lock, not by the innermost item whatever it is.
    version = 2
    rationale = (
        "OrderingCache once shipped races that were fixed by hand; "
        "this inference catches them mechanically: once any "
        "mutation site of an attribute takes a lock, an unguarded "
        "site is a data race waiting for a second thread."
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        visitor = _LockFactsVisitor(self, ctx, ImportMap(ctx.tree))
        visitor.visit(ctx.tree)
        for cls in visitor.classes:
            if cls.lock_attrs:
                self._check_class(visitor, cls)
        return visitor.findings

    def _check_class(
        self, visitor: RuleVisitor, cls: _ClassLocks
    ) -> None:
        held = cls.lock_held_methods()
        ignore = cls.lock_attrs | set(cls.lock_aliases)
        by_attr: dict[str, list[tuple[_Mutation, str | None]]] = {}
        for site in cls.mutations:
            if site.attr not in ignore:
                lock = cls.held_lock(site.guards) or held.get(
                    site.method
                )
                by_attr.setdefault(site.attr, []).append((site, lock))
        for attr in sorted(by_attr):
            guarded = [pair for pair in by_attr[attr] if pair[1]]
            unguarded = [
                site for site, lock in by_attr[attr] if lock is None
            ]
            if not guarded or not unguarded:
                continue
            example, example_lock = guarded[0]
            for site in unguarded:
                visitor.report(
                    site.node,
                    f"{cls.name}.{site.method} mutates "
                    f"self.{attr} ({site.kind}) without holding "
                    f"self.{example_lock}, but "
                    f"{len(guarded)} other site(s) guard it "
                    f"(e.g. {cls.name}.{example.method} "
                    f"line {getattr(example.node, 'lineno', 0)})",
                )


class _LockFactsVisitor(RuleVisitor):
    """Collect per-class lock, mutation and self-call facts."""

    def __init__(
        self, rule: Rule, ctx: FileContext, imports: ImportMap
    ) -> None:
        super().__init__(rule, ctx)
        self.imports = imports
        self.classes: list[_ClassLocks] = []
        #: (kind, name) scope stack; kinds: class | function.
        self._scopes: list[tuple[str, str]] = []
        self._class_stack: list[_ClassLocks] = []
        #: ``self.<attr>`` guard stack inside the current function.
        self._guards: list[str] = []

    def _method(self) -> tuple[_ClassLocks, str] | None:
        """(class, method name) when inside a method of a class."""
        if not self._class_stack:
            return None
        for kind, name in reversed(self._scopes):
            if kind == "function":
                return self._class_stack[-1], name
            if kind == "class":
                return None
        return None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        names = [name for _, name in self._scopes] + [node.name]
        cls = _ClassLocks(name=".".join(names))
        self.classes.append(cls)
        self._scopes.append(("class", node.name))
        self._class_stack.append(cls)
        self.generic_visit(node)
        self._class_stack.pop()
        self._scopes.pop()

    def _visit_function(self, node) -> None:
        if self._scopes and self._scopes[-1][0] == "class":
            self._class_stack[-1].methods.add(node.name)
        self._scopes.append(("function", node.name))
        guards = self._guards
        self._guards = []  # guards never span function boundaries
        self.generic_visit(node)
        self._guards = guards
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _visit_with(self, node) -> None:
        attrs = [
            attr
            for attr in (
                _self_attr(item.context_expr) for item in node.items
            )
            if attr is not None
        ]
        self._guards.extend(attrs)
        self.generic_visit(node)
        del self._guards[len(self._guards) - len(attrs):]

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def _record_mutation(
        self, attr: str, node: ast.AST, kind: str
    ) -> None:
        located = self._method()
        if located is None:
            return
        cls, method = located
        if method == "__init__":
            return  # pre-publication construction is single-threaded
        cls.mutations.append(
            _Mutation(attr, method, node, kind, tuple(self._guards))
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
        if call_name(value) in LOCK_CONSTRUCTORS and attr_root(
            value.func
        ) in (None, "threading"):
            return value
        return None

    def _record_lock_assign(self, attr: str, value: ast.AST) -> None:
        call = self._lock_constructor(value)
        if call is None or not self._class_stack:
            return
        cls = self._class_stack[-1]
        cls.lock_attrs.add(attr)
        # Condition(self._lock) aliases the wrapped lock: holding
        # either guards the state both protect.
        if call.args:
            wrapped = _self_attr(call.args[0])
            if wrapped is not None:
                cls.lock_aliases[attr] = wrapped

    def _assign_target(
        self, target: ast.AST, node: ast.AST, kind: str
    ) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self._record_mutation(attr, node, kind)
        elif isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
            if attr is not None:
                self._record_mutation(attr, node, f"{kind} (item)")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_target(element, node, kind)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                self._record_lock_assign(attr, node.value)
            self._assign_target(target, node, "assignment")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            attr = _self_attr(node.target)
            if attr is not None:
                self._record_lock_assign(attr, node.value)
            self._assign_target(node.target, node, "assignment")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._assign_target(node.target, node, "augmented assignment")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            attr = _self_attr(target)
            if attr is None and isinstance(target, ast.Subscript):
                attr = _self_attr(target.value)
            if attr is not None:
                self._record_mutation(attr, node, "del")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        located = self._method()
        callee = _self_attr(func)
        if located is not None and callee is not None:
            cls, method = located
            cls.self_calls.append((method, callee, tuple(self._guards)))
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
        ):
            attr = _self_attr(func.value)
            if attr is not None:
                self._record_mutation(attr, node, f".{func.attr}()")
        self.generic_visit(node)
