"""Declarative registry of config knobs and their required surfaces.

Every experiment/serve knob in this repo must travel in lockstep
through a fixed set of *surfaces*: the runner memo key (or results
would alias across configurations), the sweep engine (or profiles
would silently ignore it), the CLI (or users could not set it), the
serve protocol (or the daemon would diverge from batch runs), and
the archive metadata (or saved results would be unreproducible).
PRs 3/4/8/9 each plumbed one knob through all of them by hand — and
PR 8's ``algo_backend`` missed several.

:class:`Knob` entries below make the contract checkable: REP009
(:mod:`repro.analysis.project_rules`) verifies that every dataclass
field of the classes in :data:`KNOB_CLASSES` is registered here, that
every declared surface token actually appears in the named scope, and
that no registry entry outlives its field.  Adding a field to
``Profile``/``OrderRequest``/``RunRequest`` without a registry entry
is a lint error by design — see CONTRIBUTING.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class KnobSurface:
    """One place a knob's value must reach.

    ``token`` must appear in the token set of ``scope`` (a qualified
    function/class name inside ``module``; ``''`` means anywhere in
    the module).  Tokens are identifiers, attribute/keyword names, or
    string literals — so ``"--query-volume"`` checks the CLI flag
    and ``"ordering_params"`` checks a keyword argument.
    """

    name: str
    module: str
    scope: str
    token: str


@dataclass(frozen=True)
class Knob:
    """One configuration field and the surfaces it must reach.

    Structural fields (dataset lists, profile names) declare no
    surfaces: registering them is an explicit statement that they
    need no plumbing, reviewed like any other code change.
    """

    name: str
    declared_in: str
    surfaces: tuple[KnobSurface, ...] = field(default_factory=tuple)


#: Dataclasses whose every field must have a :class:`Knob` entry.
KNOB_CLASSES: tuple[str, ...] = (
    "repro.perf.experiments.Profile",
    "repro.serve.protocol.OrderRequest",
    "repro.serve.protocol.RunRequest",
)


def _surface(name: str, module: str, scope: str, token: str) -> KnobSurface:
    return KnobSurface(name=name, module=module, scope=scope, token=token)


_PROFILE = "repro.perf.experiments.Profile"
_ORDER_REQUEST = "repro.serve.protocol.OrderRequest"
_RUN_REQUEST = "repro.serve.protocol.RunRequest"


KNOBS: tuple[Knob, ...] = (
    # ------------------------------------------------------------------
    # Profile — the batch experiment configuration.
    # ------------------------------------------------------------------
    Knob(name="name", declared_in=_PROFILE),
    Knob(name="datasets", declared_in=_PROFILE),
    Knob(name="orderings", declared_in=_PROFILE),
    Knob(name="algorithms", declared_in=_PROFILE),
    Knob(
        name="pr_iterations",
        declared_in=_PROFILE,
        surfaces=(
            _surface(
                "algorithm params",
                "repro.perf.experiments",
                "algorithm_params",
                "pr_iterations",
            ),
        ),
    ),
    Knob(
        name="diam_num_sources",
        declared_in=_PROFILE,
        surfaces=(
            _surface(
                "algorithm params",
                "repro.perf.experiments",
                "algorithm_params",
                "diam_num_sources",
            ),
        ),
    ),
    Knob(name="seed", declared_in=_PROFILE),
    Knob(name="random_seeds", declared_in=_PROFILE),
    Knob(
        name="ordering_params",
        declared_in=_PROFILE,
        surfaces=(
            _surface(
                "runner memo key",
                "repro.perf.runner",
                "run_cell",
                "ordering_params",
            ),
            _surface(
                "sweep-engine cell",
                "repro.perf.engine",
                "_execute_cell_body",
                "ordering_params",
            ),
            _surface(
                "representative run",
                "repro.perf.experiments",
                "_representative_run",
                "ordering_params",
            ),
            _surface(
                "CLI profile plumbing",
                "repro.cli",
                "_profile_from_args",
                "ordering_params",
            ),
            _surface(
                "serve protocol",
                "repro.serve.protocol",
                "",
                "ordering_params",
            ),
            _surface(
                "ordering-store key",
                "repro.serve.server",
                "OrderingService._ordering_entry",
                "ordering_params",
            ),
        ),
    ),
    # The simulator pair stays on Profile only so the end-to-end
    # benchmark can forward it to run_cell; no CLI flag, serve field
    # or archive key sets or records it.
    Knob(
        name="cache_backend",
        declared_in=_PROFILE,
        surfaces=(
            _surface(
                "runner dispatch",
                "repro.perf.runner",
                "run_cell",
                "cache_backend",
            ),
            _surface(
                "sweep-engine cell",
                "repro.perf.engine",
                "_execute_cell_body",
                "cache_backend",
            ),
            _surface(
                "representative run",
                "repro.perf.experiments",
                "_representative_run",
                "cache_backend",
            ),
        ),
    ),
    Knob(
        name="algo_backend",
        declared_in=_PROFILE,
        surfaces=(
            _surface(
                "runner dispatch",
                "repro.perf.runner",
                "run_cell",
                "algo_backend",
            ),
            _surface(
                "sweep-engine cell",
                "repro.perf.engine",
                "_execute_cell_body",
                "algo_backend",
            ),
            _surface(
                "representative run",
                "repro.perf.experiments",
                "_representative_run",
                "algo_backend",
            ),
        ),
    ),
    # ------------------------------------------------------------------
    # OrderRequest — the serve-daemon ordering request.
    # ------------------------------------------------------------------
    Knob(name="dataset", declared_in=_ORDER_REQUEST),
    Knob(name="ordering", declared_in=_ORDER_REQUEST),
    Knob(name="seed", declared_in=_ORDER_REQUEST),
    Knob(
        name="ordering_params",
        declared_in=_ORDER_REQUEST,
        surfaces=(
            _surface(
                "ordering-store key",
                "repro.serve.server",
                "OrderingService._ordering_entry",
                "ordering_params",
            ),
        ),
    ),
    Knob(name="include_permutation", declared_in=_ORDER_REQUEST),
    Knob(name="deadline_seconds", declared_in=_ORDER_REQUEST),
    # ------------------------------------------------------------------
    # RunRequest — the serve-daemon traced-run request.
    # ------------------------------------------------------------------
    Knob(name="dataset", declared_in=_RUN_REQUEST),
    Knob(name="algorithm", declared_in=_RUN_REQUEST),
    Knob(name="ordering", declared_in=_RUN_REQUEST),
    Knob(name="seed", declared_in=_RUN_REQUEST),
    Knob(
        name="ordering_params",
        declared_in=_RUN_REQUEST,
        surfaces=(
            _surface(
                "serve dispatch",
                "repro.serve.server",
                "OrderingService.handle_run",
                "ordering_params",
            ),
        ),
    ),
    Knob(name="profile", declared_in=_RUN_REQUEST),
    Knob(name="deadline_seconds", declared_in=_RUN_REQUEST),
)


def knobs_for(declared_in: str) -> dict[str, Knob]:
    """Registered knobs of one declaring class, keyed by field name."""
    return {
        knob.name: knob
        for knob in KNOBS
        if knob.declared_in == declared_in
    }
