"""Run an oracle with its ways out of a pure computation patched to raise.

The oracles in :mod:`repro.oracles` are the ground truth the fast paths
are checked against, so they must be pure functions of their inputs.
Instead of proving that from an approximate call graph, the harness
checks the calls an oracle actually makes: while :func:`tripwire` is
active,

* unseeded or global randomness raises — the ``random`` module
  functions, the legacy ``numpy.random`` functions, and
  ``random.Random()`` / ``numpy.random.default_rng()`` built without
  a seed; a seeded ``Random(seed)`` or ``default_rng(seed)`` is
  allowed;
* file I/O raises — ``open``, ``print``, ``os.replace`` and the
  :mod:`repro.ioutil` writers;
* telemetry raises — ``obs.inc``, ``span``, ``profile``, ``event`` and
  ``progress``.

:func:`run_oracle` also hands the oracle read-only copies of its array
arguments (``CSRGraph`` arrays are read-only already), so an in-place
write to an input raises numpy's own ``ValueError`` (``... is
read-only``).  A write to an array the oracle allocated itself stays
allowed.
"""

from __future__ import annotations

import builtins
import contextlib
import io
import os
import random
from typing import Any, Callable, Iterator

import numpy as np

from repro import ioutil, obs

TELEMETRY = ("inc", "span", "profile", "event", "progress")
IOUTIL_WRITERS = ("atomic_open", "atomic_write_text", "atomic_write_bytes")


class TripwireError(AssertionError):
    """An oracle drew randomness, did file I/O or touched telemetry."""


def _refuse(what: str) -> Callable[..., Any]:
    def refuse(*args: Any, **kwargs: Any) -> Any:
        raise TripwireError(f"oracle called {what}")

    return refuse


def _unseeded(what: str) -> TripwireError:
    return TripwireError(f"oracle called {what} without a seed")


class _SeededRandom(random.Random):
    """``random.Random`` that insists on a seed."""

    def __init__(self, x: Any = None) -> None:
        if x is None:
            raise _unseeded("random.Random")
        super().__init__(x)


def _seeded_default_rng(original: Callable[..., Any]):
    def default_rng(seed: Any = None) -> Any:
        if seed is None:
            raise _unseeded("numpy.random.default_rng")
        return original(seed)

    return default_rng


def _patches() -> list[tuple[Any, str, Any]]:
    patches: list[tuple[Any, str, Any]] = [
        (random, "Random", _SeededRandom),
        (
            np.random,
            "default_rng",
            _seeded_default_rng(np.random.default_rng),
        ),
    ]
    patches += [
        (random, name, _refuse(f"random.{name}"))
        for name in random.__all__
        if name != "Random"
    ]
    # The legacy functions are bound methods of one hidden global
    # RandomState; classes (Generator, the bit generators) are left
    # alone because numpy type-checks against them internally.
    patches += [
        (np.random, name, _refuse(f"numpy.random.{name}"))
        for name in np.random.__all__
        if not isinstance(getattr(np.random, name), type)
        and name != "default_rng"
    ]
    patches += [
        (builtins, "open", _refuse("open")),
        (io, "open", _refuse("open")),
        (builtins, "print", _refuse("print")),
        (os, "replace", _refuse("os.replace")),
    ]
    patches += [
        (ioutil, name, _refuse(f"repro.ioutil.{name}"))
        for name in IOUTIL_WRITERS
    ]
    patches += [(obs, name, _refuse(f"obs.{name}")) for name in TELEMETRY]
    return patches


@contextlib.contextmanager
def tripwire() -> Iterator[None]:
    """Patch RNG, file I/O and telemetry to raise until exit."""
    saved = []
    try:
        for owner, name, replacement in _patches():
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _read_only(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.setflags(write=False)
    return value


def run_oracle(oracle: Callable[..., Any], *args: Any, **kwargs: Any):
    """``oracle(*args, **kwargs)`` on read-only inputs, tripwire set."""
    args = tuple(_read_only(arg) for arg in args)
    kwargs = {key: _read_only(value) for key, value in kwargs.items()}
    with tripwire():
        return oracle(*args, **kwargs)


def exported_oracles(module) -> dict[str, Callable[..., Any]]:
    """Every callable ``module`` lists in ``__all__``, by name."""
    members = {name: getattr(module, name) for name in module.__all__}
    return {name: fn for name, fn in members.items() if callable(fn)}
