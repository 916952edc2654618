"""Wire protocol of the ordering service: requests, errors, shaping.

The protocol is deliberately plain: JSON bodies over HTTP/1.1, no
custom framing, so ``curl`` is a complete client.  Every error the
service raises deliberately derives from :class:`ServeError`, which
carries the HTTP status code the transport layer should map it to —
the handler catches one type at the boundary (the same convention the
CLI uses with :class:`~repro.errors.ReproError`).

Status-code semantics (documented in ``docs/serving.md``):

* ``400`` — malformed request (unknown dataset/ordering/field type,
  or ``ordering_params`` the ordering does not declare)
* ``404`` — unknown endpoint
* ``429`` — admission queue full; ``Retry-After`` header set
* ``503`` — draining (shutdown in progress); ``Retry-After`` set
* ``504`` — per-request deadline exceeded; the body carries
  partial-progress telemetry (the last completed phase)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.algorithms import ALGORITHM_NAMES
from repro.errors import ReproError
from repro.ordering import ALL_ORDERING_NAMES, accepted_params
from repro.perf.runner import RunResult

#: Protocol version reported by ``/health`` and spill metadata.
PROTOCOL_VERSION = 1


class ServeError(ReproError):
    """Base class for errors the service maps onto HTTP statuses."""

    status = 500
    code = "internal"


class BadRequestError(ServeError):
    """The request body could not be validated."""

    status = 400
    code = "bad_request"


class NotFoundError(ServeError):
    """No such endpoint."""

    status = 404
    code = "not_found"


class QueueFullError(ServeError):
    """The admission queue is at capacity (backpressure)."""

    status = 429
    code = "queue_full"

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class DrainingError(ServeError):
    """The service is draining and admits no new work."""

    status = 503
    code = "draining"

    def __init__(self, message: str, retry_after: float = 5.0):
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(ServeError):
    """The per-request deadline expired before the work finished."""

    status = 504
    code = "deadline_exceeded"

    def __init__(self, message: str, phase: str = "queued"):
        super().__init__(message)
        #: Last completed phase — partial-progress telemetry.
        self.phase = phase


class RequestCancelledError(ServeError):
    """The request was cancelled (client gone or drain cutoff).

    Status 499 is the de-facto "client closed request" convention;
    when the client is gone the response is unsendable anyway, so the
    status mostly feeds counters and logs.
    """

    status = 499
    code = "cancelled"

    def __init__(self, message: str, phase: str = "queued"):
        super().__init__(message)
        self.phase = phase


def _require_str(payload: dict, key: str, default: str | None = None,
                 choices: tuple[str, ...] | None = None) -> str:
    value = payload.get(key, default)
    if value is None:
        raise BadRequestError(f"missing required field {key!r}")
    if not isinstance(value, str):
        raise BadRequestError(f"field {key!r} must be a string")
    if choices is not None and value not in choices:
        known = ", ".join(choices)
        raise BadRequestError(
            f"unknown {key} {value!r}; known: {known}"
        )
    return value


def _optional_int(payload: dict, key: str, default: int) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(f"field {key!r} must be an integer")
    return value


def _optional_number(
    payload: dict, key: str
) -> float | None:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(f"field {key!r} must be a number")
    if value <= 0:
        raise BadRequestError(f"field {key!r} must be > 0")
    return float(value)


def _optional_bool(payload: dict, key: str, default: bool) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise BadRequestError(f"field {key!r} must be a boolean")
    return value


def _ordering_params(payload: dict, ordering: str) -> dict:
    """The request's ordering keywords, each declared by ``ordering``.

    Rejecting undeclared names (rather than letting the registry's
    signature filter drop them) keeps one store key per permutation.
    """
    value = payload.get("ordering_params") or {}
    if not isinstance(value, dict) or not all(
        isinstance(key, str) for key in value
    ):
        raise BadRequestError(
            "field 'ordering_params' must be an object with "
            "string keys"
        )
    accepted = accepted_params(ordering)
    unknown = sorted(set(value) - accepted)
    if unknown:
        raise BadRequestError(
            f"ordering {ordering!r} does not accept ordering_params "
            f"{', '.join(unknown)}; accepted: "
            f"{', '.join(sorted(accepted)) or 'none'}"
        )
    return dict(value)


@dataclass(frozen=True)
class OrderRequest:
    """A validated ``POST /order`` body."""

    dataset: str
    ordering: str = "gorder"
    seed: int = 0
    ordering_params: dict = field(default_factory=dict)
    include_permutation: bool = False
    deadline_seconds: float | None = None

    @classmethod
    def from_payload(cls, payload: Any) -> "OrderRequest":
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        dataset = _require_str(payload, "dataset")
        ordering = _require_str(
            payload, "ordering", "gorder", ALL_ORDERING_NAMES
        )
        return cls(
            dataset=dataset,
            ordering=ordering,
            seed=_optional_int(payload, "seed", 0),
            ordering_params=_ordering_params(payload, ordering),
            include_permutation=_optional_bool(
                payload, "include_permutation", False
            ),
            deadline_seconds=_optional_number(
                payload, "deadline_seconds"
            ),
        )


@dataclass(frozen=True)
class RunRequest:
    """A validated ``POST /run`` body."""

    dataset: str
    algorithm: str
    ordering: str = "gorder"
    seed: int | None = None
    ordering_params: dict = field(default_factory=dict)
    cache_backend: str = "replay"
    algo_backend: str = "runtime"
    profile: str = "quick"
    deadline_seconds: float | None = None

    @classmethod
    def from_payload(cls, payload: Any) -> "RunRequest":
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        seed = payload.get("seed")
        if seed is not None and (
            isinstance(seed, bool) or not isinstance(seed, int)
        ):
            raise BadRequestError("field 'seed' must be an integer")
        dataset = _require_str(payload, "dataset")
        algorithm = _require_str(
            payload, "algorithm", None, ALGORITHM_NAMES
        )
        ordering = _require_str(
            payload, "ordering", "gorder", ALL_ORDERING_NAMES
        )
        return cls(
            dataset=dataset,
            algorithm=algorithm,
            ordering=ordering,
            seed=seed,
            ordering_params=_ordering_params(payload, ordering),
            cache_backend=_require_str(
                payload, "cache_backend", "replay", ("step", "replay")
            ),
            algo_backend=_require_str(
                payload, "algo_backend", "runtime",
                ("runtime", "scalar"),
            ),
            profile=_require_str(payload, "profile", "quick"),
            deadline_seconds=_optional_number(
                payload, "deadline_seconds"
            ),
        )


def run_result_payload(result: RunResult) -> dict:
    """Shape a :class:`RunResult` for the ``/run`` response body."""
    stats = result.stats
    return {
        "dataset": result.dataset,
        "algorithm": result.algorithm,
        "ordering": result.ordering,
        "cycles": result.cycles,
        "execute_cycles": result.cost.execute_cycles,
        "stall_cycles": result.cost.stall_cycles,
        "l1_miss_rate": stats.l1_miss_rate,
        "cache_miss_rate": stats.cache_miss_rate,
        "ordering_seconds": result.ordering_seconds,
        "simulation_seconds": result.simulation_seconds,
    }


def error_payload(error: ServeError, request_id: str | None = None,
                  **extra: Any) -> dict:
    """Shape a :class:`ServeError` for an error response body."""
    payload: dict[str, Any] = {
        "error": error.code,
        "message": str(error),
    }
    if request_id is not None:
        payload["request_id"] = request_id
    phase = getattr(error, "phase", None)
    if phase is not None:
        payload["phase"] = phase
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        payload["retry_after"] = retry_after
    payload.update(extra)
    return payload
