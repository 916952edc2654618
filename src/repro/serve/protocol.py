"""Wire protocol of the ordering service: requests, errors, shaping.

The protocol is deliberately plain: JSON bodies over HTTP/1.1, no
custom framing, so ``curl`` is a complete client.  Every error the
service raises deliberately derives from :class:`ServeError`, which
carries the HTTP status code the transport layer should map it to —
the handler catches one type at the boundary (the same convention the
CLI uses with :class:`~repro.errors.ReproError`).

Status-code semantics (documented in ``docs/serving.md``):

* ``400`` — malformed request (unknown dataset/ordering/field type,
  a top-level field the endpoint does not accept, or
  ``ordering_params`` the ordering does not declare or of a type its
  annotation does not admit)
* ``404`` — unknown endpoint
* ``429`` — admission queue full; ``Retry-After`` header set
* ``503`` — draining (shutdown in progress); ``Retry-After`` set
* ``504`` — per-request deadline exceeded; the body carries
  partial-progress telemetry (the last completed phase)
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from repro.algorithms import ALGORITHM_NAMES
from repro.errors import ReproError
from repro.ordering import ALL_ORDERING_NAMES, OrderingConfig
from repro.perf.experiments import get_profile
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


#: Wire fields that name the permutation; each request holds them as
#: one :class:`~repro.ordering.OrderingConfig` in its ``config``.
_CONFIG_FIELDS = ("ordering", "seed", "ordering_params")


def _reject_unknown_fields(payload: dict, request_type: type) -> None:
    """400 for top-level fields ``request_type`` does not declare.

    Silently ignoring them would hide a client's typo or a retired
    field behind a default.
    """
    accepted = sorted(
        {item.name for item in fields(request_type)} - {"config"}
        | set(_CONFIG_FIELDS)
    )
    unknown = sorted(set(payload) - set(accepted))
    if unknown:
        raise BadRequestError(
            f"unknown field(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(accepted)}"
        )


def _ordering_config(payload: dict, seed: int) -> OrderingConfig:
    """The request's permutation, through the strict constructor.

    Rejecting undeclared or mistyped ``ordering_params`` (rather than
    letting the lenient constructor drop them) names the client's
    mistake and keeps one store key per permutation.
    """
    ordering = _require_str(
        payload, "ordering", "gorder", ALL_ORDERING_NAMES
    )
    params = payload.get("ordering_params") or {}
    if not isinstance(params, dict):
        raise BadRequestError(
            "field 'ordering_params' must be an object"
        )
    try:
        return OrderingConfig.strict(ordering, seed, params)
    except ReproError as exc:
        raise BadRequestError(
            f"field 'ordering_params': {exc}"
        ) from None


@dataclass(frozen=True)
class OrderRequest:
    """A validated ``POST /order`` body."""

    dataset: str
    config: OrderingConfig
    include_permutation: bool = False
    deadline_seconds: float | None = None

    @classmethod
    def from_payload(cls, payload: Any) -> "OrderRequest":
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        _reject_unknown_fields(payload, cls)
        dataset = _require_str(payload, "dataset")
        return cls(
            dataset=dataset,
            config=_ordering_config(
                payload, _optional_int(payload, "seed", 0)
            ),
            include_permutation=_optional_bool(
                payload, "include_permutation", False
            ),
            deadline_seconds=_optional_number(
                payload, "deadline_seconds"
            ),
        )


@dataclass(frozen=True)
class RunRequest:
    """A validated ``POST /run`` body.

    An omitted ``seed`` is the named profile's seed, resolved here so
    ``config`` names the exact permutation the run uses.
    """

    dataset: str
    algorithm: str
    config: OrderingConfig
    profile: str = "quick"
    deadline_seconds: float | None = None

    @classmethod
    def from_payload(cls, payload: Any) -> "RunRequest":
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        _reject_unknown_fields(payload, cls)
        seed = payload.get("seed")
        if seed is not None and (
            isinstance(seed, bool) or not isinstance(seed, int)
        ):
            raise BadRequestError("field 'seed' must be an integer")
        dataset = _require_str(payload, "dataset")
        algorithm = _require_str(
            payload, "algorithm", None, ALGORITHM_NAMES
        )
        profile = _require_str(payload, "profile", "quick")
        if seed is None:
            seed = get_profile(profile).seed
        return cls(
            dataset=dataset,
            algorithm=algorithm,
            config=_ordering_config(payload, seed),
            profile=profile,
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
