"""Ordering-as-a-service: the ``repro-gorder serve`` daemon.

The paper's premise is that an ordering's cost is amortised across
many subsequent algorithm runs.  That only pays off in a long-lived
process that keeps orderings warm and serves many requests — this
package is that process.  It owns loaded graphs and precomputed
orderings in memory and answers concurrent HTTP/JSON requests:

* ``POST /order`` — compute (or fetch) an ordering
* ``POST /run``   — run algorithm X on dataset Y under ordering Z
* ``GET  /stats`` — store/queue/counter statistics
* ``GET  /health``— liveness and drain state
* ``POST /shutdown`` — request a graceful drain

Robustness is the headline: a bounded admission queue with explicit
backpressure (429 + ``Retry-After``), per-request deadlines with
cooperative cancellation checkpoints (504 + partial-progress
telemetry), retry/backoff on transient worker failures, and graceful
drain on SIGTERM/SIGINT.  Orderings live in one
:class:`~repro.perf.runner.OrderingCache` keyed by graph content: it
deduplicates concurrent identical computations and spills to disk
through the atomic :mod:`repro.ioutil` layer, quarantining corrupt
spill files.  See ``docs/serving.md``.
"""

from repro.serve.admission import (
    AdmissionQueue,
    Deadline,
    RequestContext,
)
from repro.serve.protocol import (
    BadRequestError,
    DeadlineExceededError,
    DrainingError,
    NotFoundError,
    OrderRequest,
    QueueFullError,
    RequestCancelledError,
    RunRequest,
    ServeError,
)
from repro.serve.server import (
    OrderingService,
    ServeConfig,
    serve,
)

__all__ = [
    "AdmissionQueue",
    "BadRequestError",
    "Deadline",
    "DeadlineExceededError",
    "DrainingError",
    "NotFoundError",
    "OrderRequest",
    "OrderingService",
    "QueueFullError",
    "RequestCancelledError",
    "RequestContext",
    "RunRequest",
    "ServeConfig",
    "ServeError",
    "serve",
]
