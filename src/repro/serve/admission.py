"""Admission control: bounded queue, deadlines, cancellation.

The daemon separates *accepting* a request (the HTTP handler thread)
from *executing* it (a small fixed worker pool fed by a bounded
queue).  The queue is the backpressure mechanism: when it is full the
request is rejected immediately with 429 + ``Retry-After`` instead of
piling latency onto everyone already waiting — load must be shed at
the door, not discovered by timeout.

Deadlines are **cooperative**.  Each request carries a
:class:`RequestContext` whose :meth:`~RequestContext.checkpoint`
method is called at phase boundaries inside the ordering/run paths
(see :func:`repro.perf.runner.simulate`'s ``cancel_check``); an
expired deadline or a cancellation raises there, so a worker abandons
doomed work at the next checkpoint instead of computing a result
nobody will read.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from collections.abc import Callable
from concurrent.futures import Future
from typing import Any

from repro import obs
from repro.errors import InvalidParameterError
from repro.perf.faults import InjectedFault
from repro.serve.protocol import (
    DeadlineExceededError,
    DrainingError,
    QueueFullError,
    RequestCancelledError,
)

#: Exception types a worker attempt may be retried after.  Injected
#: faults stand in for any transient infrastructure failure in tests;
#: ``OSError`` covers real transient I/O (a full disk, a flaky spill).
RETRYABLE_ERRORS: tuple[type[BaseException], ...] = (
    InjectedFault,
    OSError,
)


class Deadline:
    """A wall-clock budget measured on the monotonic clock."""

    __slots__ = ("seconds", "_expires")

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds
        self._expires = (
            None if seconds is None else time.monotonic() + seconds
        )

    def remaining(self) -> float | None:
        """Seconds left, or ``None`` for no deadline."""
        if self._expires is None:
            return None
        return self._expires - time.monotonic()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0


class RequestContext:
    """Per-request identity, deadline, phase and cancellation state.

    The ``phase`` attribute records the last completed checkpoint; it
    is the partial-progress telemetry a 504 response reports, so a
    client (and the trace) can see *how far* a doomed request got.
    """

    def __init__(
        self,
        request_id: str,
        deadline: Deadline,
        op: str = "request",
    ) -> None:
        self.request_id = request_id
        self.deadline = deadline
        self.op = op
        self.phase = "queued"
        self.started = time.monotonic()
        self._cancelled = threading.Event()
        #: Optional transport probe set by the HTTP handler; returns
        #: True when the client hung up (the handler-side wait polls
        #: it and cancels the request).
        self.disconnect_check: Callable[[], bool] | None = None

    def cancel(self) -> None:
        """Request cooperative cancellation (client gone / drain)."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def check(self) -> None:
        """Raise if the request is cancelled or past its deadline."""
        if self._cancelled.is_set():
            raise RequestCancelledError(
                f"request {self.request_id} cancelled",
                phase=self.phase,
            )
        if self.deadline.expired():
            raise DeadlineExceededError(
                f"request {self.request_id} exceeded its "
                f"{self.deadline.seconds:.3f}s deadline",
                phase=self.phase,
            )

    def checkpoint(self, phase: str) -> None:
        """Record a completed phase, then enforce deadline/cancel."""
        self.phase = phase
        self.check()

    def elapsed(self) -> float:
        return time.monotonic() - self.started


class ServiceCounters:
    """Thread-safe event counters, mirrored onto :mod:`repro.obs`.

    The obs registry is disabled unless the operator passed a log
    flag, but ``/stats`` must always report; so the service keeps its
    own always-on counters and forwards every increment to obs (where
    it lands in traces when telemetry is configured).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


class _Job:
    """One queued unit of work: a context plus the body to run."""

    __slots__ = ("ctx", "fn", "future")

    def __init__(
        self,
        ctx: RequestContext,
        fn: Callable[[RequestContext, int], Any],
    ) -> None:
        self.ctx = ctx
        self.fn = fn
        self.future: Future = Future()


class AdmissionQueue:
    """Bounded FIFO of jobs executed by a fixed worker pool.

    ``capacity`` bounds *waiting* jobs (running jobs do not count);
    a submit against a full queue raises :class:`QueueFullError`
    immediately — explicit backpressure.  ``retries`` re-attempts a
    job whose body raised one of :data:`RETRYABLE_ERRORS`, sleeping
    ``backoff_seconds * 2**(attempt-1)`` between attempts (the sleep
    polls the request's cancellation, so a deadline still fires
    during backoff).
    """

    def __init__(
        self,
        capacity: int = 8,
        workers: int = 2,
        retries: int = 0,
        backoff_seconds: float = 0.05,
        counters: ServiceCounters | None = None,
        retry_after: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise InvalidParameterError("capacity must be >= 1")
        if workers < 1:
            raise InvalidParameterError("workers must be >= 1")
        self.capacity = capacity
        self.retries = max(0, retries)
        self.backoff_seconds = backoff_seconds
        self.retry_after = retry_after
        self.counters = counters or ServiceCounters()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._queue: deque[_Job] = deque()
        self._inflight: dict[str, RequestContext] = {}
        self._draining = False
        self._closed = False
        self._ids = itertools.count(1)
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"serve-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission ----------------------------------------------------
    def submit(
        self,
        ctx: RequestContext,
        fn: Callable[[RequestContext, int], Any],
    ) -> Future:
        """Enqueue a job, or reject it with backpressure/drain errors."""
        job = _Job(ctx, fn)
        with self._lock:
            if self._draining:
                self.counters.inc("serve.rejected_draining")
                obs.inc("serve.rejected_draining")
                raise DrainingError(
                    "service is draining; retry against a fresh "
                    "instance",
                    retry_after=self.retry_after,
                )
            if len(self._queue) >= self.capacity:
                self.counters.inc("serve.rejected_queue_full")
                obs.inc("serve.rejected_queue_full")
                raise QueueFullError(
                    f"admission queue is full "
                    f"({self.capacity} waiting)",
                    retry_after=self.retry_after,
                )
            self._queue.append(job)
            depth = len(self._queue)
            self._not_empty.notify()
        self.counters.inc("serve.admitted")
        obs.inc("serve.admitted")
        obs.event(
            "serve.enqueued",
            level="debug",
            request_id=ctx.request_id,
            queue_depth=depth,
        )
        return job.future

    # -- worker side ---------------------------------------------------
    def _next_job(self) -> _Job | None:
        with self._not_empty:
            while not self._queue and not self._closed:
                self._not_empty.wait(timeout=0.1)
            if self._queue:
                return self._queue.popleft()
            return None

    def _worker_loop(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                if self._closed:
                    return
                continue
            self._run_job(job)

    def _run_job(self, job: _Job) -> None:
        ctx = job.ctx
        if not job.future.set_running_or_notify_cancel():
            return
        with self._lock:
            self._inflight[ctx.request_id] = ctx
        try:
            result = self._attempts(job)
        # Counted by kind and propagated to the submitter through
        # the job future — never swallowed.
        except BaseException as exc:  # repro: noqa[REP003] — via future
            self._count_failure(exc)
            job.future.set_exception(exc)
        else:
            job.future.set_result(result)
        finally:
            with self._lock:
                self._inflight.pop(ctx.request_id, None)

    def _attempts(self, job: _Job) -> Any:
        ctx = job.ctx
        attempt = 0
        while True:
            ctx.check()  # don't start doomed work
            try:
                return job.fn(ctx, attempt)
            except RETRYABLE_ERRORS as exc:
                if attempt >= self.retries:
                    raise
                self.counters.inc("serve.retries")
                obs.inc("serve.retries")
                obs.event(
                    "serve.retry",
                    level="warning",
                    request_id=ctx.request_id,
                    attempt=attempt,
                    error=type(exc).__name__,
                )
                self._backoff(ctx, attempt)
                attempt += 1

    def _backoff(self, ctx: RequestContext, attempt: int) -> None:
        delay = self.backoff_seconds * (2**attempt)
        end = time.monotonic() + delay
        while True:
            ctx.check()
            remaining = end - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(0.01, remaining))

    def _count_failure(self, exc: BaseException) -> None:
        if isinstance(exc, DeadlineExceededError):
            self.counters.inc("serve.deadline_exceeded")
            obs.inc("serve.deadline_exceeded")
        elif isinstance(exc, RequestCancelledError):
            self.counters.inc("serve.cancelled")
            obs.inc("serve.cancelled")
        else:
            self.counters.inc("serve.worker_errors")
            obs.inc("serve.worker_errors")

    # -- introspection -------------------------------------------------
    def next_request_id(self) -> str:
        return f"r{next(self._ids)}"

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "queue_depth": len(self._queue),
                "inflight": len(self._inflight),
                "workers": len(self._workers),
                "draining": self._draining,
            }

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # -- drain ---------------------------------------------------------
    def drain(self, timeout: float = 5.0) -> dict:
        """Stop admitting, reject queued jobs, bound in-flight work.

        Queued-but-unstarted jobs are failed with
        :class:`DrainingError` (their submitters respond 503).
        In-flight jobs get until their own deadline — or ``timeout``
        seconds, whichever comes first — after which they are
        cooperatively cancelled.  Returns drain statistics.
        """
        with self._lock:
            self._draining = True
            abandoned = list(self._queue)
            self._queue.clear()
        for job in abandoned:
            self.counters.inc("serve.rejected_draining")
            obs.inc("serve.rejected_draining")
            job.future.set_exception(
                DrainingError(
                    "service is draining; request was never started",
                    retry_after=self.retry_after,
                )
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self._inflight:
                    break
            time.sleep(0.01)
        with self._lock:
            cancelled = list(self._inflight.values())
        for ctx in cancelled:
            ctx.cancel()
        # Give cancelled workers a moment to hit a checkpoint.
        grace = time.monotonic() + timeout
        while time.monotonic() < grace:
            with self._lock:
                if not self._inflight:
                    break
            time.sleep(0.01)
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            leftover = len(self._inflight)
        for thread in self._workers:
            thread.join(timeout=1.0)
        return {
            "rejected_queued": len(abandoned),
            "cancelled_inflight": len(cancelled),
            "unfinished": leftover,
        }
