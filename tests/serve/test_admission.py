"""Admission queue, deadlines and retries."""

from __future__ import annotations

import threading
import time

import pytest

from repro.perf.faults import InjectedFault
from repro.serve.admission import (
    AdmissionQueue,
    Deadline,
    RequestContext,
    ServiceCounters,
)
from repro.serve.protocol import (
    DeadlineExceededError,
    DrainingError,
    QueueFullError,
    RequestCancelledError,
)


def make_ctx(
    seconds: float | None = None, request_id: str = "r1"
) -> RequestContext:
    return RequestContext(request_id, Deadline(seconds))


class TestDeadline:
    def test_no_deadline_never_expires(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        assert not deadline.expired()

    def test_expiry(self):
        deadline = Deadline(0.01)
        assert not deadline.expired()
        time.sleep(0.02)
        assert deadline.expired()
        assert deadline.remaining() < 0


class TestRequestContext:
    def test_checkpoint_records_phase(self):
        ctx = make_ctx(None)
        ctx.checkpoint("graph_loaded")
        assert ctx.phase == "graph_loaded"

    def test_checkpoint_raises_past_deadline(self):
        ctx = make_ctx(0.01)
        time.sleep(0.02)
        with pytest.raises(DeadlineExceededError) as excinfo:
            ctx.checkpoint("ordered")
        # The phase is recorded first: partial-progress telemetry
        # reports how far the request got, including the phase that
        # completed just as the deadline fired.
        assert excinfo.value.phase == "ordered"

    def test_cancel_raises(self):
        ctx = make_ctx(None)
        ctx.cancel()
        with pytest.raises(RequestCancelledError):
            ctx.check()


class TestAdmissionQueue:
    def test_executes_and_returns(self):
        queue = AdmissionQueue(capacity=2, workers=1)
        try:
            future = queue.submit(
                make_ctx(), lambda ctx, attempt: 42
            )
            assert future.result(timeout=5) == 42
        finally:
            queue.drain(timeout=0.5)

    def test_queue_full_rejected_with_429_error(self):
        release = threading.Event()
        queue = AdmissionQueue(capacity=1, workers=1)
        try:
            def blocker(ctx, attempt):
                release.wait(timeout=5)
                return "done"

            running = queue.submit(make_ctx(None, "r1"), blocker)
            # Wait until the blocker occupies the worker, leaving
            # the queue itself empty.
            deadline = time.monotonic() + 5
            while queue.stats()["inflight"] != 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            queued = queue.submit(
                make_ctx(None, "r2"), lambda ctx, attempt: "queued"
            )
            with pytest.raises(QueueFullError) as excinfo:
                queue.submit(
                    make_ctx(None, "r3"), lambda ctx, attempt: None
                )
            assert excinfo.value.retry_after > 0
            assert (
                queue.counters.snapshot()["serve.rejected_queue_full"]
                == 1
            )
            release.set()
            assert running.result(timeout=5) == "done"
            assert queued.result(timeout=5) == "queued"
        finally:
            release.set()
            queue.drain(timeout=0.5)

    def test_doomed_job_not_started(self):
        queue = AdmissionQueue(capacity=2, workers=1)
        try:
            ctx = make_ctx(0.01)
            time.sleep(0.02)
            ran = []
            future = queue.submit(
                ctx, lambda c, attempt: ran.append(attempt)
            )
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=5)
            assert ran == []
        finally:
            queue.drain(timeout=0.5)

    def test_retry_after_transient_failure(self):
        counters = ServiceCounters()
        queue = AdmissionQueue(
            capacity=2,
            workers=1,
            retries=2,
            backoff_seconds=0.001,
            counters=counters,
        )
        try:
            attempts = []

            def flaky(ctx, attempt):
                attempts.append(attempt)
                if attempt < 2:
                    raise InjectedFault("transient")
                return "recovered"

            future = queue.submit(make_ctx(), flaky)
            assert future.result(timeout=5) == "recovered"
            assert attempts == [0, 1, 2]
            assert counters.snapshot()["serve.retries"] == 2
        finally:
            queue.drain(timeout=0.5)

    def test_retries_exhausted_raise_last_error(self):
        queue = AdmissionQueue(
            capacity=2, workers=1, retries=1, backoff_seconds=0.001
        )
        try:
            def broken(ctx, attempt):
                raise InjectedFault(f"attempt {attempt}")

            future = queue.submit(make_ctx(), broken)
            with pytest.raises(InjectedFault, match="attempt 1"):
                future.result(timeout=5)
        finally:
            queue.drain(timeout=0.5)

    def test_deadline_not_retried(self):
        queue = AdmissionQueue(
            capacity=2, workers=1, retries=3, backoff_seconds=0.001
        )
        try:
            attempts = []

            def late(ctx, attempt):
                attempts.append(attempt)
                raise DeadlineExceededError("late", phase="ordered")

            future = queue.submit(make_ctx(), late)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=5)
            assert attempts == [0]
        finally:
            queue.drain(timeout=0.5)

    def test_drain_rejects_queued_and_cancels_inflight(self):
        release = threading.Event()
        counters = ServiceCounters()
        queue = AdmissionQueue(
            capacity=4, workers=1, counters=counters
        )

        def blocker(ctx, attempt):
            while True:
                ctx.check()
                if release.wait(timeout=0.01):
                    return "finished"

        inflight = queue.submit(make_ctx(None, "r1"), blocker)
        deadline = time.monotonic() + 5
        while queue.stats()["inflight"] != 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        queued = queue.submit(
            make_ctx(None, "r2"), lambda ctx, attempt: "never"
        )
        outcome = queue.drain(timeout=0.2)
        assert outcome["rejected_queued"] == 1
        assert outcome["cancelled_inflight"] == 1
        with pytest.raises(DrainingError):
            queued.result(timeout=1)
        with pytest.raises(RequestCancelledError):
            inflight.result(timeout=5)
        with pytest.raises(DrainingError):
            queue.submit(make_ctx(None, "r3"), lambda c, a: None)
        snapshot = counters.snapshot()
        assert snapshot["serve.rejected_draining"] >= 1
        assert snapshot["serve.cancelled"] == 1

    def test_drain_lets_fast_work_finish(self):
        queue = AdmissionQueue(capacity=2, workers=1)
        future = queue.submit(
            make_ctx(), lambda ctx, attempt: "done"
        )
        assert future.result(timeout=5) == "done"
        outcome = queue.drain(timeout=1.0)
        assert outcome["cancelled_inflight"] == 0
        assert outcome["unfinished"] == 0
