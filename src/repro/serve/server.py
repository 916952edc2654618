"""The ``repro-gorder serve`` daemon: HTTP transport + service core.

Layering (transport is disposable, the service is the product):

* :class:`OrderingService` owns the loaded graphs, one
  :class:`~repro.perf.runner.OrderingCache` that both endpoints read
  (its spill directory keeps orderings across restarts), and the
  :class:`~repro.serve.admission.AdmissionQueue`.  It is fully
  testable without sockets.
* :class:`_Handler` maps HTTP requests onto service calls and
  :class:`~repro.serve.protocol.ServeError` subclasses onto status
  codes.  Handler threads *wait*; worker threads *compute*.
* :func:`serve` wires signals: SIGTERM/SIGINT trigger a graceful
  drain (stop admitting → 503, finish or cancel in-flight work by
  its deadline, exit 0) under a closed ``serve.drain`` span.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import socketserver
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro import obs, perf
from repro.errors import ReproError
from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.perf.faults import FaultPlan
from repro.perf.runner import OrderingCache, simulate
from repro.serve.admission import (
    AdmissionQueue,
    Deadline,
    RequestContext,
    ServiceCounters,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    BadRequestError,
    DeadlineExceededError,
    NotFoundError,
    OrderRequest,
    RequestCancelledError,
    RunRequest,
    ServeError,
    error_payload,
    run_result_payload,
)

#: Extra handler-side wait beyond the request deadline, covering the
#: gap between a worker's cooperative checkpoints.
DEADLINE_GRACE_SECONDS = 0.25

#: Largest request body accepted (these are small JSON commands).
MAX_BODY_BYTES = 1 << 20

#: The ``/stats`` counter each ordering-memo count is reported as.
STORE_COUNTERS = {
    "memo_hits": "serve.store_memory_hits",
    "disk_hits": "serve.store_disk_hits",
    "computed": "serve.store_computed",
    "spills": "serve.store_spills",
    "quarantined": "serve.store_quarantined",
    "warmed": "serve.store_warmed",
    "stray_tmp": "serve.store_stray_tmp",
    "singleflight_shared": "serve.singleflight_shared",
}


@dataclass
class ServeConfig:
    """Tunables of one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Serve on a unix socket instead of TCP when set.
    socket_path: str | None = None
    workers: int = 2
    queue_capacity: int = 8
    #: Deadline applied when a request names none.
    default_deadline_seconds: float = 30.0
    #: Hard ceiling on any request's deadline.
    max_deadline_seconds: float = 300.0
    retries: int = 1
    backoff_seconds: float = 0.05
    #: Spill directory for the ordering memo (``None`` = memory only).
    store_root: str | None = None
    #: Seconds the drain waits for in-flight work before cancelling.
    drain_timeout_seconds: float = 5.0
    #: Suggested client wait on 429/503 responses.
    retry_after_seconds: float = 1.0
    #: Deterministic fault injection (tests / CI smoke).
    plan: FaultPlan = field(default_factory=FaultPlan)
    #: Datasets to load (and count) eagerly at startup.
    preload: tuple[str, ...] = ()


class OrderingService:
    """The daemon's core: graphs, orderings, admission, statistics."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.counters = ServiceCounters()
        #: The daemon's own ordering memo (not the global one, so one
        #: daemon's memory is its own), shared by every worker.
        self.cache = OrderingCache(
            max_entries=256, spill_root=config.store_root
        )
        self.warmed = self.cache.warm()
        self.queue = AdmissionQueue(
            capacity=config.queue_capacity,
            workers=config.workers,
            retries=config.retries,
            backoff_seconds=config.backoff_seconds,
            counters=self.counters,
            retry_after=config.retry_after_seconds,
        )
        self._graphs: dict[str, CSRGraph] = {}
        self._graphs_lock = threading.Lock()
        self._started = time.monotonic()
        self._drained = threading.Event()
        self.shutdown_requested = threading.Event()
        for name in config.preload:
            self._graph(name)

    # -- shared plumbing -----------------------------------------------
    def _graph(self, name: str) -> CSRGraph:
        datasets.spec(name)  # unknown name raises before the lock
        with self._graphs_lock:
            graph = self._graphs.get(name)
            if graph is None:
                with obs.span("serve.load_graph", dataset=name):
                    graph = datasets.load(name)
                self._graphs[name] = graph
                self.counters.inc("serve.graphs_loaded")
                obs.inc("serve.graphs_loaded")
            return graph

    def context(self, op: str, deadline_seconds: float | None
                ) -> RequestContext:
        """A fresh request context with the clamped deadline."""
        seconds = (
            self.config.default_deadline_seconds
            if deadline_seconds is None
            else min(deadline_seconds, self.config.max_deadline_seconds)
        )
        ctx = RequestContext(
            self.queue.next_request_id(), Deadline(seconds), op=op
        )
        self.counters.inc("serve.requests")
        obs.inc("serve.requests")
        return ctx

    # -- endpoint bodies (run on worker threads) -----------------------
    def handle_order(
        self, request: OrderRequest, ctx: RequestContext
    ) -> dict:
        datasets.spec(request.dataset)  # reject before admission
        config = request.config

        def job(job_ctx: RequestContext, attempt: int) -> dict:
            with obs.span(
                "serve.request",
                op="order",
                request_id=job_ctx.request_id,
                dataset=request.dataset,
                ordering=config.ordering,
            ):
                self.config.plan.apply_in_cell(
                    request.dataset,
                    "order",
                    config.ordering,
                    config.seed,
                    attempt,
                    cancel_check=job_ctx.check,
                )
                graph = self._graph(request.dataset)
                job_ctx.checkpoint("graph_loaded")
                perm, seconds, source = self.cache.get(
                    graph, config, job_ctx.check
                )
                job_ctx.checkpoint("ordered")
                payload = {
                    "request_id": job_ctx.request_id,
                    "dataset": request.dataset,
                    "ordering": config.ordering,
                    "seed": config.seed,
                    "nodes": graph.num_nodes,
                    "ordering_seconds": seconds,
                    "source": source,
                }
                if request.include_permutation:
                    payload["permutation"] = [
                        int(value) for value in perm
                    ]
                return payload

        return self._execute(ctx, job)

    def handle_run(
        self, request: RunRequest, ctx: RequestContext
    ) -> dict:
        datasets.spec(request.dataset)  # reject before admission
        profile = perf.get_profile(request.profile)
        config = request.config

        def job(job_ctx: RequestContext, attempt: int) -> dict:
            with obs.span(
                "serve.request",
                op="run",
                request_id=job_ctx.request_id,
                dataset=request.dataset,
                algorithm=request.algorithm,
                ordering=config.ordering,
            ):
                self.config.plan.apply_in_cell(
                    request.dataset,
                    request.algorithm,
                    config.ordering,
                    config.seed,
                    attempt,
                    cancel_check=job_ctx.check,
                )
                graph = self._graph(request.dataset)
                job_ctx.checkpoint("graph_loaded")
                params = perf.algorithm_params(
                    request.algorithm, graph, profile
                )
                result = simulate(
                    graph,
                    request.algorithm,
                    config,
                    params=params,
                    hierarchy=profile.hierarchy(),
                    cache=self.cache,
                    dataset_name=request.dataset,
                    cancel_check=job_ctx.check,
                )
                job_ctx.checkpoint("simulated")
                payload = run_result_payload(result)
                payload["request_id"] = job_ctx.request_id
                payload["seed"] = config.seed
                return payload

        return self._execute(ctx, job)

    def _execute(self, ctx: RequestContext, job) -> dict:
        """Admit a job and wait for it, bounded by the deadline."""
        future = self.queue.submit(ctx, job)
        return self.wait(ctx, future)

    def wait(self, ctx: RequestContext, future: Future) -> Any:
        """Handler-side wait: deadline + disconnect backstops.

        The cooperative checkpoints inside the worker are the primary
        enforcement; this wait is the backstop for a worker stuck in
        a long uncooperative stretch — the handler stops waiting at
        deadline + grace, cancels the context, and reports 504 with
        whatever phase the worker last completed.  While waiting it
        also polls the transport: a client that hung up has its
        request cooperatively cancelled instead of computed for
        nobody.
        """
        remaining = ctx.deadline.remaining()
        end = (
            None
            if remaining is None
            else time.monotonic()
            + max(0.0, remaining)
            + DEADLINE_GRACE_SECONDS
        )
        while True:
            try:
                return future.result(timeout=0.05)
            except FutureTimeoutError:
                pass
            if (
                ctx.disconnect_check is not None
                and ctx.disconnect_check()
            ):
                future.cancel()
                ctx.cancel()
                self.counters.inc("serve.client_disconnects")
                obs.inc("serve.client_disconnects")
                raise RequestCancelledError(
                    f"client of request {ctx.request_id} "
                    "disconnected",
                    phase=ctx.phase,
                ) from None
            if end is not None and time.monotonic() >= end:
                future.cancel()
                ctx.cancel()
                self.counters.inc("serve.deadline_exceeded")
                obs.inc("serve.deadline_exceeded")
                raise DeadlineExceededError(
                    f"request {ctx.request_id} exceeded its "
                    f"{ctx.deadline.seconds:.3f}s deadline "
                    "(worker unresponsive)",
                    phase=ctx.phase,
                ) from None

    # -- introspection endpoints (handler thread, never queued) --------
    def health(self) -> dict:
        queue = self.queue.stats()
        return {
            "status": "draining" if self.queue.draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.monotonic() - self._started,
            "queue_depth": queue["queue_depth"],
            "inflight": queue["inflight"],
            "warmed_orderings": self.warmed,
        }

    def stats(self) -> dict:
        with self._graphs_lock:
            graphs = sorted(self._graphs)
        counters = self.counters.snapshot()
        for name, value in self.cache.counts().items():
            if name in STORE_COUNTERS:
                counters[STORE_COUNTERS[name]] = value
        spill_root = self.cache.spill_root
        return {
            "uptime_seconds": time.monotonic() - self._started,
            "queue": self.queue.stats(),
            "store": {
                "entries": len(self.cache),
                "nbytes": self.cache.nbytes(),
                "spill_root": str(spill_root) if spill_root else None,
            },
            "graphs": graphs,
            "counters": counters,
        }

    # -- lifecycle -----------------------------------------------------
    def request_shutdown(self) -> dict:
        self.shutdown_requested.set()
        self.counters.inc("serve.shutdown_requests")
        obs.inc("serve.shutdown_requests")
        return {"status": "draining"}

    def drain(self) -> dict:
        """Stop admitting and settle in-flight work (idempotent)."""
        if self._drained.is_set():
            return {"already_drained": True}
        self._drained.set()
        with obs.span("serve.drain") as span:
            outcome = self.queue.drain(
                timeout=self.config.drain_timeout_seconds
            )
            span.set(**outcome)
        obs.event("serve.drained", **outcome)
        return outcome


class _Handler(BaseHTTPRequestHandler):
    """Route HTTP requests onto the service; map errors to statuses."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    #: Set by the server factory.
    service: OrderingService

    # BaseRequestHandler API — client_address is a string (or empty)
    # on AF_UNIX sockets; normalise it before the base class formats
    # log prefixes with it.
    def setup(self) -> None:
        if not (
            isinstance(self.client_address, tuple)
            and len(self.client_address) >= 2
        ):
            self.client_address = ("unix", 0)
        super().setup()

    def log_message(self, format: str, *args: Any) -> None:
        obs.event(
            "serve.http",
            level="debug",
            line=(format % args) if args else format,
        )

    def _disconnected(self) -> bool:
        """True when the client closed its side of the connection."""
        try:
            data = self.connection.recv(
                1, socket.MSG_PEEK | socket.MSG_DONTWAIT
            )
        except (BlockingIOError, InterruptedError):
            return False
        except OSError:
            return True
        return data == b""

    # -- request plumbing ----------------------------------------------
    def _read_body(self) -> bytes:
        """Consume the request's declared body, whatever the route.

        On a kept-alive connection an unread body would be parsed as
        the next request.  A body whose length cannot be trusted gets
        a 400 and ends the connection, since the stream can no longer
        be framed.
        """
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise BadRequestError(
                "Transfer-Encoding is not supported; "
                "send a Content-Length"
            )
        declared = self.headers.get("Content-Length")
        if declared is None:
            return b""
        text = declared.strip()
        if not (text.isascii() and text.isdigit()):
            self.close_connection = True
            raise BadRequestError(
                "Content-Length must be a non-negative integer, "
                f"got {declared!r}"
            )
        length = int(text)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise BadRequestError(
                f"request body too large ({length} bytes)"
            )
        return self.rfile.read(length)

    @staticmethod
    def _parse_json(raw: bytes) -> Any:
        try:
            return json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(
                f"request body is not valid JSON: {exc}"
            ) from exc

    def _respond(
        self,
        status: int,
        payload: dict,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            if self.close_connection:
                self.send_header("Connection", "close")
            # Status line, headers and body leave in one write.  With
            # end_headers() the body would follow as a second small
            # segment, which Nagle holds until the client ACKs the
            # first, and the client delays that ACK (40 ms on Linux):
            # every reply on a kept-alive connection would stall.
            if self.request_version == "HTTP/0.9":
                self.wfile.write(body)  # no status line or headers
            else:
                self._headers_buffer.append(b"\r\n" + body)
                self.flush_headers()
        except (BrokenPipeError, ConnectionResetError):
            self.service.counters.inc("serve.client_disconnects")
            obs.inc("serve.client_disconnects")
            self.close_connection = True

    def _respond_error(
        self, error: ServeError, ctx: RequestContext | None = None
    ) -> None:
        request_id = ctx.request_id if ctx is not None else None
        extra: dict[str, Any] = {}
        if ctx is not None and isinstance(
            error, (DeadlineExceededError, RequestCancelledError)
        ):
            extra["elapsed_seconds"] = round(ctx.elapsed(), 4)
        headers = {}
        retry_after = getattr(error, "retry_after", None)
        if retry_after is not None:
            headers["Retry-After"] = str(
                max(1, int(round(retry_after)))
            )
        # 499 ("client closed request") is a counter convention, not
        # a sendable status; a still-connected client whose request
        # was cancelled (drain cutoff) should retry elsewhere.
        status = 503 if error.status == 499 else error.status
        self._respond(
            status, error_payload(error, request_id, **extra), headers
        )

    def _dispatch(self, fn, *args: Any, ctx: RequestContext | None
                  = None) -> None:
        try:
            self._respond(200, fn(*args))
        except ServeError as exc:
            self._respond_error(exc, ctx)
        except ReproError as exc:
            # Library validation errors (unknown dataset, bad
            # parameter ranges) are the client's fault.
            self._respond_error(BadRequestError(str(exc)), ctx)

    # -- verbs ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        service = self.service
        try:
            self._read_body()
        except BadRequestError as exc:
            self._respond_error(exc)
            return
        if self.path == "/health":
            self._dispatch(service.health)
        elif self.path == "/stats":
            self._dispatch(service.stats)
        else:
            self._respond_error(
                NotFoundError(f"no such endpoint {self.path!r}")
            )

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        service = self.service
        ctx: RequestContext | None = None
        try:
            raw = self._read_body()
            if self.path == "/order":
                request = OrderRequest.from_payload(self._parse_json(raw))
                ctx = service.context(
                    "order", request.deadline_seconds
                )
                ctx.disconnect_check = self._disconnected
                self._dispatch(
                    service.handle_order, request, ctx, ctx=ctx
                )
            elif self.path == "/run":
                request = RunRequest.from_payload(self._parse_json(raw))
                ctx = service.context("run", request.deadline_seconds)
                ctx.disconnect_check = self._disconnected
                self._dispatch(
                    service.handle_run, request, ctx, ctx=ctx
                )
            elif self.path == "/shutdown":
                self._dispatch(service.request_shutdown)
            else:
                self._respond_error(
                    NotFoundError(f"no such endpoint {self.path!r}")
                )
        except ServeError as exc:
            self._respond_error(exc, ctx)
        except ReproError as exc:
            self._respond_error(BadRequestError(str(exc)), ctx)


class ReproHTTPServer(ThreadingHTTPServer):
    """TCP transport; one daemon thread per connection."""

    daemon_threads = True
    allow_reuse_address = True


class UnixHTTPServer(ThreadingHTTPServer):
    """The same protocol over a unix domain socket."""

    daemon_threads = True
    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        # HTTPServer.server_bind unpacks (host, port) from the
        # address, which a unix path does not have.
        if os.path.exists(self.server_address):  # type: ignore[arg-type]
            os.unlink(self.server_address)  # type: ignore[arg-type]
        socketserver.TCPServer.server_bind(self)
        self.server_name = str(self.server_address)
        self.server_port = 0


def _make_server(
    config: ServeConfig, service: OrderingService
) -> ThreadingHTTPServer:
    handler = type("BoundHandler", (_Handler,), {"service": service})
    if config.socket_path:
        return UnixHTTPServer(config.socket_path, handler)
    return ReproHTTPServer((config.host, config.port), handler)


def serve(config: ServeConfig) -> int:
    """Run the daemon until SIGTERM/SIGINT/``POST /shutdown``.

    Returns 0 after a graceful drain: admission stops (503), queued
    requests are rejected, in-flight requests finish or are cancelled
    by their deadline, the listener closes.
    """
    service = OrderingService(config)
    httpd = _make_server(config, service)
    if config.socket_path:
        endpoint = f"unix:{config.socket_path}"
    else:
        host, port = httpd.server_address[:2]
        endpoint = f"http://{host}:{port}"
    stop = threading.Event()

    def _on_signal(signum: int, frame: Any) -> None:
        obs.event("serve.signal", signal=signum)
        stop.set()

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    listener = threading.Thread(
        target=httpd.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="serve-listener",
        daemon=True,
    )
    listener.start()
    print(f"serving on {endpoint} "
          f"(workers={config.workers} "
          f"queue={config.queue_capacity} "
          f"warmed={service.warmed})",
          flush=True)
    try:
        while not stop.is_set():
            if service.shutdown_requested.wait(timeout=0.1):
                break
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)
        outcome = service.drain()
        httpd.shutdown()
        listener.join(timeout=2.0)
        httpd.server_close()
        if config.socket_path and os.path.exists(config.socket_path):
            os.unlink(config.socket_path)
        print(f"drained: {json.dumps(outcome)}", flush=True)
    return 0
