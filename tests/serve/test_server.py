"""End-to-end daemon tests over real HTTP (and a SIGTERM subprocess).

Each robustness scenario from the issue gets its own test with its
distinct telemetry assertion: deadline-exceeded (504 + phase),
queue-full (429 + Retry-After), cancellation, retry-after-transient,
and graceful drain (503 + closed ``serve.drain`` span + exit 0).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.perf.faults import FaultPlan, FaultSpec

REPO_ROOT = Path(__file__).resolve().parents[2]


def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            pytest.fail("condition not reached in time")
        time.sleep(0.01)


def hang_plan(algorithm: str = "order") -> FaultPlan:
    return FaultPlan(
        (
            FaultSpec(
                dataset="epinion",
                algorithm=algorithm,
                ordering="gorder",
                kind="hang",
            ),
        )
    )


class TestEndpoints:
    def test_health(self, harness):
        status, payload, _ = harness.get("/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["protocol"] == 1
        assert payload["queue_depth"] == 0

    def test_order_computes_then_hits_memory(self, harness):
        status, first, _ = harness.post(
            "/order", {"dataset": "epinion"}
        )
        assert status == 200
        assert first["source"] == "computed"
        assert first["nodes"] > 0
        assert first["ordering_seconds"] >= 0
        status, second, _ = harness.post(
            "/order", {"dataset": "epinion"}
        )
        assert status == 200
        assert second["source"] == "memory"

    def test_order_returns_permutation_on_request(self, harness):
        status, payload, _ = harness.post(
            "/order",
            {"dataset": "epinion", "include_permutation": True},
        )
        assert status == 200
        perm = payload["permutation"]
        assert sorted(perm) == list(range(payload["nodes"]))

    def test_run_reuses_stored_ordering(self, harness):
        status, ordered, _ = harness.post(
            "/order", {"dataset": "epinion"}
        )
        assert status == 200
        status, payload, _ = harness.post(
            "/run",
            {"dataset": "epinion", "algorithm": "pr", "seed": 0},
        )
        assert status == 200
        assert payload["cycles"] > 0
        assert payload["seed"] == 0
        assert "cache_backend" not in payload
        _, stats, _ = harness.get("/stats")
        # The run request found the ordering the order request
        # computed — via memory or disk, never a second compute.
        assert stats["counters"]["serve.store_computed"] == 1

    def test_run_rejects_retired_backend_fields(self, harness):
        for field in ("cache_backend", "algo_backend"):
            status, payload, _ = harness.post(
                "/run",
                {"dataset": "epinion", "algorithm": "pr", field: "step"},
            )
            assert status == 400
            assert payload["error"] == "bad_request"
            assert field in payload["message"]
            assert "accepted: " in payload["message"]
        _, stats, _ = harness.get("/stats")
        assert stats["counters"].get("serve.store_computed", 0) == 0

    def test_unknown_dataset_rejected_before_admission(
        self, harness
    ):
        status, payload, _ = harness.post(
            "/order", {"dataset": "atlantis"}
        )
        assert status == 400
        assert payload["error"] == "bad_request"
        _, stats, _ = harness.get("/stats")
        assert "serve.admitted" not in stats["counters"]

    def test_undeclared_ordering_params_are_400(self, harness):
        status, payload, _ = harness.post(
            "/order",
            {
                "dataset": "epinion",
                "ordering": "gorder",
                "ordering_params": {"backend": "loop"},
            },
        )
        assert status == 400
        assert payload["error"] == "bad_request"
        assert "hub_threshold, window" in payload["message"]
        _, stats, _ = harness.get("/stats")
        assert "serve.admitted" not in stats["counters"]

    @pytest.mark.parametrize("value", [[1, 2], "abc", True])
    def test_mistyped_ordering_params_are_400(self, harness, value):
        """A value its parameter's annotation does not admit is the
        client's mistake: 400 naming the field, never a traceback, and
        the kept-alive connection serves the next request."""
        client = harness.connect()
        for path in ("/order", "/run"):
            status, payload, _ = client.post(
                path,
                {
                    "dataset": "epinion",
                    "algorithm": "pr",
                    "ordering_params": {"window": value},
                }
                if path == "/run"
                else {
                    "dataset": "epinion",
                    "ordering_params": {"window": value},
                },
            )
            assert status == 400
            assert payload["error"] == "bad_request"
            assert "'window' must be int" in payload["message"]
        status, payload, _ = client.post(
            "/order",
            {"dataset": "epinion", "ordering_params": {"window": 3}},
        )
        assert status == 200
        assert payload["source"] == "computed"

    def test_removed_ordering_is_400(self, harness):
        status, payload, _ = harness.post(
            "/order", {"dataset": "epinion", "ordering": "gorder-lazy"}
        )
        assert status == 400
        assert "unknown ordering 'gorder-lazy'" in payload["message"]

    def test_invalid_json_is_400(self, harness):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            harness.base + "/order",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_endpoint_is_404(self, harness):
        status, payload, _ = harness.get("/nope")
        assert status == 404
        assert payload["error"] == "not_found"
        status, _, _ = harness.post("/nope", {})
        assert status == 404

    def test_stats_reports_counters_and_store(self, harness):
        harness.post("/order", {"dataset": "epinion"})
        status, stats, _ = harness.get("/stats")
        assert status == 200
        assert stats["queue"]["capacity"] == 4
        assert stats["store"]["entries"] == 1
        assert stats["graphs"] == ["epinion"]
        assert stats["counters"]["serve.requests"] == 1


class TestDeadlines:
    def test_hang_is_cut_off_at_deadline_with_phase(
        self, harness_factory
    ):
        harness = harness_factory(plan=hang_plan())
        started = time.monotonic()
        status, payload, _ = harness.post(
            "/order",
            {"dataset": "epinion", "deadline_seconds": 0.3},
        )
        elapsed = time.monotonic() - started
        assert status == 504
        assert payload["error"] == "deadline_exceeded"
        # Partial-progress telemetry: the hang fires before the graph
        # loads, so the request died still queued.
        assert payload["phase"] == "queued"
        assert payload["elapsed_seconds"] >= 0.3
        assert elapsed < 5, "hang must not be waited out"
        _, stats, _ = harness.get("/stats")
        assert stats["counters"]["serve.deadline_exceeded"] >= 1

    def test_hang_targets_only_named_algorithm(
        self, harness_factory
    ):
        # Fault plans address exact cells: a hang on the run path
        # leaves /order requests untouched.
        harness = harness_factory(plan=hang_plan(algorithm="pr"))
        status, payload, _ = harness.post(
            "/order", {"dataset": "epinion"}
        )
        assert status == 200
        assert payload["source"] == "computed"

    def test_worker_recovers_for_next_request(self, harness_factory):
        harness = harness_factory(plan=hang_plan(), workers=1)
        status, _, _ = harness.post(
            "/order",
            {"dataset": "epinion", "deadline_seconds": 0.3},
        )
        assert status == 504
        # The cancelled worker is back; a clean request succeeds.
        status, payload, _ = harness.post(
            "/order", {"dataset": "epinion", "ordering": "rcm"}
        )
        assert status == 200
        assert payload["source"] == "computed"


class TestClientDisconnect:
    def test_hangup_cancels_the_inflight_request(
        self, harness_factory
    ):
        import socket

        harness = harness_factory(plan=hang_plan(), workers=1)
        body = json.dumps(
            {"dataset": "epinion", "deadline_seconds": 30}
        ).encode()
        raw = socket.create_connection(
            ("127.0.0.1", harness.port), timeout=5
        )
        raw.sendall(
            b"POST /order HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        wait_until(
            lambda: harness.service.queue.stats()["inflight"] == 1
        )
        raw.close()  # hang up without reading the response
        wait_until(
            lambda: harness.service.counters.snapshot().get(
                "serve.client_disconnects", 0
            )
            >= 1
        )
        # The worker abandons the request instead of hanging for
        # the full 30s deadline nobody is waiting on.
        wait_until(
            lambda: harness.service.queue.stats()["inflight"] == 0
        )
        assert (
            harness.service.counters.snapshot()["serve.cancelled"]
            >= 1
        )


class TestBackpressure:
    def test_queue_full_responds_429_with_retry_after(
        self, harness_factory
    ):
        harness = harness_factory(
            plan=hang_plan(), workers=1, queue_capacity=1
        )
        results = []

        def slow_order():
            results.append(
                harness.post(
                    "/order",
                    {"dataset": "epinion", "deadline_seconds": 1.2},
                )
            )

        threads = [
            threading.Thread(target=slow_order) for _ in range(2)
        ]
        threads[0].start()
        wait_until(
            lambda: harness.service.queue.stats()["inflight"] == 1
        )
        threads[1].start()
        wait_until(
            lambda: harness.service.queue.stats()["queue_depth"] == 1
        )
        status, payload, headers = harness.post(
            "/order", {"dataset": "epinion"}
        )
        assert status == 429
        assert payload["error"] == "queue_full"
        assert payload["retry_after"] > 0
        assert int(headers["Retry-After"]) >= 1
        for thread in threads:
            thread.join(timeout=10)
        # Both hung requests were cut off by their own deadlines.
        assert [status for status, _, _ in results] == [504, 504]
        _, stats, _ = harness.get("/stats")
        assert (
            stats["counters"]["serve.rejected_queue_full"] == 1
        )


class TestRetries:
    def test_transient_fault_retried_to_success(
        self, harness_factory
    ):
        plan = FaultPlan(
            (
                FaultSpec(
                    dataset="epinion",
                    algorithm="order",
                    ordering="gorder",
                    kind="error",
                    times=1,
                ),
            )
        )
        harness = harness_factory(
            plan=plan, retries=1, backoff_seconds=0.01
        )
        status, payload, _ = harness.post(
            "/order", {"dataset": "epinion"}
        )
        assert status == 200
        assert payload["source"] == "computed"
        _, stats, _ = harness.get("/stats")
        assert stats["counters"]["serve.retries"] == 1

    def test_permanent_fault_exhausts_retries(self, harness_factory):
        plan = FaultPlan(
            (
                FaultSpec(
                    dataset="epinion",
                    algorithm="order",
                    ordering="gorder",
                    kind="error",
                ),
            )
        )
        harness = harness_factory(
            plan=plan, retries=1, backoff_seconds=0.01
        )
        status, payload, _ = harness.post(
            "/order", {"dataset": "epinion"}
        )
        assert status == 400  # InjectedFault is a ReproError
        _, stats, _ = harness.get("/stats")
        assert stats["counters"]["serve.retries"] == 1
        assert stats["counters"]["serve.worker_errors"] == 1


class TestDrain:
    def test_drain_rejects_new_work_with_503(self, harness_factory):
        obs.configure(capture=True)
        harness = harness_factory()
        status, _, _ = harness.post(
            "/order", {"dataset": "epinion"}
        )
        assert status == 200
        outcome = harness.service.drain()
        assert outcome["unfinished"] == 0
        status, payload, headers = harness.post(
            "/order", {"dataset": "epinion"}
        )
        assert status == 503
        assert payload["error"] == "draining"
        assert int(headers["Retry-After"]) >= 1
        status, health, _ = harness.get("/health")
        assert status == 200
        assert health["status"] == "draining"
        # The drain ran under a *closed* span with its outcome
        # attached, plus a drained event.
        drain_spans = obs.span_stats().get("serve.drain")
        assert drain_spans is not None
        assert drain_spans.count == 1
        drained = [
            record
            for record in obs.captured()
            if record["name"] == "serve.drained"
        ]
        assert drained[0]["attrs"]["rejected_queued"] == 0

    def test_drain_is_idempotent(self, harness_factory):
        harness = harness_factory()
        first = harness.service.drain()
        assert "rejected_queued" in first
        assert harness.service.drain() == {"already_drained": True}

    def test_shutdown_endpoint_flags_the_service(self, harness):
        status, payload, _ = harness.post("/shutdown", {})
        assert status == 200
        assert payload["status"] == "draining"
        assert harness.service.shutdown_requested.is_set()


class TestUnixSocket:
    def test_serves_over_unix_socket(self, tmp_path):
        from repro.serve import OrderingService, ServeConfig
        from repro.serve.server import _make_server
        from tests.serve.conftest import KeepAliveClient

        socket_path = str(tmp_path / "repro.sock")
        config = ServeConfig(
            socket_path=socket_path, workers=1, queue_capacity=2
        )
        service = OrderingService(config)
        httpd = _make_server(config, service)
        thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.02},
            daemon=True,
        )
        thread.start()
        try:
            # Two requests on one connection: the unix listener shares
            # the TCP listener's reply path and body framing.
            client = KeepAliveClient.unix(socket_path)
            try:
                status, payload, _ = client.get("/health")
                assert status == 200
                assert payload["status"] == "ok"
                status, payload, _ = client.post("/nope", {"x": 1})
                assert status == 404
                status, payload, _ = client.get("/stats")
                assert status == 200
                assert payload["graphs"] == []
            finally:
                client.close()
        finally:
            service.drain()
            httpd.shutdown()
            thread.join(timeout=2)
            httpd.server_close()


class TestGracefulShutdownProcess:
    """SIGTERM against the real CLI process: the exit-code contract."""

    def _spawn(self, *extra_args: str, tmp_path: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; "
                "sys.exit(main(sys.argv[1:]))",
                "serve",
                "--port", "0",
                "--workers", "1",
                "--drain-timeout", "0.5",
                "--store-root", str(tmp_path / "store"),
                *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )
        line = process.stdout.readline()
        assert "serving on http://" in line, line
        port = int(line.split("http://")[1].split()[0].split(":")[1])
        return process, port

    def _post(self, port: int, path: str, body: dict, timeout: float):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout
            ) as response:
                return response.status
        except urllib.error.HTTPError as error:
            error.read()
            return error.code
        except (urllib.error.URLError, ConnectionError, OSError):
            return None  # connection died during process exit

    def test_sigterm_idle_daemon_exits_zero(self, tmp_path):
        process, port = self._spawn(tmp_path=tmp_path)
        try:
            assert (
                self._post(port, "/order", {"dataset": "epinion"}, 30)
                == 200
            )
            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "drained:" in stdout
        outcome = json.loads(stdout.split("drained:", 1)[1])
        assert outcome["cancelled_inflight"] == 0

    def test_sigterm_mid_request_cancels_and_exits_zero(
        self, tmp_path
    ):
        process, port = self._spawn(
            "--inject",
            "dataset=epinion,algorithm=order,ordering=gorder,"
            "kind=hang",
            tmp_path=tmp_path,
        )
        statuses = []
        try:
            poster = threading.Thread(
                target=lambda: statuses.append(
                    self._post(
                        port,
                        "/order",
                        {
                            "dataset": "epinion",
                            "deadline_seconds": 30,
                        },
                        timeout=30,
                    )
                )
            )
            poster.start()
            time.sleep(0.5)  # let the hung request reach a worker
            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=30)
            poster.join(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        outcome = json.loads(stdout.split("drained:", 1)[1])
        assert outcome["cancelled_inflight"] == 1
        assert outcome["unfinished"] == 0
        # The client saw the cancellation (503 after the 499→503
        # mapping) — or lost the connection during process exit.
        assert statuses[0] in (503, None)
