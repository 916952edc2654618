"""The daemon's HTTP transport on kept-alive connections.

Two properties a fresh-connection client never sees:

* every reply leaves in one socket write.  A reply split into a
  header write and a body write stalls each kept-alive request for
  the client's delayed ACK (40 ms on Linux): Nagle holds the small
  body segment until the header segment is acknowledged.
* every request's body is consumed before routing, so a stray body
  never becomes the next request on the connection, and a body whose
  length cannot be trusted gets a JSON 400 and closes the connection.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import time

import pytest

from repro.serve.protocol import QueueFullError
from repro.serve.server import MAX_BODY_BYTES


class CountingSocket:
    """A socket proxy recording every send made through it."""

    def __init__(self, sock: socket.socket, sends: list[bytes]) -> None:
        self._sock = sock
        self.sends = sends

    def sendall(self, data, *args):
        self.sends.append(bytes(data))
        return self._sock.sendall(data, *args)

    def __getattr__(self, name: str):
        return getattr(self._sock, name)


@pytest.fixture
def sends(harness) -> list[bytes]:
    """Every send the harness's handlers make, in order."""
    recorded: list[bytes] = []
    base = harness.httpd.RequestHandlerClass

    class CountingHandler(base):
        def setup(self) -> None:
            self.request = CountingSocket(self.request, recorded)
            super().setup()

    harness.httpd.RequestHandlerClass = CountingHandler
    return recorded


def exchange(
    port: int, data: bytes, wait: float = 2.0
) -> tuple[int, dict, dict, bool]:
    """Send raw request bytes on a fresh connection.

    Returns (status, json payload, headers, closed), where ``closed``
    says whether the daemon ended the connection within ``wait``
    seconds of its reply.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(data)
        response = http.client.HTTPResponse(sock)
        response.begin()
        payload = json.loads(response.read())
        sock.settimeout(wait)
        try:
            closed = sock.recv(1) == b""
        except ConnectionResetError:
            closed = True
        except TimeoutError:
            closed = False
        return response.status, payload, dict(response.headers), closed


def post_bytes(content_length: str, body: bytes = b"") -> bytes:
    return (
        b"POST /order HTTP/1.1\r\n"
        b"Host: localhost\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + content_length.encode() + b"\r\n\r\n"
        + body
    )


class TestOneWritePerReply:
    def _assert_one_send(self, sends, status, headers) -> None:
        assert len(sends) == 1, [len(chunk) for chunk in sends]
        head, _, body = sends[0].partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert len(body) == int(headers["Content-Length"])
        json.loads(body)

    def test_ok_reply_is_one_send(self, harness, sends):
        client = harness.connect()
        for _ in range(3):
            sends.clear()
            status, payload, headers = client.get("/health")
            assert status == 200
            assert payload["status"] == "ok"
            assert "Server" in headers and "Date" in headers
            self._assert_one_send(sends, 200, headers)

    def test_bad_request_reply_is_one_send(self, harness, sends):
        client = harness.connect()
        sends.clear()
        status, payload, headers = client.post(
            "/order", {"dataset": "atlantis"}
        )
        assert status == 400
        assert payload["error"] == "bad_request"
        self._assert_one_send(sends, 400, headers)

    def test_queue_full_reply_is_one_send(
        self, harness, sends, monkeypatch
    ):
        def full(ctx, job):
            raise QueueFullError("admission queue is full", 1.0)

        monkeypatch.setattr(harness.service.queue, "submit", full)
        client = harness.connect()
        sends.clear()
        status, payload, headers = client.post(
            "/order", {"dataset": "epinion"}
        )
        assert status == 429
        assert payload["error"] == "queue_full"
        assert headers["Retry-After"] == "1"
        self._assert_one_send(sends, 429, headers)

    def test_http09_request_gets_the_bare_body(self, harness):
        with socket.create_connection(
            ("127.0.0.1", harness.port), timeout=5
        ) as sock:
            sock.sendall(b"GET /health\r\n\r\n")
            data = b""
            while chunk := sock.recv(4096):
                data += chunk
        assert json.loads(data)["status"] == "ok"


class TestKeepAlive:
    def test_kept_alive_health_does_not_stall(self, harness):
        client = harness.connect()
        seconds = []
        for _ in range(10):
            started = time.perf_counter()
            status, _, _ = client.get("/health")
            seconds.append(time.perf_counter() - started)
            assert status == 200
        # A stalled reply waits out the 40 ms delayed-ACK floor.
        assert statistics.median(seconds) < 0.020, seconds


class TestBodyFraming:
    def test_body_posted_to_unknown_path_is_consumed(self, harness):
        client = harness.connect()
        status, payload, _ = client.post("/nope", {"dataset": "epinion"})
        assert status == 404
        assert payload["error"] == "not_found"
        status, payload, _ = client.get("/health")
        assert status == 200
        assert payload["status"] == "ok"

    def test_body_posted_to_shutdown_is_consumed(self, harness):
        client = harness.connect()
        status, _, _ = client.post("/shutdown", {"reason": "test"})
        assert status == 200
        status, payload, _ = client.get("/health")
        assert status == 200
        assert payload["status"] == "ok"

    def test_body_sent_with_get_is_consumed(self, harness):
        client = harness.connect()
        status, _, _ = client.request("GET", "/health", b'{"x": 1}')
        assert status == 200
        status, payload, _ = client.get("/stats")
        assert status == 200
        assert "counters" in payload

    def test_non_integer_content_length_is_400_and_closes(self, harness):
        status, payload, headers, closed = exchange(
            harness.port, post_bytes("abc", b"{}")
        )
        assert status == 400
        assert payload["error"] == "bad_request"
        assert "Content-Length" in payload["message"]
        assert headers["Connection"] == "close"
        assert closed

    def test_negative_content_length_is_400_and_closes(self, harness):
        status, payload, headers, closed = exchange(
            harness.port, post_bytes("-1", b"{}")
        )
        assert status == 400
        assert payload["error"] == "bad_request"
        assert "Content-Length" in payload["message"]
        assert headers["Connection"] == "close"
        assert closed

    def test_oversized_content_length_is_400_and_closes(self, harness):
        status, payload, headers, closed = exchange(
            harness.port, post_bytes(str(MAX_BODY_BYTES + 1), b"{}")
        )
        assert status == 400
        assert "too large" in payload["message"]
        assert headers["Connection"] == "close"
        assert closed

    def test_chunked_body_is_400_and_closes(self, harness):
        status, payload, headers, closed = exchange(
            harness.port,
            b"POST /order HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n",
        )
        assert status == 400
        assert "Transfer-Encoding" in payload["message"]
        assert headers["Connection"] == "close"
        assert closed

    def test_valid_request_keeps_the_connection_open(self, harness):
        body = json.dumps({"dataset": "atlantis"}).encode()
        status, _, headers, closed = exchange(
            harness.port, post_bytes(str(len(body)), body), wait=0.2
        )
        assert status == 400
        assert "Connection" not in headers
        assert not closed
