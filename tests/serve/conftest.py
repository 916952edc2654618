"""Fixtures for the serve test suite: a real daemon on a loopback port.

The server fixture starts an in-process :class:`OrderingService` +
``ThreadingHTTPServer`` on an ephemeral port, so the tests exercise
the genuine HTTP transport (status codes, Retry-After headers,
concurrent handler threads) without subprocess overhead.  The
SIGTERM/exit-code contract is covered separately by a subprocess test
in ``test_server.py``.

``ServeHarness.request`` opens a fresh connection per request, as
``urllib`` does; :class:`KeepAliveClient` sends requests over one
persistent connection, the way the daemon's real clients do.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.serve import OrderingService, ServeConfig
from repro.serve.server import _make_server


@pytest.fixture(autouse=True)
def clean_telemetry():
    obs.reset()
    yield
    obs.reset()


class KeepAliveClient:
    """JSON requests over one persistent HTTP/1.1 connection."""

    def __init__(self, connection: http.client.HTTPConnection) -> None:
        self.connection = connection

    @classmethod
    def unix(cls, path: str, timeout: float = 30.0) -> KeepAliveClient:
        """A client of a daemon listening on the unix socket ``path``."""
        connection = http.client.HTTPConnection("localhost")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(path)
        connection.sock = sock
        return cls(connection)

    def request(
        self,
        method: str,
        path: str,
        body: dict | bytes | None = None,
    ) -> tuple[int, dict, dict]:
        """(status, json payload, headers); a dict body is sent as
        JSON, bytes as they are."""
        data = (
            json.dumps(body).encode("utf-8")
            if isinstance(body, dict)
            else body
        )
        self.connection.request(
            method,
            path,
            body=data,
            headers={"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        return (
            response.status,
            json.loads(response.read()),
            dict(response.headers),
        )

    def get(self, path: str) -> tuple[int, dict, dict]:
        return self.request("GET", path)

    def post(self, path: str, body: dict) -> tuple[int, dict, dict]:
        return self.request("POST", path, body)

    def close(self) -> None:
        self.connection.close()


class ServeHarness:
    """One running daemon plus a tiny JSON client."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.service = OrderingService(config)
        self.httpd = _make_server(config, self.service)
        self.port = self.httpd.server_address[1]
        self.base = f"http://127.0.0.1:{self.port}"
        self._clients: list[KeepAliveClient] = []
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.02},
            daemon=True,
        )
        self._thread.start()

    def request(
        self,
        path: str,
        body: dict | None = None,
        timeout: float = 30.0,
    ) -> tuple[int, dict, dict]:
        """(status, json payload, headers); POST when body given."""
        if body is None:
            request = urllib.request.Request(self.base + path)
        else:
            request = urllib.request.Request(
                self.base + path,
                data=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout
            ) as response:
                return (
                    response.status,
                    json.loads(response.read()),
                    dict(response.headers),
                )
        except urllib.error.HTTPError as error:
            return (
                error.code,
                json.loads(error.read()),
                dict(error.headers),
            )

    def get(self, path: str) -> tuple[int, dict, dict]:
        return self.request(path)

    def post(
        self, path: str, body: dict, timeout: float = 30.0
    ) -> tuple[int, dict, dict]:
        return self.request(path, body, timeout)

    def connect(self, timeout: float = 30.0) -> KeepAliveClient:
        """A client that keeps one connection to the daemon open."""
        client = KeepAliveClient(
            http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=timeout
            )
        )
        self._clients.append(client)
        return client

    def close(self) -> None:
        for client in self._clients:
            client.close()
        self.httpd.shutdown()
        self._thread.join(timeout=2.0)
        self.httpd.server_close()


@pytest.fixture
def harness_factory():
    """Build daemons with per-test configs; all closed on teardown."""
    built: list[ServeHarness] = []

    def build(**overrides) -> ServeHarness:
        overrides.setdefault("workers", 2)
        overrides.setdefault("queue_capacity", 4)
        harness = ServeHarness(ServeConfig(**overrides))
        built.append(harness)
        return harness

    yield build
    for harness in built:
        harness.service.drain()
        harness.close()


@pytest.fixture
def harness(harness_factory):
    """A default daemon for simple endpoint tests."""
    return harness_factory()
