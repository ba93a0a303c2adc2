"""Shared helpers for the carbon-query service test suites.

Not a test module (the name avoids the ``test_*.py`` pattern): it holds
the tiny synchronous HTTP client the conformance/robustness/property
suites and the load tests use against :func:`repro.service.start_service`
instances.  Everything here speaks plain ``http.client`` so the tests
exercise the service through a genuinely independent HTTP stack.  It also
holds :func:`group_members`, which the killed-process tests of the service
and the runner use to find the workers a dead parent left behind.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.service import ServiceConfig, start_service


@dataclass
class HttpReply:
    """One response as seen by a test client."""

    status: int
    body: bytes

    def json(self) -> dict:
        return json.loads(self.body)


class ServiceClient:
    """A keep-alive HTTP/1.1 client bound to one service instance."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _request(self, method: str, path: str, body: bytes | None = None) -> HttpReply:
        conn = self._connection()
        try:
            conn.request(
                method,
                path,
                body=body,
                headers={"Content-Type": "application/json"} if body else {},
            )
            response = conn.getresponse()
            reply = HttpReply(response.status, response.read())
        except (http.client.HTTPException, OSError):
            # The server closed the connection (drain, Connection: close);
            # retry exactly once on a fresh connection.
            self.close()
            conn = self._connection()
            conn.request(
                method,
                path,
                body=body,
                headers={"Content-Type": "application/json"} if body else {},
            )
            response = conn.getresponse()
            reply = HttpReply(response.status, response.read())
        if response.will_close:
            self.close()
        return reply

    def get(self, path: str) -> HttpReply:
        return self._request("GET", path)

    def post(self, path: str, payload: dict) -> HttpReply:
        return self._request("POST", path, json.dumps(payload).encode("utf-8"))

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@contextlib.contextmanager
def running_service(**overrides):
    """A live service (ephemeral port) plus a client, torn down on exit."""
    config = ServiceConfig(**{"port": 0, "workers": 0, **overrides})
    handle = start_service(config)
    client = ServiceClient(config.host, handle.port)
    try:
        yield handle, client
    finally:
        client.close()
        handle.stop()


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of one process group, from ``/proc``."""
    members = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members
