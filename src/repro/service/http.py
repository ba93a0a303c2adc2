"""A small asyncio HTTP/1.1 server (stdlib only).

The container ships no third-party HTTP stack, so the service speaks a
deliberately narrow slice of HTTP/1.1 over ``asyncio.start_server``:
request-line + headers + optional ``Content-Length`` body in, status
line + ``Content-Length`` JSON body out, with keep-alive.  Chunked
transfer encoding, trailers, upgrades, and pipelining are out of scope —
a request with a body must declare its length.

The server tracks every connection and whether it is mid-request, which
is what makes graceful drain possible: on shutdown it stops accepting,
closes *idle* keep-alive connections immediately, and gives in-flight
requests ``drain_timeout`` seconds to complete before aborting them.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Awaitable, Callable
from urllib.parse import parse_qsl, unquote, urlsplit

#: Hard limits keeping a single connection's memory bounded.
MAX_REQUEST_LINE = 8192
MAX_HEADER_COUNT = 100
MAX_BODY_BYTES = 1_048_576

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(Exception):
    """The peer sent something that is not acceptable HTTP/1.1."""


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    params: dict[str, str]
    headers: dict[str, str]
    body: bytes
    #: The request target exactly as the client sent it (path + query,
    #: percent-encoding intact) — what a proxy must forward verbatim so
    #: the upstream parses the same request the client wrote.
    raw_target: str = ""

    def json_body(self) -> dict[str, object]:
        """The body decoded as a JSON object (empty body -> empty dict)."""
        if not self.body:
            return {}
        try:
            decoded = json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(decoded, dict):
            raise ProtocolError("request body must be a JSON object")
        return decoded


@dataclass(frozen=True)
class Response:
    """One response: status, JSON body bytes, and extra headers."""

    status: int
    body: bytes
    content_type: str = "application/json"
    close: bool = False

    def encode(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        connection = "close" if self.close else "keep-alive"
        head = (
            f"HTTP/1.1 {self.status} {reason}\r\n"
            f"Content-Type: {self.content_type}\r\n"
            f"Content-Length: {len(self.body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        )
        return head.encode("ascii") + self.body


Handler = Callable[[Request], Awaitable[Response]]


async def _read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request; ``None`` on clean EOF before any bytes."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-request-line") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError("request line too long") from None
    if len(line) > MAX_REQUEST_LINE:
        raise ProtocolError("request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line: {line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported protocol version {version!r}")

    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_COUNT + 1):
        try:
            raw = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise ProtocolError("connection closed mid-headers") from None
        if raw == b"\r\n":
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {raw!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ProtocolError("too many headers")

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ProtocolError("non-integer Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise ProtocolError(f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError("connection closed mid-body") from None
    elif headers.get("transfer-encoding"):
        raise ProtocolError("chunked transfer encoding is not supported")

    split = urlsplit(target)
    params = {key: value for key, value in parse_qsl(split.query, keep_blank_values=True)}
    return Request(
        method=method.upper(),
        path=unquote(split.path) or "/",
        params=params,
        headers=headers,
        body=body,
        raw_target=target,
    )


@dataclass
class _Connection:
    writer: asyncio.StreamWriter
    busy: bool = False


@dataclass
class HttpServer:
    """The listener + connection loop around one request handler."""

    handler: Handler
    host: str = "127.0.0.1"
    port: int = 0
    #: The answer to bytes that do not parse as a request, after which the
    #: connection closes (:func:`repro.service.routes.malformed`).
    malformed: Callable[[ProtocolError], Response] = field(kw_only=True)
    _server: asyncio.AbstractServer | None = None
    _connections: dict[asyncio.Task, _Connection] = field(default_factory=dict)
    _draining: bool = False

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # The sync-callback variant of start_server: we create the
        # connection task ourselves so it can be registered (with its
        # busy flag) before the first byte is read — drain relies on it.
        conn = _Connection(writer=writer)
        loop_task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer, conn)
        )
        self._connections[loop_task] = conn
        loop_task.add_done_callback(lambda t: self._connections.pop(t, None))

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        conn: _Connection,
    ) -> None:
        try:
            while not self._draining:
                try:
                    request = await _read_request(reader)
                except ProtocolError as exc:
                    writer.write(self.malformed(exc).encode())
                    await writer.drain()
                    return
                if request is None:
                    return
                conn.busy = True
                try:
                    response = await self.handler(request)
                finally:
                    conn.busy = False
                close = (
                    response.close
                    or self._draining
                    or request.headers.get("connection", "").lower() == "close"
                )
                if close:
                    response = Response(
                        response.status, response.body, response.content_type, close=True
                    )
                writer.write(response.encode())
                await writer.drain()
                if close:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def drain_and_stop(self, timeout: float) -> None:
        """Stop accepting, let in-flight requests finish, then close.

        Idle keep-alive connections are closed immediately; connections
        mid-request get up to ``timeout`` seconds to write their response.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task, conn in list(self._connections.items()):
            if not conn.busy:
                task.cancel()
        remaining = [t for t in self._connections if not t.done()]
        if remaining:
            _done, pending = await asyncio.wait(remaining, timeout=timeout)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
