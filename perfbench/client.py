"""Closed-loop HTTP/1.1 client and the percentile math.

One thread drives every connection from a single ``selectors`` loop.  Each
connection keeps exactly one request outstanding (a closed loop: the next
request leaves only after the previous reply arrived), requests are
precomputed bytes, and every response is checked against the oracle's
bytes as it arrives.
"""

from __future__ import annotations

import gc
import json
import math
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

#: Longest a single reply may take before the phase gives up on it.
REPLY_TIMEOUT_S = 60.0


def nearest_rank(ordered: Sequence[float], q: float) -> tuple[float, int]:
    """The ``q``-th percentile of sorted samples by nearest rank.

    Returns ``(value, beyond)``: the sample at rank ``ceil(q/100 * n)`` and
    how many samples lie above that rank.
    """
    if not ordered:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


@dataclass
class Phase:
    """What one closed-loop phase sent, got back and how long each took."""

    attempted: int = 0
    failed: int = 0
    latencies_ns: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0
    exhausted: bool = False

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class _Conn:
    __slots__ = ("sock", "buf", "expected", "sent_ns", "header_end", "length")

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.expected = b""
        self.sent_ns = 0
        self.header_end = -1
        self.length = 0

    def send(self, request: bytes, expected: bytes) -> None:
        self.expected = expected
        self.header_end = -1
        self.sent_ns = time.perf_counter_ns()
        self.sock.sendall(request)

    def reply(self) -> tuple[int, bytes] | None:
        """``(status, body)`` once the whole reply is buffered, else None."""
        buf = self.buf
        if self.header_end < 0:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                return None
            head = bytes(buf[:end]).lower()
            at = head.find(b"content-length:")
            self.length = 0
            if at >= 0:
                stop = head.find(b"\r\n", at)
                self.length = int(head[at + 15:stop if stop >= 0 else len(head)])
            self.header_end = end
        total = self.header_end + 4 + self.length
        if len(buf) < total:
            return None
        status = int(buf[9:12])
        body = bytes(buf[self.header_end + 4:total])
        del buf[:total]
        return status, body


def run_phase(
    port: int,
    source: Iterator[tuple[bytes, bytes]],
    seconds: float | None,
    connections: int = 2,
) -> Phase:
    """Drive ``connections`` closed loops until ``seconds`` pass.

    With ``seconds=None`` the phase runs until ``source`` is exhausted (a
    warm-up pass).  Requests in flight at the deadline complete and count.
    The caller's garbage collector is off for the whole phase.
    """
    phase = Phase()
    selector = selectors.DefaultSelector()
    conns: list[_Conn] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        phase.start_ns = time.perf_counter_ns()
        deadline = None if seconds is None else phase.start_ns + int(seconds * 1e9)

        def issue(conn: _Conn) -> bool:
            if deadline is not None and time.perf_counter_ns() >= deadline:
                return False
            pair = next(source, None)
            if pair is None:
                phase.exhausted = True
                return False
            phase.attempted += 1
            conn.send(*pair)
            return True

        for _ in range(connections):
            conn = _Conn(port)
            conns.append(conn)
            if issue(conn):
                selector.register(conn.sock, selectors.EVENT_READ, conn)
        while selector.get_map():
            events = selector.select(REPLY_TIMEOUT_S)
            if not events:
                for key in list(selector.get_map().values()):
                    phase.fail("no reply within the timeout")
                    selector.unregister(key.fileobj)
                break
            for key, _mask in events:
                conn = key.data
                data = conn.sock.recv(262144)
                if not data:
                    phase.fail("connection closed by the program")
                    selector.unregister(conn.sock)
                    conn.sock.close()
                    fresh = _Conn(port)
                    conns.append(fresh)
                    if issue(fresh):
                        selector.register(fresh.sock, selectors.EVENT_READ, fresh)
                    continue
                conn.buf += data
                got = conn.reply()
                if got is None:
                    continue
                now = time.perf_counter_ns()
                phase.latencies_ns.append(now - conn.sent_ns)
                status, body = got
                if status != 200:
                    phase.fail(f"status {status}: {body[:200]!r}")
                elif body != conn.expected:
                    phase.fail(f"body differs from the library rendering: {body[:120]!r}")
                if not issue(conn):
                    selector.unregister(conn.sock)
        phase.end_ns = time.perf_counter_ns()
    finally:
        if gc_was_enabled:
            gc.enable()
        selector.close()
        for conn in conns:
            conn.sock.close()
    return phase


def get_json(port: int, path: str) -> dict:
    """One GET on a fresh connection, decoded as JSON (``/metrics``)."""
    conn = _Conn(port)
    conn.sock.settimeout(REPLY_TIMEOUT_S)
    try:
        conn.send(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode(), b"")
        while True:
            data = conn.sock.recv(262144)
            if not data:
                raise ConnectionError(f"GET {path}: connection closed")
            conn.buf += data
            got = conn.reply()
            if got is not None:
                status, body = got
                if status != 200:
                    raise ConnectionError(f"GET {path}: status {status}")
                return json.loads(body)
    finally:
        conn.sock.close()
