"""What ``serve`` and ``fabric`` share: one config base, one lifecycle, one launch.

The carbon-query service (:mod:`repro.service.app`) and the fabric router
(:mod:`repro.service.router`) are two roles of one :class:`Server`.  The
server owns the HTTP listener, the request counters and the lifecycle:

1. :meth:`Server.run` starts the role (the service's ledger gc loop, the
   router's replicas and health loop), then listens;
2. it serves until :meth:`Server.request_shutdown`, which is safe from any
   thread or a signal handler;
3. it drains: stops accepting, gives in-flight requests
   ``drain_timeout_s`` to finish (late arrivals get ``503``/``draining``)
   and lets the role drain its own work;
4. it writes the final ``/metrics`` document to ``metrics_json``, if set,
   and closes the role (the service's worker pool, the router's replicas).

A role supplies its ``_route`` and these hooks.  Three ways to run a
server build on :meth:`Server.run`: :func:`start_thread` runs one on a
daemon thread (tests, benchmarks, embedding), :func:`run_until_signalled`
is the CLI body that prints the ``listening on http://`` banner and runs
until SIGTERM/SIGINT, and :func:`spawn` starts a role's process and reads
its port from that banner.
"""

from __future__ import annotations

import asyncio
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Coroutine, Mapping, Sequence

from repro.core.canonical import canonical_bytes
from repro.errors import ServiceError
from repro.service import routes
from repro.service.http import HttpServer, Request, Response
from repro.telemetry.counters import ServiceCounters

DEFAULT_DRAIN_TIMEOUT_S = 10.0

#: The start of a server's first stdout line; the bound address follows.
BANNER = "listening on http://"


@dataclass(frozen=True)
class ServerConfig:
    """The knobs every role has; each role's config adds its own."""

    host: str = "127.0.0.1"
    #: ``0`` picks an ephemeral port.
    port: int = 0
    drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S
    #: Where to write the final ``/metrics`` document on shutdown.
    metrics_json: str | None = None

    def __post_init__(self) -> None:
        # Written so that NaN fails it too.
        if not self.drain_timeout_s >= 0:
            raise ServiceError(f"drain timeout must be >= 0, got {self.drain_timeout_s}")


def add_server_flags(parser, port: int) -> None:
    """Install ``--host``, ``--port``, ``--drain-timeout`` and ``--metrics-json``."""
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument(
        "--port",
        type=int,
        default=port,
        help="TCP port; 0 picks an ephemeral port (default: %(default)s)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        metavar="SECONDS",
        default=DEFAULT_DRAIN_TIMEOUT_S,
        help="grace period for in-flight requests on shutdown (default: %(default)s)",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="write the final /metrics document to PATH on shutdown",
    )


def server_fields(args) -> dict[str, object]:
    """The :class:`ServerConfig` fields of parsed :func:`add_server_flags` output."""
    return {
        "host": args.host,
        "port": args.port,
        "drain_timeout_s": args.drain_timeout,
        "metrics_json": args.metrics_json,
    }


class Server:
    """One role's lifecycle; create, then :meth:`run` on an event loop."""

    #: The role's name in thread names and start-up errors.
    role = "server"

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.counters = ServiceCounters()
        self.port: int | None = None
        self._draining = False
        self._started_monotonic = time.monotonic()
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    async def run(self, on_ready=None) -> None:
        """Serve until :meth:`request_shutdown`, then drain and close."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._started_monotonic = time.monotonic()
        listener = HttpServer(
            self.handle,
            self.config.host,
            self.config.port,
            malformed=routes.malformed(self.counters),
        )
        tasks: list[asyncio.Task] = []
        try:
            tasks = [asyncio.create_task(background) for background in await self._start()]
            await listener.start()
            self.port = listener.port
            if on_ready is not None:
                on_ready(self)
            await self._stop_event.wait()
        finally:
            self._draining = True
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await listener.drain_and_stop(self.config.drain_timeout_s)
            await self._drain()
            # Written before the close, so the router's document still holds
            # its replicas' rollup; a server that never listened writes none.
            if self.config.metrics_json and self.port is not None:
                document = await self.metrics_document()
                Path(self.config.metrics_json).write_bytes(canonical_bytes(document))
            await self._close()

    def request_shutdown(self) -> None:
        """Begin graceful shutdown; safe to call from any thread or a signal."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None:
            return
        loop.call_soon_threadsafe(event.set)

    async def handle(self, request: Request) -> Response:
        """Answer one request and count it under its route's label.

        An exception no route maps is answered with ``500``/``internal-error``.
        """
        start = time.perf_counter()
        try:
            endpoint, response, cache_state = await self._route(request)
        except Exception as exc:
            endpoint, cache_state = routes.INTERNAL_ERROR, None
            response = routes.internal_error(request, exc)
        elapsed = time.perf_counter() - start
        self.counters.record(endpoint, response.status, elapsed, cache_state)
        return response

    # -- what a role supplies ------------------------------------------------

    async def _route(self, request: Request) -> tuple[str, Response, str | None]:
        """``(endpoint label, response, cache state)`` for one request."""
        raise NotImplementedError

    async def _start(self) -> list[Coroutine]:
        """Start the role's resources; return the loops to run while serving."""
        return []

    async def _drain(self) -> None:
        """Let the role's own in-flight work finish or cancel it."""

    async def _close(self) -> None:
        """Release what :meth:`_start` and serving acquired."""

    async def metrics_document(self) -> dict[str, object]:
        """The ``/metrics`` document (also the ``--metrics-json`` export)."""
        raise NotImplementedError

    def summary(self) -> str:
        """What the banner says after the bound address."""
        raise NotImplementedError


class ServerThread:
    """A server running on a daemon thread (tests, benchmarks, embedding)."""

    def __init__(self, server: Server, thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    @property
    def base_url(self) -> str:
        return f"http://{self.server.config.host}:{self.port}"

    def stop(self, timeout: float = 60.0) -> None:
        self.server.request_shutdown()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise ServiceError(f"{self.server.role} thread did not stop within the timeout")

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_thread(server: Server, ready_timeout: float = 60.0) -> ServerThread:
    """Run ``server`` on a daemon thread and wait until it is listening."""
    ready = threading.Event()
    failure: list[BaseException] = []

    def _run() -> None:
        try:
            asyncio.run(server.run(on_ready=lambda _server: ready.set()))
        except BaseException as exc:  # surface bind and spawn errors to the caller
            failure.append(exc)
            ready.set()

    thread = threading.Thread(target=_run, name=f"carbon-query-{server.role}", daemon=True)
    thread.start()
    if not ready.wait(ready_timeout):
        server.request_shutdown()
        raise ServiceError(f"{server.role} did not start listening within the timeout")
    if failure:
        raise ServiceError(f"{server.role} failed to start: {failure[0]}") from failure[0]
    return ServerThread(server, thread)


def run_until_signalled(server: Server) -> int:
    """Blocking CLI body: run until SIGTERM/SIGINT, drain, exit 0.

    The banner is the first line on stdout, printed once the server
    listens; ``drained; bye`` is the last.
    """

    def _announce(_server: Server) -> None:
        print(f"{BANNER}{server.config.host}:{server.port} {server.summary()}", flush=True)

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, server.request_shutdown)
        await server.run(on_ready=_announce)
        print("drained; bye", flush=True)

    asyncio.run(_main())
    return 0


def spawn(
    module: str,
    args: Sequence[str] = (),
    *,
    env: Mapping[str, str] | None = None,
    start_new_session: bool = False,
) -> tuple[subprocess.Popen, int]:
    """Start ``python -m module ARGS``; return the process and the port it bound.

    The child's stderr stays the caller's, so what it writes there
    (warnings, import-time reports, tracebacks) reaches the caller's stderr
    and never delays or fails the start.  Its first stdout line is the
    banner; the caller closes ``proc.stdout`` once the process is done.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", module, *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=start_new_session,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    _head, found, address = line.partition(BANNER)
    if not found:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise ServiceError(f"{module} did not start (exit {proc.returncode}): {line!r}")
    return proc, int(address.split()[0].rsplit(":", 1)[1])
