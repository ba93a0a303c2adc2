"""Front-door router of the multi-node carbon-query fabric.

``sustainable-ai fabric`` (or ``python -m repro.service.router``) spawns
N carbon-query service replicas and routes every request by consistent-
hashing its canonical query key (:meth:`repro.service.queries.Query.cache_key`)
over a virtual-node hash ring (:mod:`repro.service.hashring`).  Two
requests that would coalesce on a single node land on the same replica,
so each replica's response LRU and substrate memo stay hot for its
shard — the fabric's aggregate cache capacity grows linearly with the
replica count.

Fabric semantics on top of the single-node service contract:

* **Byte fidelity** — the router forwards the raw request target and
  body verbatim and returns the replica's body untouched, so every
  fabric response is byte-identical to the single-node service (and
  therefore to the direct library call).  Unparseable requests are
  routed by a stable hash of the raw request line, so even error bodies
  come from a real replica.
* **Failover** — a transport failure ejects the replica immediately and
  the request is retried on the next distinct ring node (the key's
  preference order), so a SIGKILL'd replica costs zero client-visible
  5xx.  Retryable upstream statuses (500 crash, 503 drain) also fail
  over; queries are idempotent so a duplicate execution is safe.
* **Health & rejoin** — a background loop probes ``/healthz`` every
  ``health_interval_s``; ``eject_after`` consecutive failures eject a
  replica and one success rejoins it.  Managed (spawned) replicas whose
  process died are restarted and rejoin with cold caches.
* **Sweep routing** — a sweep job's id is a digest of its spec
  (:attr:`repro.service.queries.SweepQuery.sweep_id`), and each request of
  the job routes on it: ``POST /sweep`` on the id of the spec it carries,
  ``GET /sweep/{id}[/result]`` on the id in its path.  So a job lives on
  its id's ring owner and the router keeps no table of jobs.  A poll that
  a replica answers ``404`` walks on down the preference order, which
  finds a job whose submission failed over.
* **Stream pinning** — ``GET /stream`` routes by the stream *spec*'s
  canonical key with the transport params (``cursor``, ``wait_s``,
  ``max_ticks``) stripped, so every poll of one stream lands on the
  replica holding its live frontier accounting state.  After a
  failover the new replica's feed clock restarts; a cursor ahead of it
  gets the service's structured 409 until the clock catches up.
* **Aggregated `/metrics`** — the router sums the replicas'
  ``ServiceCounters``, response-cache, batching, substrate-cache, sweep
  and ledger counters into one fleet document plus a ``router`` block
  (ring shares, per-replica health, failovers).  It reads no data source
  of its own: a shared ledger's contents are ``ledger show``'s to report.
* **Shared tiers** — ``--cache-dir`` points every replica at one
  content-addressed disk substrate cache (the runner exports it as
  ``SUSTAINABLE_AI_CACHE_DIR``, which replicas inherit) and
  ``--ledger-dir``, forwarded like every other replica flag, at one
  claim-ledger directory, so all replicas record into a single
  ``service`` run.

Its lifecycle (listen, drain on SIGTERM/SIGINT, ``--metrics-json``) is
the :class:`repro.service.server.Server` it shares with the service; its
close terminates managed replicas.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Sequence
from urllib.parse import urlsplit

from repro.errors import QueryError, ServiceError
from repro.service import queries, routes
from repro.service.cache import DEFAULT_LRU_SIZE
from repro.service.hashring import DEFAULT_VNODES, HashRing
from repro.service.http import ProtocolError, Request, Response, read_response
from repro.service.routes import error_body
from repro.service.server import (
    Server,
    ServerConfig,
    ServerThread,
    add_server_flags,
    run_until_signalled,
    server_fields,
    spawn,
    start_thread,
)

__all__ = [
    "DEFAULT_ROUTER_PORT",
    "RouterConfig",
    "Replica",
    "CarbonQueryRouter",
    "merge_replica_metrics",
    "start_router",
    "run_router",
    "add_fabric_flags",
    "router_config_from_args",
]

#: Router defaults, shared by the CLI flags and :class:`RouterConfig`.
DEFAULT_ROUTER_PORT = 8150
DEFAULT_REPLICAS = 2
DEFAULT_HEALTH_INTERVAL_S = 0.25
DEFAULT_EJECT_AFTER = 2
DEFAULT_PROXY_TIMEOUT_S = 120.0

#: Idle keep-alive connections kept per replica for proxying.
MAX_POOLED_CONNECTIONS = 32

#: Transport-level failures that mean "this replica did not answer".
_TRANSPORT_ERRORS = (OSError, asyncio.IncompleteReadError, ProtocolError)
#: Every failure of one upstream exchange (see ``_upstream_failure``).
_UPSTREAM_ERRORS = (asyncio.TimeoutError, *_TRANSPORT_ERRORS)

#: The ``serve`` flags ``fabric`` forwards to every managed replica, as
#: ``(flag, type, metavar, help)``, in the order they enter ``replica_args``.
_REPLICA_FLAGS = (
    ("--workers", int, "K", "worker processes per replica (default: the service default)"),
    ("--lru-size", int, "N", "response LRU size per replica (default: the service default)"),
    (
        "--ledger-dir",
        str,
        "DIR",
        "shared claim-ledger directory; replicas record into one 'service' run",
    ),
    (
        "--ledger-gc-interval",
        float,
        "SECONDS",
        "periodic ledger journal compaction per replica "
        "(default: the service default — disabled)",
    ),
    ("--max-streams", int, "N", "live /stream cap per replica (default: the service default)"),
    (
        "--stream-tick-hz",
        float,
        "HZ",
        "stream feed release rate per replica (default: the service default)",
    ),
)

#: The rows of a sweep job's polls.  Only the replica running a job knows
#: its id, so a poll walks on past a ``404``; a query walks on past a
#: crash (``500``) or a drain (``503``), its replica's own answers.
_SWEEP_POLLS = frozenset({"/sweep/{id}", "/sweep/{id}/result"})


@dataclass(frozen=True)
class RouterConfig(ServerConfig):
    """All knobs of one fabric router."""

    port: int = DEFAULT_ROUTER_PORT
    #: Managed mode: spawn this many ``python -m repro.service`` replicas.
    replicas: int = DEFAULT_REPLICAS
    #: Attached mode: route across these existing base URLs instead of
    #: spawning (tests use it to front in-process services).
    backends: tuple[str, ...] = ()
    vnodes: int = DEFAULT_VNODES
    health_interval_s: float = DEFAULT_HEALTH_INTERVAL_S
    eject_after: int = DEFAULT_EJECT_AFTER
    proxy_timeout_s: float | None = DEFAULT_PROXY_TIMEOUT_S
    #: Restart managed replicas whose process died (chaos recovery).
    restart_replicas: bool = True
    #: Extra ``python -m repro.service`` argv for every managed replica
    #: (e.g. ``("--workers", "0")`` or ``("--ledger-dir", DIR)``).
    replica_args: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        # Float checks are written so that NaN fails them too.
        if not self.backends and self.replicas < 1:
            raise ServiceError(f"replicas must be >= 1, got {self.replicas}")
        if self.vnodes < 1:
            raise ServiceError(f"vnodes must be >= 1, got {self.vnodes}")
        if not self.health_interval_s > 0:
            raise ServiceError(
                f"health interval must be positive, got {self.health_interval_s}"
            )
        if self.eject_after < 1:
            raise ServiceError(f"eject-after must be >= 1, got {self.eject_after}")
        if self.proxy_timeout_s is not None and not self.proxy_timeout_s > 0:
            raise ServiceError(
                f"proxy timeout must be positive or None, got {self.proxy_timeout_s}"
            )


@dataclass
class Replica:
    """One backend service and its health/traffic state."""

    name: str
    host: str = ""
    port: int = 0
    proc: subprocess.Popen | None = None
    healthy: bool = False
    consecutive_failures: int = 0
    ejections: int = 0
    restarts: int = 0
    proxied: int = 0
    restarting: bool = False

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    def status_payload(self) -> dict[str, object]:
        return {
            "name": self.name,
            "host": self.host,
            "port": self.port,
            "pid": self.pid,
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "ejections": self.ejections,
            "restarts": self.restarts,
            "proxied": self.proxied,
        }


# ---------------------------------------------------------------------------
# Metrics rollup (pure; unit-tested directly)
# ---------------------------------------------------------------------------


def _sum_counter_maps(rows: Sequence[dict], skip: str = "") -> dict[str, int]:
    """Key-wise sums of ``rows``; the ``skip`` key is left out."""
    out: dict[str, int] = {}
    for row in rows:
        for key, value in row.items():
            if key != skip:
                out[key] = out.get(key, 0) + int(value)
    return dict(sorted(out.items()))


def _merge_latency(rows: Sequence[dict]) -> dict[str, object]:
    """Count-weighted mean and max; percentiles do not compose across
    replicas, so the rollup drops them (per-replica documents keep them)."""
    count = sum(int(row.get("count", 0)) for row in rows)
    total = sum(float(row.get("mean_s", 0.0)) * int(row.get("count", 0)) for row in rows)
    return {
        "count": count,
        "mean_s": (total / count) if count else 0.0,
        "max_s": max((float(row.get("max_s", 0.0)) for row in rows), default=0.0),
    }


def _merge_requests(docs: Sequence[dict]) -> dict[str, object]:
    cache_states = _sum_counter_maps([doc.get("cache_states", {}) for doc in docs])
    lookups = cache_states.get("hit", 0) + cache_states.get("miss", 0)
    endpoints: set[str] = set()
    for doc in docs:
        endpoints.update(doc.get("latency_s", {}))
    return {
        "total": sum(int(doc.get("total", 0)) for doc in docs),
        "by_endpoint": _sum_counter_maps([doc.get("by_endpoint", {}) for doc in docs]),
        "by_status": _sum_counter_maps([doc.get("by_status", {}) for doc in docs]),
        "rejected_429": sum(int(doc.get("rejected_429", 0)) for doc in docs),
        "timeouts_504": sum(int(doc.get("timeouts_504", 0)) for doc in docs),
        "server_errors_5xx": sum(int(doc.get("server_errors_5xx", 0)) for doc in docs),
        "cache_states": cache_states,
        "answered_from_cache_rate": (
            cache_states.get("hit", 0) / lookups if lookups else None
        ),
        "latency_s": {
            endpoint: _merge_latency(
                [doc.get("latency_s", {}).get(endpoint, {}) for doc in docs]
            )
            for endpoint in sorted(endpoints)
        },
    }


def _merge_response_cache(docs: Sequence[dict]) -> dict[str, object]:
    merged = _sum_counter_maps(docs, skip="hit_rate")
    lookups = merged.get("hits", 0) + merged.get("misses", 0)
    return {**merged, "hit_rate": merged.get("hits", 0) / lookups if lookups else None}


def _merge_substrate_cache(docs: Sequence[dict]) -> dict[str, object]:
    from repro.core import memo
    from repro.experiments import profiling

    merged: dict[str, dict[str, int]] = {}
    for doc in docs:
        memo.merge_stats(merged, doc.get("per_substrate", {}))
    return {
        "per_substrate": {name: dict(row) for name, row in sorted(merged.items())},
        "totals": memo.totals(merged),
        "hit_rate": profiling.cache_hit_rate(merged),
    }


def _merge_streams(docs: Sequence[dict]) -> dict[str, object]:
    """Stream counters sum; capacity sums too (each replica holds its own
    live jobs); ``tick_hz`` is a config constant so the max is reported."""
    tick_hz = max((float(doc.get("tick_hz", 0.0)) for doc in docs), default=0.0)
    return {**_sum_counter_maps(docs, skip="tick_hz"), "tick_hz": tick_hz}


def merge_replica_metrics(docs: Sequence[dict]) -> dict[str, object]:
    """Fold N replica ``/metrics`` documents into one fleet document.

    Counters sum; rates are recomputed from the summed counters (a mean
    of rates would weight idle replicas equally with busy ones); latency
    percentiles are dropped because order statistics do not compose —
    the per-replica documents remain the source of truth for those.
    """
    docs = list(docs)
    services = [doc.get("service", {}) for doc in docs]
    return {
        "service": {
            "replicas": len(docs),
            "workers": sum(int(doc.get("workers", 0)) for doc in services),
            "uptime_s": max((float(doc.get("uptime_s", 0.0)) for doc in services), default=0.0),
            "experiments": max(
                (int(doc.get("experiments", 0)) for doc in services), default=0
            ),
            "draining": any(bool(doc.get("draining", False)) for doc in services),
        },
        "requests": _merge_requests([doc.get("requests", {}) for doc in docs]),
        "query_memo": _sum_counter_maps([doc.get("query_memo", {}) for doc in docs]),
        "response_cache": _merge_response_cache(
            [doc.get("response_cache", {}) for doc in docs]
        ),
        "batching": _sum_counter_maps([doc.get("batching", {}) for doc in docs]),
        "substrate_cache": _merge_substrate_cache(
            [doc.get("substrate_cache", {}) for doc in docs]
        ),
        "sweeps": _sum_counter_maps([doc.get("sweeps", {}) for doc in docs]),
        "streams": _merge_streams([doc.get("streams", {}) for doc in docs]),
        "ledger": {
            "errors": sum(int(doc.get("ledger", {}).get("errors", 0)) for doc in docs),
            "gc_runs": sum(
                int(doc.get("ledger", {}).get("gc_runs", 0)) for doc in docs
            ),
        },
    }


# ---------------------------------------------------------------------------
# The router
# ---------------------------------------------------------------------------


class CarbonQueryRouter(Server):
    """One fabric front door; create, then :meth:`run` on an event loop."""

    role = "router"
    config: RouterConfig

    def __init__(self, config: RouterConfig) -> None:
        super().__init__(config)
        self.managed = not config.backends
        self.replicas: dict[str, Replica] = {}
        if self.managed:
            for index in range(config.replicas):
                name = f"replica-{index}"
                self.replicas[name] = Replica(name=name)
        else:
            for index, url in enumerate(config.backends):
                split = urlsplit(url if "//" in url else f"//{url}")
                if not split.hostname or not split.port:
                    raise ServiceError(f"backend URL needs host and port, got {url!r}")
                name = f"replica-{index}"
                self.replicas[name] = Replica(
                    name=name, host=split.hostname, port=split.port, healthy=True
                )
        self.ring = HashRing(self.replicas, vnodes=config.vnodes)
        #: As many parsed requests as the replicas' default LRUs hold.
        self.query_memo = routes.QueryMemo(DEFAULT_LRU_SIZE * len(self.replicas))
        self.failovers = 0
        self.retried_5xx = 0
        self.rejoins = 0
        self._pools: dict[str, deque] = {name: deque() for name in self.replicas}
        #: The rows the router answers itself (``GET`` only); it forwards
        #: every other request to the replica its ring key names.
        self._local = {
            "/healthz": self._healthz,
            "/metrics": self._metrics,
            "/sweep": self._sweep_list,
        }

    # -- lifecycle ---------------------------------------------------------

    async def _start(self) -> list:
        if self.managed:
            await asyncio.gather(
                *(self._start_replica(replica) for replica in self.replicas.values())
            )
        return [self._health_loop()]

    async def _close(self) -> None:
        for name in self.replicas:
            self._discard_pool(name)
        if self.managed:
            assert self._loop is not None
            await self._loop.run_in_executor(None, self._stop_replicas)

    def summary(self) -> str:
        backends = ", ".join(
            f"{replica.name}={replica.host}:{replica.port}"
            for replica in sorted(self.replicas.values(), key=lambda r: r.name)
        )
        return (
            f"(replicas={len(self.replicas)}, vnodes={self.config.vnodes}) [{backends}]"
        )

    # -- replica processes -------------------------------------------------

    def _spawn_blocking(self) -> tuple[subprocess.Popen, int]:
        """Start one replica process; return it with its port.

        The replica inherits this process's environment, so a disk cache
        the runner exported for ``fabric --cache-dir`` is the replicas' too.
        """
        args = ["--host", "127.0.0.1", "--port", "0", *self.config.replica_args]
        return spawn("repro.service", args)

    async def _start_replica(self, replica: Replica) -> None:
        """Spawn ``replica``'s process (again, after a death) and mark it healthy."""
        assert self._loop is not None
        if replica.proc is not None and replica.proc.stdout is not None:
            replica.proc.stdout.close()
        proc, port = await self._loop.run_in_executor(None, self._spawn_blocking)
        replica.proc = proc
        replica.host, replica.port = "127.0.0.1", port
        replica.healthy = True
        replica.consecutive_failures = 0

    def _stop_replicas(self) -> None:
        procs = [r.proc for r in self.replicas.values() if r.proc is not None]
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in procs:
            try:
                proc.wait(timeout=self.config.drain_timeout_s + 10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()

    # -- health ------------------------------------------------------------

    def _mark_unhealthy(self, replica: Replica) -> None:
        if replica.healthy:
            replica.healthy = False
            replica.ejections += 1
        replica.consecutive_failures = max(
            replica.consecutive_failures, self.config.eject_after
        )
        self._discard_pool(replica.name)

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval_s)
            for replica in list(self.replicas.values()):
                try:
                    await self._check_replica(replica)
                except asyncio.CancelledError:
                    raise
                except Exception:
                    # A failed probe/restart never kills the loop; the
                    # replica stays ejected and is retried next tick.
                    pass

    async def _check_replica(self, replica: Replica) -> None:
        if replica.restarting:
            return
        if (
            self.managed
            and replica.proc is not None
            and replica.proc.poll() is not None
        ):
            self._mark_unhealthy(replica)
            if self.config.restart_replicas and not self._draining:
                await self._restart_replica(replica)
            return
        probe_timeout = max(1.0, self.config.health_interval_s * 4)
        try:
            status, _headers, _body = await asyncio.wait_for(
                self._request(replica, "GET", "/healthz"), probe_timeout
            )
            ok = status == 200
        except _UPSTREAM_ERRORS:
            ok = False
        if ok:
            replica.consecutive_failures = 0
            if not replica.healthy:
                replica.healthy = True
                self.rejoins += 1
        else:
            replica.consecutive_failures += 1
            if replica.healthy and replica.consecutive_failures >= self.config.eject_after:
                self._mark_unhealthy(replica)

    async def _restart_replica(self, replica: Replica) -> None:
        replica.restarting = True
        try:
            await self._start_replica(replica)
            replica.restarts += 1
            self._discard_pool(replica.name)
            self.rejoins += 1
        finally:
            replica.restarting = False

    # -- upstream HTTP client ----------------------------------------------

    def _discard_pool(self, name: str) -> None:
        pool = self._pools[name]
        while pool:
            _reader, writer = pool.popleft()
            writer.close()

    async def _request(
        self,
        replica: Replica,
        method: str,
        target: str,
        body: bytes = b"",
        content_type: str | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One upstream exchange, reusing a pooled keep-alive connection.

        A pooled connection may have been closed by the replica between
        requests; that single case is retried on a fresh connection
        before the failure is surfaced to failover.
        """
        pool = self._pools[replica.name]
        while True:
            pooled = bool(pool)
            if pooled:
                reader, writer = pool.popleft()
            else:
                reader, writer = await asyncio.open_connection(replica.host, replica.port)
            try:
                head = (
                    f"{method} {target} HTTP/1.1\r\n"
                    f"Host: {replica.host}:{replica.port}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                )
                if content_type:
                    head += f"Content-Type: {content_type}\r\n"
                head += "\r\n"
                writer.write(head.encode("ascii") + body)
                await writer.drain()
                status, headers, payload = await read_response(reader)
            except _TRANSPORT_ERRORS:
                writer.close()
                if pooled:
                    continue
                raise
            if headers.get("connection", "").lower() == "close":
                writer.close()
            elif len(pool) < MAX_POOLED_CONNECTIONS:
                pool.append((reader, writer))
            else:
                writer.close()
            return status, headers, payload

    # -- routing -----------------------------------------------------------

    def routing_key(self, request: Request) -> tuple[str, str]:
        """``(endpoint label, ring key)`` for one request.

        Parseable query requests key on the canonical cache key — the
        same string the replica's LRU and batcher key on — so a shard's
        traffic always lands where its cache is warm; the router's own
        :class:`~repro.service.routes.QueryMemo` keys a repeated request
        without parsing it.  A sweep job's requests key on its id, so
        they all land on one replica.  Everything else (including
        malformed queries) keys on the raw request line, which still
        gives a stable replica per distinct request.
        """
        found = routes.match(request)
        if found.label in _SWEEP_POLLS:
            return found.label, found.id
        if found.kind is not None:
            try:
                query, key = self.query_memo.parse(found, request)
            except (QueryError, ProtocolError):
                pass
            else:
                if isinstance(query, queries.SweepQuery):
                    return found.label, query.sweep_id
                return found.label, key
        return found.label, f"{request.method} {request.raw_target or request.path}"

    async def _route(self, request: Request) -> tuple[str, Response, None]:
        endpoint, key = self.routing_key(request)
        local = self._local.get(endpoint) if request.method == "GET" else None
        if local is not None:
            return endpoint, await local(request), None
        walk_on = (404,) if endpoint in _SWEEP_POLLS else (500, 503)
        return endpoint, await self._forward(key, request, walk_on), None

    async def _healthz(self, request: Request) -> Response:
        healthy = sum(1 for r in self.replicas.values() if r.healthy)
        status = "draining" if self._draining else ("ok" if healthy else "degraded")
        return Response(
            200,
            queries.render_payload(
                {
                    "status": status,
                    "role": "router",
                    "replicas": {"healthy": healthy, "total": len(self.replicas)},
                }
            ),
        )

    async def _metrics(self, request: Request) -> Response:
        return Response(200, queries.render_payload(await self.metrics_document()))

    def _candidates(self, key: str) -> list[Replica]:
        """Failover order: healthy replicas first, then the ejected ones
        as a last resort (health probes lag reality by up to one tick)."""
        order = [self.replicas[name] for name in self.ring.iter_preference(key)]
        healthy = [replica for replica in order if replica.healthy]
        return healthy + [replica for replica in order if not replica.healthy]

    async def _forward(self, key: str, request: Request, walk_on: tuple[int, ...]) -> Response:
        """The router's one failover walk: ``request`` down the key's candidates.

        A replica that does not answer is ejected and the request goes on
        to the next one, unless it timed out (see ``_upstream_failure``).
        An answer whose status is in ``walk_on`` goes on too, unless it is
        the last replica's.  A step past a failure or a ``5xx`` counts as a
        failover; a fault that reproduces everywhere still surfaces as the
        last body.
        """
        if self._draining:
            return Response(503, error_body("draining", "router is shutting down; retry elsewhere"))
        target = request.raw_target or request.path
        content_type = request.headers.get("content-type")
        candidates = self._candidates(key)
        response: Response | None = None
        failed = False
        for replica in candidates:
            if failed:
                self.failovers += 1
            try:
                status, _headers, body = await self._exchange(
                    replica, request.method, target, request.body, content_type
                )
            except _UPSTREAM_ERRORS as exc:
                response = self._upstream_failure(replica, exc)
                if response.status == 504:
                    return response
                failed = True
                continue
            replica.proxied += 1
            response = Response(status, body)
            if status not in walk_on or replica is candidates[-1]:
                return response
            failed = status >= 500
            if failed:
                self.retried_5xx += 1
        if response is None:
            return Response(502, error_body("no-replicas", "no replica is available"))
        return response

    def _upstream_failure(self, replica: Replica, exc: BaseException) -> Response:
        """The answer for an exchange with ``replica`` that raised ``exc``.

        A timeout is a ``504``, final: the replica may still be executing
        the request.  Any other failure is a ``502`` that ejects the
        replica, and the caller may try the next one.
        """
        if isinstance(exc, asyncio.TimeoutError):
            message = (
                f"replica {replica.name} exceeded the proxy timeout "
                f"({self.config.proxy_timeout_s}s)"
            )
            return Response(504, error_body("upstream-timeout", message))
        self._mark_unhealthy(replica)
        message = f"replica {replica.name} did not answer: {exc or type(exc).__name__}"
        return Response(502, error_body("bad-gateway", message))

    async def _exchange(
        self,
        replica: Replica,
        method: str,
        target: str,
        body: bytes,
        content_type: str | None,
    ) -> tuple[int, dict[str, str], bytes]:
        exchange = self._request(replica, method, target, body, content_type)
        if self.config.proxy_timeout_s is None:
            return await exchange
        return await asyncio.wait_for(exchange, self.config.proxy_timeout_s)

    # -- fan-out -----------------------------------------------------------

    async def _fan_out(self, target: str) -> tuple[list[dict], int]:
        """``GET target`` from every replica, healthy ones first.

        Returns the JSON objects the replicas answered ``200`` with, and
        how many replicas gave no such answer.
        """
        docs: list[dict] = []
        unreachable = 0
        for replica in sorted(self.replicas.values(), key=lambda r: not r.healthy):
            try:
                status, _headers, body = await self._exchange(replica, "GET", target, b"", None)
                doc = json.loads(body) if status == 200 else None
            except (*_UPSTREAM_ERRORS, ValueError):
                doc = None
            if isinstance(doc, dict):
                docs.append(doc)
            else:
                unreachable += 1
        return docs, unreachable

    async def _sweep_list(self, request: Request) -> Response:
        """``GET /sweep``: the union of every replica's job list."""
        docs, unreachable = await self._fan_out("/sweep")
        jobs: dict[str, dict] = {}
        for doc in docs:
            for job in doc.get("sweeps", []):
                sweep_id = job.get("sweep_id")
                if isinstance(sweep_id, str):
                    jobs.setdefault(sweep_id, job)
        payload: dict[str, object] = {"sweeps": [jobs[sweep_id] for sweep_id in sorted(jobs)]}
        if unreachable:
            payload["unreachable_replicas"] = unreachable
        return Response(200, queries.render_payload(payload))

    # -- metrics -----------------------------------------------------------

    async def metrics_document(self) -> dict[str, object]:
        docs, _unreachable = await self._fan_out("/metrics")
        doc = merge_replica_metrics(docs)
        doc["router"] = self.router_payload()
        return doc

    def router_payload(self) -> dict[str, object]:
        return {
            "draining": self._draining,
            "uptime_s": time.monotonic() - self._started_monotonic,
            "managed": self.managed,
            "failovers": self.failovers,
            "retried_5xx": self.retried_5xx,
            "rejoins": self.rejoins,
            "query_memo": self.query_memo.stats(),
            "ring": {
                "vnodes": self.config.vnodes,
                "nodes": list(self.ring.nodes),
                "shares": self.ring.shares(),
            },
            "replicas": [
                replica.status_payload()
                for replica in sorted(self.replicas.values(), key=lambda r: r.name)
            ],
            "requests": self.counters.snapshot(),
        }


# ---------------------------------------------------------------------------
# Embedding and CLI entry points
# ---------------------------------------------------------------------------


def start_router(config: RouterConfig) -> ServerThread:
    """Start a router on a daemon thread and wait until it is listening."""
    return start_thread(CarbonQueryRouter(config))


def run_router(config: RouterConfig) -> int:
    """Blocking CLI body: run until SIGTERM/SIGINT, drain, exit 0."""
    return run_until_signalled(CarbonQueryRouter(config))


def add_fabric_flags(parser: argparse.ArgumentParser) -> None:
    """Install the ``fabric`` flags on an argparse (sub)parser."""
    add_server_flags(parser, DEFAULT_ROUTER_PORT)
    parser.add_argument(
        "--replicas",
        type=int,
        metavar="N",
        default=DEFAULT_REPLICAS,
        help="service replicas to spawn and route across (default: %(default)s)",
    )
    parser.add_argument(
        "--backend",
        action="append",
        metavar="URL",
        default=None,
        help="route across this existing service URL instead of spawning "
        "(repeatable; overrides --replicas)",
    )
    parser.add_argument(
        "--vnodes",
        type=int,
        metavar="K",
        default=DEFAULT_VNODES,
        help="virtual nodes per replica on the hash ring (default: %(default)s)",
    )
    parser.add_argument(
        "--health-interval",
        type=float,
        metavar="SECONDS",
        default=DEFAULT_HEALTH_INTERVAL_S,
        help="/healthz probe period per replica (default: %(default)s)",
    )
    parser.add_argument(
        "--eject-after",
        type=int,
        metavar="K",
        default=DEFAULT_EJECT_AFTER,
        help="consecutive failed probes before ejection (default: %(default)s)",
    )
    parser.add_argument(
        "--proxy-timeout",
        type=float,
        metavar="SECONDS",
        default=DEFAULT_PROXY_TIMEOUT_S,
        help="per-upstream-exchange timeout -> 504 (default: %(default)s; <= 0 disables)",
    )
    parser.add_argument(
        "--no-restart",
        action="store_true",
        help="do not restart managed replicas whose process died",
    )
    for flag, kind, metavar, text in _REPLICA_FLAGS:
        parser.add_argument(flag, type=kind, metavar=metavar, default=None, help=text)
    parser.add_argument(
        "--replica-arg",
        action="append",
        metavar="ARG",
        default=None,
        help="extra argv token passed to every spawned replica (repeatable)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="shared substrate disk cache for all replicas "
        "(exported as SUSTAINABLE_AI_CACHE_DIR)",
    )


def router_config_from_args(args) -> RouterConfig:
    """A :class:`RouterConfig` from parsed ``add_fabric_flags`` output."""
    replica_args: list[str] = []
    for flag, *_ in _REPLICA_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            replica_args += [flag, str(value)]
    replica_args += list(args.replica_arg or [])
    return RouterConfig(
        **server_fields(args),
        replicas=args.replicas,
        backends=tuple(args.backend or ()),
        vnodes=args.vnodes,
        health_interval_s=args.health_interval,
        eject_after=args.eject_after,
        proxy_timeout_s=None if args.proxy_timeout <= 0 else args.proxy_timeout,
        restart_replicas=not args.no_restart,
        replica_args=tuple(replica_args),
    )


if __name__ == "__main__":  # the ``sustainable-ai fabric`` command
    from repro.experiments import runner

    sys.exit(runner.main(["fabric", *sys.argv[1:]]))
