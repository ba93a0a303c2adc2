"""The carbon-query service: routing, batching, backpressure, lifecycle.

``sustainable-ai serve`` (or ``python -m repro.service``) exposes the
accounting engine over JSON endpoints: the rows of
:data:`repro.service.routes.ROUTES`, which docs/SERVICE.md lists with
what each one answers.

Request path: admission control (bounded in-flight count, excess gets a
structured ``429``) → response LRU (hit serves the exact bytes of the
original execution) → single-flight (identical in-flight queries share
one execution) → worker pool (:mod:`repro.service.pool`, ``--workers``
persistent processes; ``0`` = inline) with a per-request timeout
(``504``) — all over the same ``AccountingContext``/``HourlySeries``
engine the CLI runner uses, so a service answer is byte-identical to the
direct library call it fronts.

Worker executions ship the substrate-cache counter increments they
caused back to the parent (:func:`repro.service.queries.execute_query_task`),
where they are merged into the run-wide view ``/metrics`` reports.

On SIGTERM/SIGINT the service stops accepting, drains in-flight requests
(bounded by ``drain_timeout_s``), optionally writes a final metrics JSON
(``--metrics-json``), and exits 0.
"""

from __future__ import annotations

import asyncio
import math
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.core import ledger, memo
from repro.core.canonical import canonical_bytes, compact_dumps
from repro.errors import (
    InjectedFault,
    InvariantViolation,
    QueryError,
    ServiceError,
    SustainableAIError,
)
from repro.experiments import profiling
from repro.service import queries, routes
from repro.service.routes import error_body
from repro.service.streams import (
    DEFAULT_MAX_STREAMS,
    DEFAULT_STREAM_MAX_WAIT_S,
    DEFAULT_STREAM_TICK_HZ,
    StreamManager,
)
from repro.service.sweeps import DEFAULT_MAX_SWEEPS, SweepManager
from repro.service.batching import QueryBatcher
from repro.service.cache import ResponseCache
from repro.service.http import HttpServer, ProtocolError, Request, Response
from repro.service.pool import WorkerCrash, WorkerPool
from repro.telemetry.counters import ServiceCounters

#: Service defaults, shared by the CLI flags and :class:`ServiceConfig`.
DEFAULT_PORT = 8151
DEFAULT_WORKERS = 2
DEFAULT_MAX_QUEUE = 64
DEFAULT_REQUEST_TIMEOUT_S = 30.0
DEFAULT_LRU_SIZE = 256
DEFAULT_DRAIN_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class ServiceConfig:
    """All knobs of one service instance."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: int = DEFAULT_WORKERS
    max_queue: int = DEFAULT_MAX_QUEUE
    request_timeout_s: float | None = DEFAULT_REQUEST_TIMEOUT_S
    lru_size: int = DEFAULT_LRU_SIZE
    drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S
    metrics_json: str | None = None
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    #: Directory of the claim ledger; ``None`` keeps it in memory (the
    #: ledger then lives and dies with the service process).
    ledger_dir: str | None = None
    #: Seconds between background ``ledger gc`` compactions of the
    #: growing ``service`` run; ``None`` disables the loop.
    ledger_gc_interval_s: float | None = None
    #: Live-stream serving knobs (``/stream``).
    max_streams: int = DEFAULT_MAX_STREAMS
    stream_tick_hz: float = DEFAULT_STREAM_TICK_HZ
    stream_max_wait_s: float = DEFAULT_STREAM_MAX_WAIT_S

    def __post_init__(self) -> None:
        # Float checks are written so that NaN fails them too.
        if self.workers < 0:
            raise ServiceError(f"workers must be >= 0 (0 = inline), got {self.workers}")
        if self.max_queue < 1:
            raise ServiceError(f"max queue must be >= 1, got {self.max_queue}")
        if self.request_timeout_s is not None and not self.request_timeout_s > 0:
            raise ServiceError(
                f"request timeout must be positive or None, got {self.request_timeout_s}"
            )
        if self.lru_size < 0:
            raise ServiceError(f"LRU size must be >= 0, got {self.lru_size}")
        if not self.drain_timeout_s >= 0:
            raise ServiceError(f"drain timeout must be >= 0, got {self.drain_timeout_s}")
        if self.max_sweeps < 1:
            raise ServiceError(f"max sweeps must be >= 1, got {self.max_sweeps}")
        if self.ledger_gc_interval_s is not None and not self.ledger_gc_interval_s > 0:
            raise ServiceError(
                f"ledger gc interval must be positive or None, got {self.ledger_gc_interval_s}"
            )
        if self.max_streams < 1:
            raise ServiceError(f"max streams must be >= 1, got {self.max_streams}")
        if not 0 < self.stream_tick_hz < math.inf:
            raise ServiceError(
                f"stream tick rate must be positive and finite, got {self.stream_tick_hz}"
            )
        if not self.stream_max_wait_s >= 0:
            raise ServiceError(
                f"stream max wait must be >= 0, got {self.stream_max_wait_s}"
            )


#: A route handler's answer: the response and its cache state (``"hit"`` or
#: ``"miss"`` where the response LRU or a sweep job could serve it).
_Answer = tuple[Response, str | None]


def _document(payload: dict[str, object], status: int = 200) -> _Answer:
    return Response(status, queries.render_payload(payload)), None


def _draining() -> _Answer:
    return Response(503, error_body("draining", "service is shutting down; retry elsewhere")), None


def _bad_request(exc: Exception) -> _Answer:
    return Response(400, error_body("bad-request", str(exc))), None


class CarbonQueryService:
    """One service instance; create, then :meth:`run` on an event loop."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.counters = ServiceCounters()
        self.cache = ResponseCache(config.lru_size)
        self.batcher = QueryBatcher(self._execute)
        self.sweeps = SweepManager(self, config.max_sweeps)
        self.streams = StreamManager(
            max_streams=config.max_streams,
            tick_hz=config.stream_tick_hz,
            max_wait_s=config.stream_max_wait_s,
        )
        directory = ledger.resolve_ledger_dir(config.ledger_dir)
        self.ledger = (
            ledger.Ledger.open(directory) if directory else ledger.Ledger.in_memory()
        )
        self.ledger_errors = 0
        self.ledger_gc_runs = 0
        self._seed_golden_epoch()
        self.worker_stats: dict[str, dict[str, int]] = {}
        self.port: int | None = None
        self.pool = WorkerPool(config.workers) if config.workers else None
        self._inline_executor: ThreadPoolExecutor | None = None
        self._active = 0
        self._draining = False
        self._started_monotonic = time.monotonic()
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        #: The handler of each row of :data:`repro.service.routes.ROUTES`.
        self._handlers = {
            "/healthz": self._healthz,
            "/metrics": self._metrics,
            "/experiments": self._experiments,
            "/experiments/{id}": self._query,
            "/footprint": self._query,
            "/schedule/carbon-aware": self._query,
            "/stream": self._stream,
            "/sweep": self._sweep,
            "/sweep/{id}": self._poll_sweep,
            "/sweep/{id}/result": self._poll_sweep,
            "/ledger": self._ledger_stats,
            "/ledger/diff": self._ledger_diff,
            "/ledger/trace": self._ledger_trace,
        }

    # -- lifecycle ---------------------------------------------------------

    async def run(self, on_ready=None) -> None:
        """Serve until :meth:`request_shutdown`, then drain and clean up."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._started_monotonic = time.monotonic()
        server = HttpServer(self.handle, self.config.host, self.config.port)
        await server.start()
        self.port = server.port
        gc_task: asyncio.Task | None = None
        if self.config.ledger_gc_interval_s is not None:
            gc_task = asyncio.create_task(self._ledger_gc_loop())
        if on_ready is not None:
            on_ready(self)
        try:
            await self._stop_event.wait()
        finally:
            self._draining = True
            if gc_task is not None:
                gc_task.cancel()
            await server.drain_and_stop(self.config.drain_timeout_s)
            await self.batcher.drain(self.config.drain_timeout_s)
            for job in self.sweeps.jobs.values():
                if job.task is not None and not job.task.done():
                    job.task.cancel()
            if self.pool is not None:
                self.pool.close()
            if self._inline_executor is not None:
                self._inline_executor.shutdown(wait=False, cancel_futures=True)
                self._inline_executor = None
            if self.config.metrics_json:
                Path(self.config.metrics_json).write_bytes(
                    canonical_bytes(self.metrics_payload())
                )

    def _seed_golden_epoch(self) -> None:
        """Pin ``golden/baselines.json`` as epoch "0" when it is missing.

        Best-effort: a service without a baselines file (or with a corrupt
        one) still serves queries — it just cannot diff against the golden
        epoch until one is pinned.
        """
        if ledger.GOLDEN_EPOCH in self.ledger.epochs:
            return
        from repro.experiments import golden

        path = golden.DEFAULT_BASELINES_PATH
        if not path.exists():
            return
        try:
            bundles = ledger.bundles_from_baselines(golden.load_baselines(path))
            self.ledger.pin_epoch(
                ledger.GOLDEN_EPOCH,
                bundles,
                meta={"source": "golden-import", "path": str(path)},
            )
        except Exception:
            self.ledger_errors += 1

    async def _ledger_gc_loop(self) -> None:
        """Periodic ``ledger gc`` compaction of the growing ``service`` run.

        Long-lived streaming services append one run delta per executed
        query; without retention the journal grows without bound (the
        ROADMAP item).  Compaction is best-effort like every other ledger
        write: a failure is counted, never fatal.
        """
        assert self.config.ledger_gc_interval_s is not None
        while True:
            await asyncio.sleep(self.config.ledger_gc_interval_s)
            try:
                self.ledger.gc()
                self.ledger_gc_runs += 1
            except asyncio.CancelledError:  # pragma: no cover - shutdown race
                raise
            except Exception:
                self.ledger_errors += 1

    def request_shutdown(self) -> None:
        """Begin graceful shutdown; safe to call from any thread or a signal."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None:
            return
        loop.call_soon_threadsafe(event.set)

    # -- execution ---------------------------------------------------------

    async def _dispatch(self, fn, *args: object):
        """``fn(*args)`` in a pool worker, or inline with ``in_worker=False``."""
        if self.pool is not None:
            return await self.pool.run(fn, *args)
        # One thread, not to_thread's shared pool: experiment execution
        # seeds the global RNG, so inline queries must never overlap.
        if self._inline_executor is None:
            self._inline_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="carbon-query-inline"
            )
        return await asyncio.get_running_loop().run_in_executor(
            self._inline_executor, fn, *args, False
        )

    async def _run_task(self, query: queries.Query) -> dict[str, object]:
        params_json = compact_dumps(query.to_params())
        return await self._dispatch(queries.execute_query_task, query.kind, params_json)

    async def _execute(self, key: str, query: queries.Query) -> bytes:
        """Batcher execution body: run, merge stats, self-check, cache."""
        outcome = await self._run_task(query)
        memo.merge_stats(self.worker_stats, outcome["stats_delta"])
        payload = outcome["payload"]
        from repro.core.series import runtime_checks_enabled

        if runtime_checks_enabled():
            from repro.testing.invariants import check_result

            violations = check_result(queries.payload_to_result(payload))
            if violations:
                detail = "; ".join(
                    f"{v.invariant}({v.metric or v.detail})" for v in violations
                )
                raise InvariantViolation(
                    f"service response for {key!r} violates result invariants: {detail}"
                )
        body = queries.render_payload(payload)
        self.cache.put(key, body)
        self._record_claims(query, outcome, checked=runtime_checks_enabled())
        return body

    def _record_claims(
        self, query: queries.Query, outcome: dict[str, object], *, checked: bool
    ) -> None:
        """Append this execution's claims to the ledger run ``"service"``.

        Best-effort by design: the response bytes are already committed to
        the cache, so a ledger failure must never fail the request — it is
        counted (``/metrics`` -> ``ledger.errors``) instead.
        """
        try:
            bundle = ledger.bundle_from_payload(
                outcome["payload"],  # type: ignore[arg-type]
                kind=query.kind,
                substrates=outcome.get("substrates", ()),  # type: ignore[arg-type]
                invariant_status="ok" if checked else "not-checked",
                recorded_at=time.time(),
                source="service",
            )
            if bundle is not None:
                self.ledger.update_run(
                    "service", bundle, recorded_at=time.time()
                )
        except Exception:
            self.ledger_errors += 1

    # -- metrics -----------------------------------------------------------

    def metrics_payload(self) -> dict[str, object]:
        """The ``/metrics`` document (also the ``--metrics-json`` export)."""
        from repro.experiments.registry import experiment_ids

        substrate = {name: dict(row) for name, row in sorted(self.worker_stats.items())}
        return {
            "service": {
                "uptime_s": time.monotonic() - self._started_monotonic,
                "draining": self._draining,
                "workers": self.config.workers,
                "max_queue": self.config.max_queue,
                "experiments": len(experiment_ids()),
            },
            "requests": self.counters.snapshot(),
            "response_cache": self.cache.stats(),
            "batching": self.batcher.stats(),
            "substrate_cache": {
                "per_substrate": substrate,
                "totals": memo.totals(self.worker_stats),
                "hit_rate": profiling.cache_hit_rate(self.worker_stats),
            },
            "sweeps": self.sweeps.stats(),
            "streams": self.streams.stats(),
            "ledger": {
                **self.ledger.stats(),
                "errors": self.ledger_errors,
                "gc_runs": self.ledger_gc_runs,
                "gc_interval_s": self.config.ledger_gc_interval_s,
            },
        }

    # -- routing -----------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        start = time.perf_counter()
        try:
            endpoint, response, cache_state = await self._route(request)
        except Exception as exc:
            endpoint, cache_state = routes.INTERNAL_ERROR, None
            response = routes.internal_error(request, exc)
        elapsed = time.perf_counter() - start
        self.counters.record(endpoint, response.status, elapsed, cache_state)
        return response

    async def _route(self, request: Request) -> tuple[str, Response, str | None]:
        found = routes.match(request)
        if not found.allowed:
            return found.label, routes.refusal(found), None
        response, cache_state = await self._handlers[found.label](request, found)
        return found.label, response, cache_state

    async def _healthz(self, request: Request, found: routes.Match) -> _Answer:
        from repro.experiments.registry import experiment_ids

        status = "draining" if self._draining else "ok"
        return _document({"status": status, "experiments": len(experiment_ids())})

    async def _metrics(self, request: Request, found: routes.Match) -> _Answer:
        return _document(self.metrics_payload())

    async def _experiments(self, request: Request, found: routes.Match) -> _Answer:
        from repro.experiments.registry import experiment_ids

        return _document({"experiments": list(experiment_ids())})

    async def _query(self, request: Request, found: routes.Match) -> _Answer:
        """Parse -> admission -> LRU -> batcher -> worker, with structured errors.

        Answers ``/experiments/{id}``, ``/footprint`` and
        ``/schedule/carbon-aware``.
        """
        try:
            query, _transport = routes.parse(found, request)
        except (ProtocolError, QueryError) as exc:
            if found.kind == "experiment":
                return Response(404, error_body("unknown-experiment", str(exc))), None
            return _bad_request(exc)
        if self._draining:
            return _draining()
        if self._active >= self.config.max_queue:
            return Response(
                429,
                error_body(
                    "overloaded",
                    f"{self._active} request(s) in flight >= max queue "
                    f"{self.config.max_queue}; retry later",
                ),
            ), None
        self._active += 1
        try:
            key = query.cache_key()
            cached = self.cache.get(key)
            if cached is not None:
                return Response(200, cached), "hit"
            future = self.batcher.submit(key, query)
            body = await asyncio.wait_for(
                asyncio.shield(future), self.config.request_timeout_s
            )
            return Response(200, body), "miss"
        except asyncio.TimeoutError:
            return Response(
                504,
                error_body(
                    "timeout",
                    f"query exceeded the per-request timeout "
                    f"({self.config.request_timeout_s}s); it may complete "
                    "in the background and be served from cache on retry",
                ),
            ), None
        except WorkerCrash:
            return Response(500, error_body("crash", "worker process died mid-request")), None
        except InjectedFault as exc:
            return Response(500, error_body("injected-fault", str(exc))), None
        except InvariantViolation as exc:
            return Response(500, error_body("invariant-violation", str(exc))), None
        except QueryError as exc:
            return _bad_request(exc)
        except SustainableAIError as exc:
            return Response(400, error_body("invalid-query", str(exc))), None
        finally:
            self._active -= 1

    async def _sweep(self, request: Request, found: routes.Match) -> _Answer:
        """``GET /sweep`` lists the jobs; ``POST /sweep`` starts (or rejoins) one."""
        if request.method == "GET":
            jobs = [
                self.sweeps.jobs[sweep_id].progress_payload()
                for sweep_id in sorted(self.sweeps.jobs)
            ]
            return _document({"sweeps": jobs})
        if self._draining:
            return _draining()
        try:
            query, _transport = routes.parse(found, request)
        except (ProtocolError, QueryError) as exc:
            return _bad_request(exc)
        assert isinstance(query, queries.SweepQuery)
        from repro.service.sweeps import sweep_id_for

        if (
            self.sweeps.get(sweep_id_for(query)) is None
            and self.sweeps.active_count() >= self.config.max_sweeps
        ):
            return (
                Response(
                    429,
                    error_body(
                        "overloaded",
                        f"{self.sweeps.active_count()} sweep(s) running >= "
                        f"max sweeps {self.config.max_sweeps}; retry later",
                    ),
                ),
                None,
            )
        job, created = self.sweeps.submit(query)
        status = 202 if job.status == "running" else 200
        return (
            Response(status, queries.render_payload(job.progress_payload())),
            "miss" if created else "hit",
        )

    async def _poll_sweep(self, request: Request, found: routes.Match) -> _Answer:
        """``GET /sweep/{id}`` and ``GET /sweep/{id}/result``."""
        job = self.sweeps.get(found.id)
        if job is None or "/" in found.id:
            return (
                Response(
                    404,
                    error_body(
                        "unknown-sweep",
                        f"no sweep job {found.id!r} (GET /sweep lists jobs)",
                    ),
                ),
                None,
            )
        if found.label == "/sweep/{id}":
            return _document(job.progress_payload())
        if job.status == "done":
            assert job.body is not None
            return Response(200, job.body), "hit"
        if job.status == "failed":
            return Response(500, error_body("sweep-failed", job.error or "sweep failed")), None
        return _document(
            {
                "error": {
                    "kind": "not-finished",
                    "message": "sweep is still running; poll /sweep/{id}",
                },
                **job.progress_payload(),
            },
            409,
        )

    async def _stream(self, request: Request, found: routes.Match) -> _Answer:
        """``GET /stream``: long-poll one delta of a live intensity stream.

        Transport parameters (``cursor``, ``wait_s``, ``max_ticks``)
        select which delta to serve and are split off before the stream
        spec is parsed — the spec alone is the stream's identity (and
        its fabric routing key).
        """
        if self._draining:
            return _draining()
        try:
            query, transport = routes.parse(found, request)
        except (ProtocolError, QueryError) as exc:
            return _bad_request(exc)
        try:
            response = await self.streams.poll(query, **transport, draining=self._stop_event)
        except InvariantViolation as exc:
            return Response(500, error_body("invariant-violation", str(exc))), None
        except SustainableAIError as exc:
            return Response(400, error_body("invalid-query", str(exc))), None
        return response, None

    async def _ledger_stats(self, request: Request, found: routes.Match) -> _Answer:
        return _document({**self.ledger.stats(), "errors": self.ledger_errors})

    async def _ledger_diff(self, request: Request, found: routes.Match) -> _Answer:
        """``GET /ledger/diff?a=REF&b=REF[&strict=..]``: claim-by-claim diff."""
        ref_a = str(request.params.get("a", "")).strip()
        ref_b = str(request.params.get("b", "")).strip()
        if not ref_a or not ref_b:
            return (
                Response(
                    400,
                    error_body(
                        "bad-request",
                        "diff needs two refs: /ledger/diff?a=REF&b=REF "
                        f"(known refs: {', '.join(self.ledger.refs()) or '(none)'})",
                    ),
                ),
                None,
            )
        strict = str(request.params.get("strict", "true")).lower() not in (
            "0", "false", "no",
        )
        try:
            doc = self.ledger.diff_payload(ref_a, ref_b, strict=strict)
        except ledger.LedgerError as exc:
            return Response(400, error_body("unknown-ref", str(exc))), None
        return _document(doc)

    async def _ledger_trace(self, request: Request, found: routes.Match) -> _Answer:
        """``GET /ledger/trace?experiment_id=..&metric=..[&ref=..]``."""
        experiment_id = str(request.params.get("experiment_id", "")).strip()
        metric = str(request.params.get("metric", "")).strip()
        if not experiment_id or not metric:
            return (
                Response(
                    400,
                    error_body(
                        "bad-request",
                        "trace needs /ledger/trace?experiment_id=ID&metric=METRIC",
                    ),
                ),
                None,
            )
        ref = str(request.params.get("ref", "")).strip() or None
        try:
            doc = self.ledger.trace(experiment_id, metric, ref=ref)
        except ledger.LedgerError as exc:
            return Response(404, error_body("unknown-claim", str(exc))), None
        return _document(doc)


# ---------------------------------------------------------------------------
# Embedding and CLI entry points
# ---------------------------------------------------------------------------


class ServiceHandle:
    """A service running on a background thread (tests, benchmarks)."""

    def __init__(self, service: CarbonQueryService, thread: threading.Thread) -> None:
        self.service = service
        self.thread = thread

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    @property
    def base_url(self) -> str:
        return f"http://{self.service.config.host}:{self.port}"

    def stop(self, timeout: float = 30.0) -> None:
        self.service.request_shutdown()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise ServiceError("service thread did not stop within the timeout")

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_service(config: ServiceConfig, ready_timeout: float = 30.0) -> ServiceHandle:
    """Start a service on a daemon thread and wait until it is listening."""
    service = CarbonQueryService(config)
    ready = threading.Event()
    failure: list[BaseException] = []

    def _run() -> None:
        try:
            asyncio.run(service.run(on_ready=lambda _svc: ready.set()))
        except BaseException as exc:  # surface bind errors to the caller
            failure.append(exc)
            ready.set()

    thread = threading.Thread(target=_run, name="carbon-query-service", daemon=True)
    thread.start()
    if not ready.wait(ready_timeout):
        service.request_shutdown()
        raise ServiceError("service did not start listening within the timeout")
    if failure:
        raise ServiceError(f"service failed to start: {failure[0]}") from failure[0]
    return ServiceHandle(service, thread)


def serve(config: ServiceConfig) -> int:
    """Blocking CLI body: run until SIGTERM/SIGINT, drain, exit 0."""

    def _announce(service: CarbonQueryService) -> None:
        print(
            f"listening on http://{config.host}:{service.port} "
            f"(workers={config.workers}, max_queue={config.max_queue})",
            flush=True,
        )

    async def _main() -> None:
        service = CarbonQueryService(config)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, service.request_shutdown)
        await service.run(on_ready=_announce)
        print("drained; bye", flush=True)

    asyncio.run(_main())
    return 0


# -- shared CLI flags --------------------------------------------------------


def add_serve_flags(parser) -> None:
    """Install the ``serve`` flags on an argparse (sub)parser."""
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help="TCP port; 0 picks an ephemeral port (default: %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="K",
        default=DEFAULT_WORKERS,
        help="worker processes for query execution; 0 runs inline (default: %(default)s)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        metavar="N",
        default=DEFAULT_MAX_QUEUE,
        help="bounded in-flight request queue; excess gets 429 (default: %(default)s)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        metavar="SECONDS",
        default=DEFAULT_REQUEST_TIMEOUT_S,
        help="per-request execution timeout -> 504 (default: %(default)s)",
    )
    parser.add_argument(
        "--lru-size",
        type=int,
        metavar="N",
        default=DEFAULT_LRU_SIZE,
        help="bounded response LRU fronting the disk cache (default: %(default)s)",
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
    parser.add_argument(
        "--max-sweeps",
        type=int,
        metavar="N",
        default=DEFAULT_MAX_SWEEPS,
        help="bound on concurrently running /sweep jobs; excess gets 429 (default: %(default)s)",
    )
    parser.add_argument(
        "--ledger-dir",
        metavar="DIR",
        default=None,
        help="persist the claim ledger under DIR (default: env "
        f"{ledger.LEDGER_DIR_ENV_VAR} if set, else in-memory)",
    )
    parser.add_argument(
        "--ledger-gc-interval",
        type=float,
        metavar="SECONDS",
        default=None,
        help="compact the claim ledger ('ledger gc') every SECONDS while "
        "serving; 0 or unset disables the loop (default: disabled)",
    )
    parser.add_argument(
        "--max-streams",
        type=int,
        metavar="N",
        default=DEFAULT_MAX_STREAMS,
        help="bound on live /stream states; excess new streams get 429 "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--stream-tick-hz",
        type=float,
        metavar="HZ",
        default=DEFAULT_STREAM_TICK_HZ,
        help="feed release rate: ticks made visible per second per stream "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--stream-max-wait",
        type=float,
        metavar="SECONDS",
        default=DEFAULT_STREAM_MAX_WAIT_S,
        help="cap on one /stream long-poll's wait_s (default: %(default)s)",
    )


def config_from_args(args) -> ServiceConfig:
    """A :class:`ServiceConfig` from parsed ``add_serve_flags`` output."""
    return ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        request_timeout_s=None if args.request_timeout <= 0 else args.request_timeout,
        lru_size=args.lru_size,
        drain_timeout_s=args.drain_timeout,
        metrics_json=args.metrics_json,
        max_sweeps=args.max_sweeps,
        ledger_dir=args.ledger_dir,
        ledger_gc_interval_s=(
            None
            if args.ledger_gc_interval is None or args.ledger_gc_interval <= 0
            else args.ledger_gc_interval
        ),
        max_streams=args.max_streams,
        stream_tick_hz=args.stream_tick_hz,
        stream_max_wait_s=args.stream_max_wait,
    )
