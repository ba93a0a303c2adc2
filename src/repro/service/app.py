"""The carbon-query service: routing, batching, backpressure, lifecycle.

``sustainable-ai serve`` (or ``python -m repro.service``) exposes the
accounting engine over JSON endpoints: the rows of
:data:`repro.service.routes.ROUTES`, which docs/SERVICE.md lists with
what each one answers.

Request path: query memo (:class:`repro.service.routes.QueryMemo`; a
request already parsed skips parsing and keying) → admission control
(bounded in-flight count, excess gets a structured ``429``) → response
LRU (hit serves the exact bytes of the original execution) →
single-flight (identical in-flight queries share one execution) → worker
pool (:mod:`repro.service.pool`, ``--workers`` persistent processes;
``0`` = inline) with a per-request timeout (``504``) — all over the same
``AccountingContext``/``HourlySeries`` engine the CLI runner uses, so a
service answer is byte-identical to the direct library call it fronts.

Worker executions ship the substrate-cache counter increments they
caused back to the parent (:func:`repro.service.queries.execute_query_task`),
where they are merged into the run-wide view ``/metrics`` reports.

Its lifecycle (listen, drain on SIGTERM/SIGINT, ``--metrics-json``) is
the :class:`repro.service.server.Server` it shares with the fabric router.
"""

from __future__ import annotations

import asyncio
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core import ledger, memo
from repro.core.canonical import compact_dumps
from repro.errors import (
    InjectedFault,
    InvariantViolation,
    QueryError,
    ServiceError,
    SustainableAIError,
)
from repro.experiments import golden, profiling
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
from repro.service.cache import DEFAULT_LRU_SIZE, ResponseCache
from repro.service.http import ProtocolError, Request, Response
from repro.service.pool import WorkerCrash, WorkerPool
from repro.service.server import (
    Server,
    ServerConfig,
    ServerThread,
    add_server_flags,
    run_until_signalled,
    server_fields,
    start_thread,
)

#: Service defaults, shared by the CLI flags and :class:`ServiceConfig`.
DEFAULT_PORT = 8151
DEFAULT_WORKERS = 2
DEFAULT_MAX_QUEUE = 64
DEFAULT_REQUEST_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ServiceConfig(ServerConfig):
    """All knobs of one service instance."""

    port: int = DEFAULT_PORT
    workers: int = DEFAULT_WORKERS
    max_queue: int = DEFAULT_MAX_QUEUE
    request_timeout_s: float | None = DEFAULT_REQUEST_TIMEOUT_S
    lru_size: int = DEFAULT_LRU_SIZE
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
        super().__post_init__()
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


class CarbonQueryService(Server):
    """One service instance; create, then :meth:`run` on an event loop."""

    role = "service"
    config: ServiceConfig

    def __init__(self, config: ServiceConfig) -> None:
        super().__init__(config)
        self.cache = ResponseCache(config.lru_size)
        #: Fronts the LRU: as many parsed requests as it holds responses.
        self.query_memo = routes.QueryMemo(config.lru_size)
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
        # Epoch "0" is best-effort: without a baselines file (or with a
        # corrupt one) the service still serves queries.
        baselines = golden.DEFAULT_BASELINES_PATH
        if baselines.exists():
            try:
                golden.pin_golden_epoch(self.ledger, baselines)
            except Exception:
                self.ledger_errors += 1
        self.worker_stats: dict[str, dict[str, int]] = {}
        self.pool = WorkerPool(config.workers) if config.workers else None
        self._inline_executor: ThreadPoolExecutor | None = None
        self._active = 0
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

    async def _start(self) -> list:
        if self.config.ledger_gc_interval_s is None:
            return []
        return [self._ledger_gc_loop()]

    async def _drain(self) -> None:
        await self.batcher.drain(self.config.drain_timeout_s)
        for job in self.sweeps.jobs.values():
            if job.task is not None and not job.task.done():
                job.task.cancel()

    async def _close(self) -> None:
        if self.pool is not None:
            self.pool.close()
        if self._inline_executor is not None:
            self._inline_executor.shutdown(wait=False, cancel_futures=True)
            self._inline_executor = None
        self.ledger.close()

    def summary(self) -> str:
        return f"(workers={self.config.workers}, max_queue={self.config.max_queue})"

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
        checked = queries.self_check(payload, f"service response for {key!r}")
        body = queries.render_payload(payload)
        self.cache.put(key, body)
        self._record_claims(query, outcome, checked=checked)
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

    async def metrics_document(self) -> dict[str, object]:
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
            "query_memo": self.query_memo.stats(),
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
        return _document(await self.metrics_document())

    async def _experiments(self, request: Request, found: routes.Match) -> _Answer:
        from repro.experiments.registry import experiment_ids

        return _document({"experiments": list(experiment_ids())})

    async def _query(self, request: Request, found: routes.Match) -> _Answer:
        """Memo or parse -> admission -> LRU -> batcher -> worker, with structured errors.

        Answers ``/experiments/{id}``, ``/footprint`` and
        ``/schedule/carbon-aware``.
        """
        try:
            query, key = self.query_memo.parse(found, request)
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


def start_service(config: ServiceConfig) -> ServerThread:
    """Start a service on a daemon thread and wait until it is listening."""
    return start_thread(CarbonQueryService(config))


def serve(config: ServiceConfig) -> int:
    """Blocking CLI body: run until SIGTERM/SIGINT, drain, exit 0."""
    return run_until_signalled(CarbonQueryService(config))


# -- shared CLI flags --------------------------------------------------------


def add_serve_flags(parser) -> None:
    """Install the ``serve`` flags on an argparse (sub)parser."""
    add_server_flags(parser, DEFAULT_PORT)
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
        **server_fields(args),
        workers=args.workers,
        max_queue=args.max_queue,
        request_timeout_s=None if args.request_timeout <= 0 else args.request_timeout,
        lru_size=args.lru_size,
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
