"""The carbon-query service: routing, batching, backpressure, lifecycle.

``sustainable-ai serve`` (or ``python -m repro.service``) exposes the
accounting engine over JSON endpoints:

==========================  =======================================================
``GET /healthz``            liveness (``ok`` / ``draining``) + registry size
``GET /metrics``            request/latency/hit-rate counters, response-cache and
                            substrate-cache statistics
``GET /experiments``        all registered experiment ids, in registry order
``GET /experiments/{id}``   one experiment's runner JSON envelope (byte-identical
                            to ``sustainable-ai run {id} --json``'s record)
``GET|POST /footprint``     total footprint of a quantum of work under scenario
                            knobs (:class:`repro.service.queries.FootprintQuery`);
                            with ``workload=llm-training|llm-serving``, a GenAI
                            scenario (:class:`repro.service.queries.GenAIQuery`)
``GET|POST /schedule/carbon-aware``  carbon-aware vs immediate placement of a
                            synthetic job batch
``GET /stream``             long-poll one delta of a live grid-intensity stream
                            (``?cursor=N&wait_s=S`` + spec parameters; footprint
                            and schedule advice fold in O(new ticks))
``POST /sweep``             submit a stacked scenario sweep as a chunked job
                            (202 + ``sweep_id``; idempotent per canonical spec)
``GET /sweep``              list sweep jobs and their progress
``GET /sweep/{id}``         poll one job: monotone ``completed_points`` counter
``GET /sweep/{id}/result``  the finished sweep document (409 + progress while
                            running; byte-identical to the direct library call)
``GET /ledger``             claim-ledger summary (bundles, runs, epochs)
``GET /ledger/diff``        claim-by-claim diff of two refs (``?a=..&b=..``)
``GET /ledger/trace``       one headline metric's provenance, down to substrate
                            content hashes (``?experiment_id=..&metric=..``)
==========================  =======================================================

Request path: admission control (bounded in-flight count, excess gets a
structured ``429``) → response LRU (hit serves the exact bytes of the
original execution) → single-flight (identical in-flight queries share
one execution) → worker pool (``--workers`` processes; ``0`` = inline)
with a per-request timeout (``504``) — all over the same
``AccountingContext``/``HourlySeries`` engine the CLI runner uses, so a
service answer is byte-identical to the direct library call it fronts.

Worker executions ship their substrate-cache counter deltas back to the
parent (:func:`repro.service.queries.execute_query_task`), where they are
merged into the run-wide view ``/metrics`` reports — the same
stats-transport contract the experiment runner's pool uses.

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
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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
from repro.service import queries
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


def _error_body(kind: str, message: str) -> bytes:
    return queries.render_payload({"error": {"kind": kind, "message": message}})


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
        self._executor: ProcessPoolExecutor | None = None
        self._inline_executor: ThreadPoolExecutor | None = None
        self._active = 0
        self._draining = False
        self._started_monotonic = time.monotonic()
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

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
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
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

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.config.workers)
        return self._executor

    def _inline(self) -> ThreadPoolExecutor:
        # One thread, not to_thread's shared pool: experiment execution
        # seeds the global RNG, so inline queries must never overlap.
        if self._inline_executor is None:
            self._inline_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="carbon-query-inline"
            )
        return self._inline_executor

    async def _run_task(self, query: queries.Query) -> dict[str, object]:
        params_json = compact_dumps(query.to_params())
        loop = asyncio.get_running_loop()
        if self.config.workers == 0:
            return await loop.run_in_executor(
                self._inline(), queries.execute_query_task, query.kind, params_json, False
            )
        pool = self._pool()
        try:
            return await loop.run_in_executor(
                pool, queries.execute_query_task, query.kind, params_json
            )
        except BrokenProcessPool:
            # The worker died mid-request (e.g. an injected crash).  The
            # pool is unusable; tear it down so the next query gets a
            # fresh one, and surface a structured error to the caller.
            if self._executor is pool:
                pool.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            raise

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

    async def _answer_query(self, endpoint: str, query: queries.Query) -> Response:
        """Admission -> LRU -> batcher -> worker, with structured errors."""
        if self._draining:
            return Response(
                503, _error_body("draining", "service is shutting down; retry elsewhere")
            )
        if self._active >= self.config.max_queue:
            return Response(
                429,
                _error_body(
                    "overloaded",
                    f"{self._active} request(s) in flight >= max queue "
                    f"{self.config.max_queue}; retry later",
                ),
            )
        self._active += 1
        try:
            key = query.cache_key()
            cached = self.cache.get(key)
            if cached is not None:
                return Response(200, cached)
            future = self.batcher.submit(key, query)
            body = await asyncio.wait_for(
                asyncio.shield(future), self.config.request_timeout_s
            )
            return Response(200, body)
        except asyncio.TimeoutError:
            return Response(
                504,
                _error_body(
                    "timeout",
                    f"query exceeded the per-request timeout "
                    f"({self.config.request_timeout_s}s); it may complete "
                    "in the background and be served from cache on retry",
                ),
            )
        except BrokenProcessPool:
            return Response(
                500, _error_body("crash", "worker process died mid-request")
            )
        except InjectedFault as exc:
            return Response(500, _error_body("injected-fault", str(exc)))
        except InvariantViolation as exc:
            return Response(500, _error_body("invariant-violation", str(exc)))
        except QueryError as exc:
            return Response(400, _error_body("bad-request", str(exc)))
        except SustainableAIError as exc:
            return Response(400, _error_body("invalid-query", str(exc)))
        finally:
            self._active -= 1

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

    @staticmethod
    def _merge_params(request: Request) -> dict[str, object]:
        """Query-string parameters overlaid by the JSON body (POST)."""
        params: dict[str, object] = dict(request.params)
        params.update(request.json_body())
        return params

    async def handle(self, request: Request) -> Response:
        start = time.perf_counter()
        try:
            endpoint, response, cache_state = await self._route(request)
        except Exception as exc:
            # Answer every request: a dropped connection reads as a dead
            # replica to the fabric router, which would eject this node.
            # The traceback goes to the event loop's exception handler
            # (the ``asyncio`` logger).
            asyncio.get_running_loop().call_exception_handler(
                {"message": f"error answering {request.method} {request.path}", "exception": exc}
            )
            endpoint, cache_state = "(internal-error)", None
            response = Response(
                500, _error_body("internal-error", f"{type(exc).__name__}: {exc}")
            )
        elapsed = time.perf_counter() - start
        self.counters.record(endpoint, response.status, elapsed, cache_state)
        return response

    async def _route(self, request: Request) -> tuple[str, Response, str | None]:
        path, method = request.path.rstrip("/") or "/", request.method
        if path == "/healthz" and method == "GET":
            status = "draining" if self._draining else "ok"
            from repro.experiments.registry import experiment_ids

            return (
                "/healthz",
                Response(
                    200,
                    queries.render_payload(
                        {"status": status, "experiments": len(experiment_ids())}
                    ),
                ),
                None,
            )
        if path == "/metrics" and method == "GET":
            return (
                "/metrics",
                Response(200, queries.render_payload(self.metrics_payload())),
                None,
            )
        if path == "/experiments" and method == "GET":
            from repro.experiments.registry import experiment_ids

            return (
                "/experiments",
                Response(
                    200, queries.render_payload({"experiments": list(experiment_ids())})
                ),
                None,
            )
        if path.startswith("/experiments/") and method == "GET":
            experiment_id = path[len("/experiments/"):]
            try:
                query = queries.parse_query("experiment", {"experiment_id": experiment_id})
            except QueryError as exc:
                return (
                    "/experiments/{id}",
                    Response(404, _error_body("unknown-experiment", str(exc))),
                    None,
                )
            return await self._query_endpoint("/experiments/{id}", query)
        if path == "/footprint" and method in ("GET", "POST"):
            return await self._parse_and_answer("/footprint", "footprint", request)
        if path == "/schedule/carbon-aware" and method in ("GET", "POST"):
            return await self._parse_and_answer("/schedule/carbon-aware", "schedule", request)
        if path == "/stream" and method == "GET":
            return await self._stream_endpoint(request)
        if path == "/sweep" and method == "POST":
            return self._submit_sweep(request)
        if path == "/sweep" and method == "GET":
            jobs = [
                self.sweeps.jobs[sweep_id].progress_payload()
                for sweep_id in sorted(self.sweeps.jobs)
            ]
            return ("/sweep", Response(200, queries.render_payload({"sweeps": jobs})), None)
        if path.startswith("/sweep/") and method == "GET":
            return self._poll_sweep(path)
        if path == "/ledger" and method == "GET":
            return (
                "/ledger",
                Response(
                    200,
                    queries.render_payload(
                        {**self.ledger.stats(), "errors": self.ledger_errors}
                    ),
                ),
                None,
            )
        if path == "/ledger/diff" and method == "GET":
            return self._ledger_diff(request)
        if path == "/ledger/trace" and method == "GET":
            return self._ledger_trace(request)
        if path in (
            "/healthz", "/metrics", "/experiments", "/sweep", "/ledger", "/stream",
        ) or path.startswith(
            ("/experiments/", "/footprint", "/schedule", "/sweep/", "/ledger/")
        ):
            return (
                path,
                Response(405, _error_body("method-not-allowed", f"{method} {path}")),
                None,
            )
        return (
            "(unknown)",
            Response(
                404,
                _error_body(
                    "not-found",
                    f"no route for {path!r}; endpoints: /healthz, /metrics, "
                    "/experiments, /experiments/{id}, /footprint, "
                    "/schedule/carbon-aware, /stream, /sweep, /sweep/{id}, "
                    "/sweep/{id}/result, /ledger, /ledger/diff, "
                    "/ledger/trace",
                ),
            ),
            None,
        )

    def _submit_sweep(self, request: Request) -> tuple[str, Response, str | None]:
        """``POST /sweep``: parse, admit, start (or rejoin) the job."""
        if self._draining:
            return (
                "/sweep",
                Response(
                    503,
                    _error_body("draining", "service is shutting down; retry elsewhere"),
                ),
                None,
            )
        try:
            params = self._merge_params(request)
            query = queries.parse_query("sweep", params)
        except (ProtocolError, QueryError) as exc:
            return "/sweep", Response(400, _error_body("bad-request", str(exc))), None
        assert isinstance(query, queries.SweepQuery)
        from repro.service.sweeps import sweep_id_for

        if (
            self.sweeps.get(sweep_id_for(query)) is None
            and self.sweeps.active_count() >= self.config.max_sweeps
        ):
            return (
                "/sweep",
                Response(
                    429,
                    _error_body(
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
            "/sweep",
            Response(status, queries.render_payload(job.progress_payload())),
            "miss" if created else "hit",
        )

    def _poll_sweep(self, path: str) -> tuple[str, Response, str | None]:
        """``GET /sweep/{id}`` and ``GET /sweep/{id}/result``."""
        tail = path[len("/sweep/"):]
        want_result = tail.endswith("/result")
        sweep_id = tail[: -len("/result")] if want_result else tail
        endpoint = "/sweep/{id}/result" if want_result else "/sweep/{id}"
        job = self.sweeps.get(sweep_id)
        if job is None or "/" in sweep_id:
            return (
                endpoint,
                Response(
                    404,
                    _error_body(
                        "unknown-sweep",
                        f"no sweep job {sweep_id!r} (GET /sweep lists jobs)",
                    ),
                ),
                None,
            )
        if not want_result:
            return endpoint, Response(200, queries.render_payload(job.progress_payload())), None
        if job.status == "done":
            assert job.body is not None
            return endpoint, Response(200, job.body), "hit"
        if job.status == "failed":
            return (
                endpoint,
                Response(500, _error_body("sweep-failed", job.error or "sweep failed")),
                None,
            )
        return (
            endpoint,
            Response(
                409,
                queries.render_payload(
                    {
                        "error": {
                            "kind": "not-finished",
                            "message": "sweep is still running; poll /sweep/{id}",
                        },
                        **job.progress_payload(),
                    }
                ),
            ),
            None,
        )

    async def _stream_endpoint(self, request: Request) -> tuple[str, Response, str | None]:
        """``GET /stream``: long-poll one delta of a live intensity stream.

        Transport parameters (``cursor``, ``wait_s``, ``max_ticks``)
        select which delta to serve and are stripped before the stream
        spec is parsed — the spec alone is the stream's identity (and
        its fabric routing key).
        """
        endpoint = "/stream"
        if self._draining:
            return (
                endpoint,
                Response(
                    503,
                    _error_body("draining", "service is shutting down; retry elsewhere"),
                ),
                None,
            )
        try:
            query, transport = queries.parse_stream_request(self._merge_params(request))
        except (ProtocolError, QueryError) as exc:
            return endpoint, Response(400, _error_body("bad-request", str(exc))), None
        try:
            response = await self.streams.poll(query, **transport, draining=self._stop_event)
        except InvariantViolation as exc:
            return endpoint, Response(500, _error_body("invariant-violation", str(exc))), None
        except SustainableAIError as exc:
            return endpoint, Response(400, _error_body("invalid-query", str(exc))), None
        return endpoint, response, None

    def _ledger_diff(self, request: Request) -> tuple[str, Response, str | None]:
        """``GET /ledger/diff?a=REF&b=REF[&strict=..]``: claim-by-claim diff."""
        endpoint = "/ledger/diff"
        ref_a = str(request.params.get("a", "")).strip()
        ref_b = str(request.params.get("b", "")).strip()
        if not ref_a or not ref_b:
            return (
                endpoint,
                Response(
                    400,
                    _error_body(
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
            return endpoint, Response(400, _error_body("unknown-ref", str(exc))), None
        return endpoint, Response(200, queries.render_payload(doc)), None

    def _ledger_trace(self, request: Request) -> tuple[str, Response, str | None]:
        """``GET /ledger/trace?experiment_id=..&metric=..[&ref=..]``."""
        endpoint = "/ledger/trace"
        experiment_id = str(request.params.get("experiment_id", "")).strip()
        metric = str(request.params.get("metric", "")).strip()
        if not experiment_id or not metric:
            return (
                endpoint,
                Response(
                    400,
                    _error_body(
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
            return endpoint, Response(404, _error_body("unknown-claim", str(exc))), None
        return endpoint, Response(200, queries.render_payload(doc)), None

    async def _parse_and_answer(
        self, endpoint: str, kind: str, request: Request
    ) -> tuple[str, Response, str | None]:
        try:
            params = self._merge_params(request)
            if kind == "footprint" and "workload" in params:
                kind = "genai"  # a 'workload' selects the genai scenario queries
            query = queries.parse_query(kind, params)
        except (ProtocolError, QueryError) as exc:
            return endpoint, Response(400, _error_body("bad-request", str(exc))), None
        return await self._query_endpoint(endpoint, query)

    async def _query_endpoint(
        self, endpoint: str, query: queries.Query
    ) -> tuple[str, Response, str | None]:
        before_hits = self.cache.hits
        response = await self._answer_query(endpoint, query)
        if response.status != 200:
            return endpoint, response, None
        state = "hit" if self.cache.hits > before_hits else "miss"
        return endpoint, response, state


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
