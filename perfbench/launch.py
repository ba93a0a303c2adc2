"""Benchmark-owned launcher of the program, with optional span recording.

    python3 perfbench/launch.py [--ready-only] [--out FILE] [--trace] -- ARGV...

Imports ``repro.experiments.runner`` (the module behind ``sustainable-ai``)
and the modules the subcommand needs, lists the experiment registry, and
for ``verify`` prints a ready line; then it runs
``repro.experiments.runner.main(ARGV)`` exactly as the console script would.

* ``--ready-only`` exits right after the ready line (set-up timing).
* ``--out FILE`` writes a JSON record at exit: import and registry-listing
  times, the substrate-memo counter deltas, for ``verify`` the wall time of
  every experiment executed and the experiments that failed or drifted from
  golden, and with ``--trace`` the spans.
* ``--trace`` wraps the entry points of each layer (HTTP read and encode,
  ``CarbonQueryService.handle``, ``parse_query``, ``Query.cache_key``, the
  response LRU, the batcher, the worker pool, ``render_payload``, ledger
  recording, the router and its hash ring, and ``verify``'s diff) before
  the program starts.  Spans stay in memory and are written at exit.  Pool
  workers are forked from the server; their execute span rides back inside
  the task's result dict.

Nothing under ``src/`` is modified: the wrappers replace attributes at run
time, inside this process only.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import itertools
import json
import os
import sys
import time

READY_LINE = "perfbench-launch ready"
#: Key under which a pool worker returns its execute span to the server.
EXECUTE_SPAN_KEY = "perfbench_execute_span"

now = time.perf_counter_ns


class Tracer:
    """In-memory spans: ``(id, parent, name, start_ns, end_ns, request_id)``.

    The current span and the request id travel in context variables, so
    asyncio tasks created while a span is open (the batcher's leader task)
    inherit it as their parent.  Forked children stop recording.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self.current = contextvars.ContextVar("perfbench_span", default=0)
        self.request = contextvars.ContextVar("perfbench_request", default=0)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.enabled = False
        self.spans = []

    def begin(self, root: bool = False) -> tuple:
        """Open a span as the current one (a new request when ``root``)."""
        sid, parent = next(self._ids), self.current.get()
        token = self.current.set(sid)
        rtoken = self.request.set(sid) if root else None
        return sid, parent, self.request.get(), token, rtoken, now()

    def end(self, name: str, opened: tuple) -> None:
        sid, parent, rid, token, rtoken, start = opened
        self.spans.append((sid, parent, name, start, now(), rid))
        if rtoken is not None:
            self.request.reset(rtoken)
        self.current.reset(token)

    def sync(self, name: str, fn, root: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            opened = tracer.begin(root)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(name, opened)

        return wrapper

    def coroutine(self, name: str, fn, root: bool = False):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            opened = tracer.begin(root)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.end(name, opened)

        return wrapper


def _patch(owner, attr: str, make) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def trace_http(tracer: Tracer) -> None:
    from repro.service import http

    traced_read = tracer.coroutine("http.read", http._read_request)

    async def read_request(reader):
        # The span starts once request bytes are buffered: the idle wait of
        # a keep-alive connection for the client's next request is not
        # parse time.
        if tracer.enabled and not getattr(reader, "_buffer", b"") and not reader.at_eof():
            wait = getattr(reader, "_wait_for_data", None)
            if wait is not None:
                try:
                    await wait("readuntil")
                except Exception:
                    pass  # the real read below raises it the program's way
        return await traced_read(reader)

    http._read_request = read_request
    _patch(http.Response, "encode", lambda fn: tracer.sync("http.encode", fn))


def trace_queries(tracer: Tracer) -> None:
    from repro.service import queries

    _patch(queries, "parse_query", lambda fn: tracer.sync("queries.parse", fn))
    _patch(queries.Query, "cache_key", lambda fn: tracer.sync("queries.key", fn))


def trace_service(tracer: Tracer) -> None:
    from repro.service import app, batching, cache, queries

    trace_http(tracer)
    trace_queries(tracer)
    service = app.CarbonQueryService
    _patch(service, "__init__", lambda fn: tracer.sync("setup.init", fn))
    _patch(service, "handle", lambda fn: tracer.coroutine("app.handle", fn, root=True))
    _patch(service, "_record_claims", lambda fn: tracer.sync("ledger.record", fn))
    _patch(queries, "render_payload", lambda fn: tracer.sync("queries.render", fn))
    _patch(cache.ResponseCache, "get", lambda fn: tracer.sync("cache.get", fn))
    _patch(cache.ResponseCache, "put", lambda fn: tracer.sync("cache.put", fn))

    execute = queries.execute_query_task

    @functools.wraps(execute)
    def execute_query_task(*args, **kwargs):
        # Runs in the pool worker (this wrapper is inherited through fork
        # and pickled by reference); the span returns in the result dict.
        start = now()
        outcome = execute(*args, **kwargs)
        outcome[EXECUTE_SPAN_KEY] = (start, now())
        return outcome

    queries.execute_query_task = execute_query_task

    run_task = service._run_task

    async def traced_run_task(self, query):
        if not tracer.enabled:
            return await run_task(self, query)
        opened = tracer.begin()
        try:
            outcome = await run_task(self, query)
        finally:
            tracer.end("pool.roundtrip", opened)
        span = outcome.pop(EXECUTE_SPAN_KEY, None)
        if span is not None:
            sid, _parent, rid = opened[:3]
            tracer.spans.append((next(tracer._ids), sid, "queries.execute", *span, rid))
        return outcome

    service._run_task = traced_run_task

    submit = batching.QueryBatcher.submit

    def traced_submit(self, key, query):
        # batching.wait runs from submit until the shared future resolves;
        # the leader task created inside submit inherits it as parent.
        if not tracer.enabled:
            return submit(self, key, query)
        sid, parent, rid, token, _rtoken, start = tracer.begin()
        try:
            future = submit(self, key, query)
        finally:
            tracer.current.reset(token)
        future.add_done_callback(
            lambda _f: tracer.spans.append((sid, parent, "batching.wait", start, now(), rid))
        )
        return future

    batching.QueryBatcher.submit = traced_submit


def trace_router(tracer: Tracer) -> None:
    from repro.service import hashring, router

    trace_http(tracer)
    trace_queries(tracer)
    cls = router.CarbonQueryRouter
    _patch(cls, "__init__", lambda fn: tracer.sync("setup.init", fn))
    _patch(cls, "handle", lambda fn: tracer.coroutine("router.handle", fn, root=True))
    _patch(cls, "routing_key", lambda fn: tracer.sync("router.key", fn))
    _patch(cls, "_exchange", lambda fn: tracer.coroutine("router.upstream", fn))
    # The ring yields lazily; the span covers materializing the whole
    # preference order, which is what the router's only caller does.
    _patch(
        hashring.HashRing,
        "iter_preference",
        lambda fn: tracer.sync("hashring.lookup", lambda self, key: iter(list(fn(self, key)))),
    )


def record_verify(record: dict, tracer: Tracer | None) -> None:
    """Time every experiment ``verify`` runs and keep the drift report."""
    from repro.experiments import golden, runner

    ops = record.setdefault("ops", [])
    execute = runner._execute

    @functools.wraps(execute)
    def timed_execute(exp_id, *args, **kwargs):
        start = now()
        ok = False
        try:
            out = execute(exp_id, *args, **kwargs)
            ok = True
            return out
        finally:
            ops.append((exp_id, start, now(), ok))

    runner._execute = timed_execute
    fold = golden.fold_failures

    @functools.wraps(fold)
    def kept_fold(*args, **kwargs):
        report = fold(*args, **kwargs)
        record["verify"] = {
            "ok": report.ok,
            "n_experiments": report.n_experiments,
            "n_metrics": report.n_metrics,
            "drifted": sorted({d.experiment_id for d in report.drifts}),
        }
        return report

    golden.fold_failures = kept_fold
    if tracer is not None:
        _patch(golden, "diff_bundles", lambda fn: tracer.sync("ledger.diff", fn))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/launch.py")
    parser.add_argument("--ready-only", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("program", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    program = args.program[1:] if args.program[:1] == ["--"] else args.program
    if not program:
        parser.error("missing program arguments")
    role = program[0]

    start = now()
    from repro.core import memo
    from repro.experiments import runner
    from repro.experiments.registry import experiment_ids

    if role == "serve":
        import repro.service.app  # noqa: F401
    elif role == "fabric":
        import repro.service.router  # noqa: F401
    imported = now()
    experiment_ids()
    listed = now()
    if role == "verify":
        print(READY_LINE, flush=True)
    if args.ready_only:
        return 0

    record: dict[str, object] = {
        "role": role,
        "import_s": (imported - start) / 1e9,
        "list_s": (listed - imported) / 1e9,
    }
    tracer = Tracer() if args.trace else None
    if role == "verify":
        record_verify(record, tracer)
    if tracer is not None and role == "serve":
        trace_service(tracer)
    elif tracer is not None and role == "fabric":
        trace_router(tracer)

    memo_before = memo.stats_snapshot()
    suite_start = now()
    try:
        status = runner.main(program)
    finally:
        record["suite"] = (suite_start, now())
        record["memo"] = memo.totals(
            memo.stats_delta(memo_before, memo.stats_snapshot())
        )
        if tracer is not None:
            record["spans"] = tracer.spans
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(record, handle, separators=(",", ":"))
    return status


if __name__ == "__main__":
    sys.exit(main())
