"""Single-flight: identical in-flight queries share one execution.

Interactive carbon-query traffic is highly repetitive — dashboards poll
the same footprint, fleets of clients ask for the same experiment.  The
first arrival of a query key starts its execution at once; every
identical query that arrives while that execution is still in flight
attaches to the same future and receives the same response bytes, so N
concurrent duplicates cost one substrate build and one execution.

A key leaves the in-flight map only after its execution has settled,
and the service puts the rendered body in its response LRU before that
(:meth:`repro.service.app.CarbonQueryService._execute`), so a duplicate
arriving at any moment either joins the in-flight future or hits the
cache, unless the LRU has evicted the body since (see docs/SERVICE.md).
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from repro.service.queries import Query

#: An async executor of one query, returning rendered response bytes.
ExecuteFn = Callable[[str, Query], Awaitable[bytes]]


class QueryBatcher:
    """Coalesces identical queries onto one shared execution future."""

    def __init__(self, execute: ExecuteFn) -> None:
        self._execute = execute
        self._pending: dict[str, asyncio.Future] = {}
        self._tasks: set[asyncio.Task] = set()
        self.executions = 0
        self.coalesced = 0
        self.failures = 0

    @property
    def in_flight(self) -> int:
        """Number of distinct queries currently executing."""
        return len(self._pending)

    def submit(self, key: str, query: Query) -> asyncio.Future:
        """The shared future answering ``key`` (created on first arrival).

        Callers await the returned future (typically under
        ``asyncio.wait_for(asyncio.shield(fut), ...)`` so one caller's
        timeout does not cancel the execution for the rest).
        """
        fut = self._pending.get(key)
        if fut is not None:
            self.coalesced += 1
            return fut
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        # A future abandoned by every waiter (all timed out) must still
        # retrieve its exception, or the loop logs it as never-consumed.
        fut.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._pending[key] = fut
        task = loop.create_task(self._lead(key, query, fut))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return fut

    async def _lead(self, key: str, query: Query, fut: asyncio.Future) -> None:
        """First-arrival body: execute, resolve, then release the key."""
        try:
            self.executions += 1
            result = await self._execute(key, query)
        except asyncio.CancelledError:
            if not fut.done():
                fut.cancel()
            raise
        except BaseException as exc:
            self.failures += 1
            if not fut.done():
                fut.set_exception(exc)
        else:
            if not fut.done():
                fut.set_result(result)
        finally:
            self._pending.pop(key, None)

    async def drain(self, timeout: float | None = None) -> None:
        """Wait for every in-flight execution to settle (shutdown path)."""
        tasks = tuple(self._tasks)
        if not tasks:
            return
        _done, pending = await asyncio.wait(tasks, timeout=timeout)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    def stats(self) -> dict[str, object]:
        """Counter snapshot for ``/metrics``."""
        return {
            "executions": self.executions,
            "coalesced": self.coalesced,
            "failures": self.failures,
            "in_flight": self.in_flight,
        }
