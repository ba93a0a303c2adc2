"""The worker pool: FIFO dispatch, crash isolation, cancellation, shutdown.

Task functions live at module level: the pool sends them by reference,
and the forked workers find them in the module they inherited.
"""

from __future__ import annotations

import asyncio
import functools
import os
import signal
import socket
import time
from pathlib import Path

import pytest

from repro.service import queries
from repro.service.pool import WorkerCrash, WorkerPool
from tests.serviceutil import running_service


def _square(x: int) -> int:
    return x * x


def _pid() -> int:
    return os.getpid()


def _fail() -> None:
    raise ValueError("task failed")


def _die() -> None:
    os._exit(137)


def _sleep_then(value: str, seconds: float) -> str:
    time.sleep(seconds)
    return value


def _fd_targets() -> dict[int, str]:
    targets = {}
    for name in os.listdir("/proc/self/fd"):
        try:
            targets[int(name)] = os.readlink(f"/proc/self/fd/{name}")
        except OSError:
            pass  # the descriptor listdir itself used
    return targets


def _with_pool(size: int, body):
    async def main():
        pool = WorkerPool(size)
        try:
            return await body(pool)
        finally:
            pool.close()

    return asyncio.run(main())


class TestWorkerPool:
    def test_results_and_exceptions_travel_back(self):
        async def body(pool):
            assert await pool.run(_square, 7) == 49
            with pytest.raises(ValueError, match="task failed"):
                await pool.run(_fail)
            assert await pool.run(_square, 3) == 9

        _with_pool(1, body)

    def test_tasks_beyond_size_queue_for_the_persistent_workers(self):
        async def body(pool):
            return await asyncio.gather(*(pool.run(_pid) for _ in range(6)))

        pids = _with_pool(2, body)
        assert len(set(pids)) == 2
        assert os.getpid() not in pids

    def test_a_crash_fails_only_its_own_task(self):
        async def body(pool):
            slow = asyncio.ensure_future(pool.run(_sleep_then, "done", 0.5))
            await asyncio.sleep(0)  # dispatched to the first worker
            with pytest.raises(WorkerCrash):
                await pool.run(_die)
            assert await slow == "done"
            assert await pool.run(_square, 5) == 25  # on a forked replacement

        _with_pool(2, body)

    def test_a_cancelled_caller_kills_its_worker(self):
        async def body(pool):
            pid = await pool.run(_pid)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(pool.run(_sleep_then, "late", 30), 0.2)
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
            started = time.monotonic()
            assert await pool.run(_pid) != pid  # a fresh worker, not a queue
            return time.monotonic() - started

        assert _with_pool(1, body) < 5

    def test_workers_ignore_sigterm(self):
        async def body(pool):
            pid = await pool.run(_pid)
            os.kill(pid, signal.SIGTERM)
            await asyncio.sleep(0.1)
            assert await pool.run(_pid) == pid

        _with_pool(1, body)

    def test_close_leaves_no_worker_and_refuses_new_tasks(self):
        async def body(pool):
            pids = set(await asyncio.gather(pool.run(_pid), pool.run(_pid)))
            pool.close()
            with pytest.raises(WorkerCrash):
                await pool.run(_pid)
            return pids

        pids = _with_pool(2, body)
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="needs Linux /proc")
    def test_workers_inherit_no_descriptor_but_stdio(self):
        """Nothing the service had open survives into a worker."""
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            listening = os.readlink(f"/proc/self/fd/{listener.fileno()}")

            async def body(pool):
                slow = asyncio.ensure_future(pool.run(_sleep_then, "done", 0.3))
                await asyncio.sleep(0)
                # The second worker is forked while the first one's pipe is open.
                inherited = await pool.run(_fd_targets)
                service = _fd_targets()
                assert await slow == "done"
                return inherited, service

            inherited, service = _with_pool(2, body)
        finally:
            listener.close()
        assert listening in service.values()
        beyond_stdio = {target for fd, target in inherited.items() if fd > 2}
        assert beyond_stdio  # its own pipe end
        assert not beyond_stdio & set(service.values())


def test_service_workers_call_the_task_function_inherited_at_fork(monkeypatch, tmp_path):
    """A wrapper installed on ``queries.execute_query_task`` before the
    service starts is what its workers run (the benchmark's tracer relies
    on this)."""
    execute = queries.execute_query_task

    @functools.wraps(execute)
    def marked(*args, **kwargs):
        (tmp_path / str(os.getpid())).touch()
        return execute(*args, **kwargs)

    monkeypatch.setattr(queries, "execute_query_task", marked)
    with running_service(workers=1, lru_size=4) as (_handle, client):
        assert client.get("/footprint?busy_device_hours=2").status == 200
    pids = [int(path.name) for path in tmp_path.iterdir()]
    assert len(pids) == 1 and pids[0] != os.getpid()
