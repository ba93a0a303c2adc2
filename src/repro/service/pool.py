"""The worker pool: persistent forked processes, one pipe each.

The service's ``--workers K`` and the runner's ``--jobs N`` both run on it.
Workers are forked the first time a task finds no idle one, and then serve
until the pool is closed.  Each has one duplex :func:`multiprocessing.Pipe`;
the event loop watches the parent's end with one ``add_reader`` callback,
so a task costs one pickled message each way and no helper thread.  A
worker runs one task at a time, and further tasks wait in a FIFO.

Tasks name their function by reference (module and name), so a worker
calls the module attribute it inherited at fork — including any wrapper
installed before the pool started.

A worker that dies (the OOM killer, an injected ``crash`` fault) fails only
the task it was running, with :class:`WorkerCrash`; the next task that
needs a worker forks its replacement, and the other workers are untouched.
A task whose caller is cancelled (a timeout, a drain that ran out of time)
has its worker killed and replaced the same way, so the slot is free again
at once.

A forked child inherits every descriptor of the service: the listening
socket, each accepted connection and the other workers' pipe ends.  A
worker closes them all but its own pipe end and stdio, so a killed service
leaves no port open behind it, and its workers read EOF and exit.  Workers
ignore SIGINT and SIGTERM: on shutdown the service drains, then closes the
pipes, and the workers exit on EOF.
"""

from __future__ import annotations

import asyncio
import collections
import gc
import multiprocessing
import multiprocessing.util
import os
import pickle
import signal
import time
from multiprocessing.connection import Connection
from typing import Callable

__all__ = ["WorkerCrash", "WorkerPool"]

#: Workers must inherit the service's modules rather than re-import them,
#: and ``fork`` stops being the Linux default in Python 3.14.
_CONTEXT = multiprocessing.get_context("fork")

#: Seconds :meth:`WorkerPool.close` gives the workers to exit on EOF
#: before it kills the rest.
CLOSE_TIMEOUT_S = 2.0


class WorkerCrash(Exception):
    """The worker running a task died before it answered."""


def _worker_main(conn: Connection) -> None:
    """Worker body: answer ``(fn, args)`` messages until the pipe reads EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.set_wakeup_fd(-1)
    keep = conn.fileno()
    os.closerange(3, keep)
    os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
    # Inherited objects still wrap the closed descriptor numbers: keep the
    # collector from finalizing one onto a number reused since.
    gc.freeze()
    while True:
        try:
            task = conn.recv_bytes()
        except (EOFError, OSError):
            return
        try:
            fn, args = pickle.loads(task)
            reply = (True, fn(*args))
        except Exception as exc:
            reply = (False, exc)
        try:
            message = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            message = pickle.dumps((False, RuntimeError(f"unpicklable task outcome: {exc}")))
        try:
            conn.send_bytes(message)
        except OSError:
            return


class _Worker:
    """One forked worker: its process, the service's pipe end, its task."""

    def __init__(self) -> None:
        self.conn, child = _CONTEXT.Pipe()
        self.process = _CONTEXT.Process(
            target=_worker_main, args=(child,), name="carbon-query-worker"
        )
        self.process.start()
        child.close()
        self.task: asyncio.Future | None = None


def _close_pipes(workers: list[_Worker]) -> None:
    for worker in workers:
        worker.conn.close()


class WorkerPool:
    """Up to ``size`` persistent worker processes behind one task FIFO."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._workers: list[_Worker] = []
        self._queue: collections.deque[tuple[bytes, asyncio.Future]] = collections.deque()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False
        # multiprocessing joins every child at interpreter exit; a pool
        # never closed must still let its workers read EOF first.
        multiprocessing.util.Finalize(self, _close_pipes, (self._workers,), exitpriority=0)

    async def run(self, fn: Callable, *args: object) -> object:
        """``fn(*args)`` in a worker; :class:`WorkerCrash` if it dies first.

        Cancelling the caller kills the worker running its task.
        """
        if self._closed:
            raise WorkerCrash("the worker pool is closed")
        self._loop = asyncio.get_running_loop()
        future = self._loop.create_future()
        self._queue.append((pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL), future))
        self._dispatch()
        try:
            return await future
        except asyncio.CancelledError:
            worker = next((w for w in self._workers if w.task is future), None)
            if worker is not None:
                self._bury(worker)
                self._dispatch()
            raise

    def _dispatch(self) -> None:
        """Hand queued tasks to idle workers, forking up to ``size`` of them."""
        while self._queue:
            worker = next((w for w in self._workers if w.task is None), None)
            if worker is None and len(self._workers) >= self.size:
                return
            message, future = self._queue.popleft()
            if future.done():  # its caller was cancelled while it waited
                continue
            try:
                worker = worker or self._spawn()
            except OSError as exc:  # fork failed
                future.set_exception(exc)
                continue
            worker.task = future
            try:
                worker.conn.send_bytes(message)
            except OSError:
                self._bury(worker)

    def _spawn(self) -> _Worker:
        assert self._loop is not None
        worker = _Worker()
        self._workers.append(worker)
        self._loop.add_reader(worker.conn.fileno(), self._on_reply, worker)
        return worker

    def _on_reply(self, worker: _Worker) -> None:
        try:
            message = worker.conn.recv_bytes()
        except (EOFError, OSError):
            self._bury(worker)
        else:
            future, worker.task = worker.task, None
            if future is not None and not future.done():
                try:
                    ok, value = pickle.loads(message)
                except Exception as exc:
                    ok, value = False, exc
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(value)
        self._dispatch()

    def _bury(self, worker: _Worker) -> None:
        """Kill and reap a worker, and fail the one task it was running."""
        assert self._loop is not None
        self._loop.remove_reader(worker.conn.fileno())
        worker.conn.close()
        self._workers.remove(worker)
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        exitcode = worker.process.exitcode
        worker.process.close()
        if worker.task is not None and not worker.task.done():
            worker.task.set_exception(
                WorkerCrash(f"worker process died mid-task (exit code {exitcode})")
            )

    def close(self) -> None:
        """Close every pipe, wait for the workers to exit, kill the rest."""
        self._closed = True
        for _message, future in self._queue:
            future.cancel()
        self._queue.clear()
        workers = list(self._workers)
        self._workers.clear()
        for worker in workers:
            assert self._loop is not None
            self._loop.remove_reader(worker.conn.fileno())
            worker.conn.close()
            if worker.task is not None:
                worker.task.cancel()
        deadline = time.monotonic() + CLOSE_TIMEOUT_S
        for worker in workers:
            while worker.process.is_alive() and time.monotonic() < deadline:
                time.sleep(0.005)
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join()
            worker.process.close()
