"""Chunked sweep jobs behind the ``/sweep`` endpoints.

A stacked scenario sweep (:mod:`repro.core.sweep`) is too long for the
interactive request path, so the service runs it as a *job*: ``POST
/sweep`` submits (idempotently — one job per canonical spec), ``GET
/sweep/{id}`` polls monotone progress, and ``GET /sweep/{id}/result``
fetches the finished bytes.

Chunks are dispatched one at a time to the service's worker pool via
:func:`repro.service.queries.execute_sweep_chunk_task`, which mirrors the
interactive worker contract: fault hooks fire first, and each chunk ships
its substrate-cache counter delta back for the ``/metrics`` merge.  A
worker crash mid-sweep (:class:`~repro.service.pool.WorkerCrash`) retries
*only the chunk that died* with a bumped attempt number on a fresh worker
— completed chunks are already held in the manager, and queries running
on the other workers are unaffected, so an injected ``crash:sweep@0``
fault costs one chunk retry, not a restart.

The finished document is ``SweepOutcome.to_payload()`` rendered through
:func:`repro.service.queries.render_payload` and held by the job, so a
completed sweep's bytes are identical whether fetched from
``/sweep/{id}/result`` or produced by a direct library call.  The job is
named by :attr:`repro.service.queries.SweepQuery.sweep_id`, which is also
the fabric router's ring key for every ``/sweep`` request of the job.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core import memo
from repro.core.canonical import compact_dumps
from repro.errors import InjectedFault
from repro.service import queries
from repro.service.http import Response
from repro.service.pool import WorkerCrash
from repro.service.routes import error_body

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (app imports us)
    from repro.service.app import CarbonQueryService

__all__ = ["SweepJob", "SweepManager", "DEFAULT_MAX_SWEEPS", "MAX_CHUNK_ATTEMPTS"]

#: Default bound on concurrently *running* sweep jobs; excess gets a 429.
DEFAULT_MAX_SWEEPS = 4

#: Per-chunk retry budget (attempt numbers feed the fault grammar's
#: ``@attempts`` selector, so ``crash:sweep@0`` passes on attempt 1).
MAX_CHUNK_ATTEMPTS = 3

#: Chunk granularity of service sweeps — small enough that progress
#: polling sees movement on every service-sized sweep.
SERVICE_CHUNK_POINTS = 512


@dataclass
class SweepJob:
    """One submitted sweep: identity, progress, and (eventually) bytes."""

    sweep_id: str
    query: queries.SweepQuery
    total_points: int
    completed_points: int = 0
    status: str = "running"  # running -> done | failed
    error: str | None = None
    body: bytes | None = None
    retries: int = 0
    task: asyncio.Task | None = field(default=None, repr=False)

    def progress_payload(self) -> dict[str, object]:
        """The poll document (also the 202 submission response)."""
        payload: dict[str, object] = {
            "sweep_id": self.sweep_id,
            "status": self.status,
            "total_points": self.total_points,
            "completed_points": self.completed_points,
            "retries": self.retries,
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


class SweepManager:
    """Owns the sweep jobs of one service instance."""

    def __init__(self, service: "CarbonQueryService", max_sweeps: int) -> None:
        self._service = service
        self.max_sweeps = max_sweeps
        self.jobs: dict[str, SweepJob] = {}
        self.submitted = 0
        self.completed = 0
        self.failed = 0

    # -- submission --------------------------------------------------------

    def active_count(self) -> int:
        """Jobs currently running (admission control counts these)."""
        return sum(1 for job in self.jobs.values() if job.status == "running")

    def submit(self, query: queries.SweepQuery) -> tuple[Response, str | None]:
        """``POST /sweep``: the answer, and its cache state, for one spec.

        Submission is idempotent on the job id: re-posting a spec whose job
        is running or finished answers that job (``"hit"``) instead of
        duplicating work.  A new spec while ``max_sweeps`` jobs run gets a
        ``429``.
        """
        sweep_id = query.sweep_id
        job = self.jobs.get(sweep_id)
        cache_state = "hit"
        if job is None:
            running = self.active_count()
            if running >= self.max_sweeps:
                message = f"{running} sweep(s) running >= max sweeps {self.max_sweeps}; retry later"
                return Response(429, error_body("overloaded", message)), None
            job = self.jobs[sweep_id] = SweepJob(sweep_id, query, query.spec.total_points())
            self.submitted += 1
            job.task = asyncio.get_running_loop().create_task(self._run_job(job))
            cache_state = "miss"
        status = 202 if job.status == "running" else 200
        return Response(status, queries.render_payload(job.progress_payload())), cache_state

    def get(self, sweep_id: str) -> SweepJob | None:
        return self.jobs.get(sweep_id)

    # -- execution ---------------------------------------------------------

    async def _run_job(self, job: SweepJob) -> None:
        from repro.core.sweep import (
            SweepOutcome,
            assemble_chunks,
            chunk_bounds,
            sample_points,
        )

        spec = job.query.spec
        params_json = compact_dumps(job.query.to_params())
        pieces = []
        substrates = memo.SubstrateCollector()
        try:
            for start, stop in chunk_bounds(job.total_points, SERVICE_CHUNK_POINTS):
                outcome = await self._run_chunk(job, params_json, start, stop)
                memo.merge_stats(self._service.worker_stats, outcome["stats_delta"])
                pieces.append(tuple(np.asarray(a) for a in outcome["chunk"]))
                for qualname, digest in outcome.get("substrates", ()):
                    substrates.add(str(qualname), digest)
                job.completed_points = stop
            result = SweepOutcome(
                spec=spec, params=sample_points(spec), results=assemble_chunks(pieces)
            )
            payload = result.to_payload()
            checked = queries.self_check(payload, f"sweep {job.sweep_id}")
            body = queries.render_payload(payload)
            self._service._record_claims(
                job.query, {"payload": payload, "substrates": substrates.pairs}, checked=checked
            )
            job.body = body
            job.status = "done"
            self.completed += 1
        except asyncio.CancelledError:
            job.status = "failed"
            job.error = "cancelled during shutdown"
            raise
        except Exception as exc:  # job failures are data, not crashes
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            self.failed += 1

    async def _run_chunk(
        self, job: SweepJob, params_json: str, start: int, stop: int
    ) -> dict[str, object]:
        """One chunk with bounded retries; attempt numbers feed faults."""
        last_error: Exception | None = None
        for attempt in range(MAX_CHUNK_ATTEMPTS):
            try:
                return await self._service._dispatch(
                    queries.execute_sweep_chunk_task, params_json, start, stop, attempt
                )
            except (WorkerCrash, InjectedFault) as exc:
                # A dead worker, or inline mode's crash fault downgraded to
                # an exception: either way, retry the chunk.
                last_error = exc
            job.retries += 1
        assert last_error is not None
        raise last_error

    # -- metrics -----------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """The ``sweeps`` block of the ``/metrics`` document."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "active": self.active_count(),
            "max_sweeps": self.max_sweeps,
        }
