"""Live ``/stream`` serving: per-stream state, long-polling, O(Δ) deltas.

The HTTP layer (:mod:`repro.service.http`) speaks Content-Length-framed
HTTP/1.1 only, so live delivery is *long-poll*, not chunked transfer: a
client holds ``GET /stream?...&cursor=N&wait_s=S`` open and the service
answers as soon as the feed has ticks past ``N`` (or with an empty delta
at the deadline).  Each distinct stream spec gets one
:class:`StreamJob`: the memoized tick trace, a wall-clock release gate
(``tick_hz`` ticks become visible per second), and one live
:class:`~repro.core.incremental.IncrementalAccounting` state folded to
the highest cursor served so far.

The O(Δ) contract lives here: answering the frontier cursor folds only
the new ticks into the live state.  A *lagging* cursor (a client behind
the frontier asking for an old range) cannot be served from the live
state — its accounting block must describe the stream at ``to_seq``, not
at the frontier — so it is answered by a bounded library replay and
counted (``/metrics`` -> ``streams.replays``).  Either way the payload
is rendered by :func:`repro.carbon.stream.stream_delta_payload`, and the
incremental fold is bit-equal to the replay, so the service response is
byte-identical to the direct library path for every cursor range.
"""

from __future__ import annotations

import asyncio
import time

from repro.carbon.stream import (
    load_profile,
    simulate_tick_trace,
    stream_delta_payload,
)
from repro.core.incremental import IncrementalAccounting
from repro.service import queries
from repro.service.http import Response
from repro.service.routes import error_body

#: Stream-serving defaults, shared by the CLI flags and ServiceConfig.
DEFAULT_MAX_STREAMS = 32
DEFAULT_STREAM_TICK_HZ = 64.0
DEFAULT_STREAM_MAX_WAIT_S = 10.0

#: Long-poll wakeup granularity; bounds shutdown latency of held polls.
_POLL_INTERVAL_S = 0.02


class StreamJob:
    """One live stream: tick trace, release clock, frontier accounting."""

    def __init__(self, query: "queries.StreamQuery", tick_hz: float) -> None:
        self.query = query
        self.spec = query.spec
        self.key = query.cache_key()
        self.tick_hz = float(tick_hz)
        self.ticks = simulate_tick_trace(self.spec)
        self.state = IncrementalAccounting(
            load_profile(self.spec),
            pue=self.spec.pue,
            window_hours=self.spec.window_hours,
        )
        self.folded_seq = 0
        self.started_monotonic = time.monotonic()
        self.deltas = 0

    @property
    def total_ticks(self) -> int:
        return len(self.ticks)

    def available(self, now: float | None = None) -> int:
        """Ticks released by the feed clock so far (monotone in time)."""
        if now is None:
            now = time.monotonic()
        elapsed = max(0.0, now - self.started_monotonic)
        return min(self.total_ticks, int(elapsed * self.tick_hz))

    def fold_to(self, seq: int) -> None:
        """Advance the live frontier state to ``seq`` ticks — the O(Δ) path."""
        for tick in self.ticks[self.folded_seq:seq]:
            self.state.fold(tick.hour, tick.intensity_kg_per_kwh)
        self.folded_seq = max(self.folded_seq, seq)


class StreamManager:
    """All live streams of one service instance, bounded by ``max_streams``."""

    def __init__(
        self,
        max_streams: int = DEFAULT_MAX_STREAMS,
        tick_hz: float = DEFAULT_STREAM_TICK_HZ,
        max_wait_s: float = DEFAULT_STREAM_MAX_WAIT_S,
    ) -> None:
        self.max_streams = int(max_streams)
        self.tick_hz = float(tick_hz)
        self.max_wait_s = float(max_wait_s)
        self.jobs: dict[str, StreamJob] = {}
        self.created = 0
        self.rejected = 0
        self.deltas = 0
        self.empty_deltas = 0
        self.ticks_delivered = 0
        self.long_poll_waits = 0
        self.replays = 0

    def stats(self) -> dict[str, object]:
        """The ``streams`` block of ``/metrics``."""
        return {
            "active": len(self.jobs),
            "max_streams": self.max_streams,
            "tick_hz": self.tick_hz,
            "created": self.created,
            "rejected": self.rejected,
            "deltas": self.deltas,
            "empty_deltas": self.empty_deltas,
            "ticks_delivered": self.ticks_delivered,
            "long_poll_waits": self.long_poll_waits,
            "replays": self.replays,
        }

    async def poll(
        self,
        query: "queries.StreamQuery",
        cursor: int,
        wait_s: float,
        max_ticks: int,
        draining: "asyncio.Event | None" = None,
    ) -> Response:
        """Answer one long-poll: wait for ticks past ``cursor``, render delta."""
        key = query.cache_key()
        job = self.jobs.get(key)
        if job is None:
            if len(self.jobs) >= self.max_streams:
                self.rejected += 1
                return Response(
                    429,
                    error_body(
                        "overloaded",
                        f"{len(self.jobs)} live stream(s) >= max streams "
                        f"{self.max_streams}; retry later",
                    ),
                )
            job = StreamJob(query, self.tick_hz)
            self.jobs[key] = job
            self.created += 1
        if cursor > job.total_ticks:
            return Response(
                400,
                error_body(
                    "bad-request",
                    f"cursor {cursor} past the end of the stream "
                    f"({job.total_ticks} ticks)",
                ),
            )
        now = time.monotonic()
        available = job.available(now)
        deadline = now + max(0.0, min(wait_s, self.max_wait_s))
        waited = False
        while (
            available <= cursor
            and cursor < job.total_ticks
            and now < deadline
            and (draining is None or not draining.is_set())
        ):
            waited = True
            await asyncio.sleep(min(_POLL_INTERVAL_S, deadline - now))
            now = time.monotonic()
            available = job.available(now)
        if waited:
            self.long_poll_waits += 1
        if cursor > available:
            # A cursor ahead of this replica's release clock: possible
            # after fabric failover restarted the stream's clock.  The
            # data will exist; it just is not released yet here.
            return Response(
                409,
                error_body(
                    "cursor-ahead",
                    f"cursor {cursor} ahead of the feed clock "
                    f"({available}/{job.total_ticks} ticks released); retry",
                ),
            )
        to_seq = min(available, cursor + max_ticks)
        if to_seq >= job.folded_seq:
            job.fold_to(to_seq)
            payload = stream_delta_payload(
                job.spec, cursor, to_seq, ticks=job.ticks, state=job.state
            )
        else:
            self.replays += 1
            payload = stream_delta_payload(job.spec, cursor, to_seq, ticks=job.ticks)
        queries.self_check(payload, f"stream delta for {key!r}")
        job.deltas += 1
        self.deltas += 1
        self.ticks_delivered += to_seq - cursor
        if to_seq == cursor:
            self.empty_deltas += 1
        return Response(200, queries.render_payload(payload))


__all__ = [
    "DEFAULT_MAX_STREAMS",
    "DEFAULT_STREAM_TICK_HZ",
    "DEFAULT_STREAM_MAX_WAIT_S",
    "StreamJob",
    "StreamManager",
]
