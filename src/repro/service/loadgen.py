"""Load/soak generator for the carbon-query service.

``python -m repro.service.loadgen --url http://127.0.0.1:8151`` drives a
deterministic, seeded mix of experiment/footprint/schedule queries from
``--clients`` concurrent keep-alive connections for ``--duration``
seconds (or a fixed ``--requests`` budget), then reports throughput,
client-side latency percentiles, an error census, and the server's own
``/metrics`` hit rates.

``--spawn`` self-starts a service subprocess on an ephemeral port (used
by the CI smoke job and the benchmark suite), and ``--fail-on-5xx`` /
``--max-p99`` turn the report into a gate: exit code 1 when the soak saw
a server error or the p99 exceeded the bound.

The generator is stdlib-only (``http.client`` + threads) so it exercises
the service through an HTTP stack it does not share.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from repro.core.canonical import canonical_bytes
from repro.service.server import spawn
from repro.telemetry.counters import LatencyReservoir

#: The default traffic mix: fast experiments plus parameterized queries,
#: weighted toward repetition so the cache/batching layers see realistic
#: (dashboard-like) traffic.  Weights are (path, repeats-in-deck).
DEFAULT_EXPERIMENTS = ("fig7", "fig8", "fig9", "text-gpudays")


def build_mix(seed: int, experiments: tuple[str, ...] = DEFAULT_EXPERIMENTS) -> list[str]:
    """A deterministic shuffled deck of request paths."""
    deck: list[str] = []
    for exp_id in experiments:
        deck.extend([f"/experiments/{exp_id}"] * 4)
    for busy in (100, 1000, 10_000, 100_000):
        deck.extend([f"/footprint?busy_device_hours={busy}"] * 3)
    deck.extend(["/footprint?busy_device_hours=5000&region=us-average"] * 2)
    for n_jobs, grid_seed in ((10, 0), (25, 1)):
        deck.append(f"/schedule/carbon-aware?n_jobs={n_jobs}&grid_seed={grid_seed}")
    random.Random(seed).shuffle(deck)
    return deck


def build_churn_mix(seed: int, distinct: int = 384) -> list[str]:
    """A cycling deck of ``distinct`` unique carbon-aware schedule queries.

    Every path normalizes to a different canonical cache key, so the deck's
    working set is exactly ``distinct`` responses, each costing a real
    scheduler run (~10-25ms) on a miss.  Sized above one node's response
    LRU, a cycling scan is the LRU's worst case (every entry is evicted
    before its revisit) — the workload the fabric exists for: consistent
    hashing splits the working set across replicas until each shard fits
    its node's LRU again and misses collapse to dict lookups.  The shuffle
    order is deterministic per seed; clients start at different offsets of
    the same cycle.
    """
    if distinct < 1:
        raise ValueError(f"distinct must be >= 1, got {distinct}")
    deck = [
        f"/schedule/carbon-aware?n_jobs={10 + index % 16}&grid_seed={index // 16}"
        for index in range(distinct)
    ]
    random.Random(seed).shuffle(deck)
    return deck


def build_stream_mix(seed: int, distinct: int = 4) -> list[str]:
    """A deck of live ``/stream`` polls across ``distinct`` stream specs.

    Each spec appears at cursor 0 (stream creation + frontier fold) and
    at a few small cursors (frontier advances and bounded replays), all
    with ``wait_s=0`` so a soak thread never parks inside a long poll.
    A sprinkle of ``/footprint`` keeps the ordinary query path (and its
    cache counters) exercised alongside the stream path.
    """
    if distinct < 1:
        raise ValueError(f"distinct must be >= 1, got {distinct}")
    deck: list[str] = []
    for index in range(distinct):
        spec = f"hours=48&grid_seed={index}&feed_seed={index % 2}"
        deck.extend([f"/stream?{spec}&cursor=0&wait_s=0"] * 3)
        for cursor in (1, 4, 16):
            deck.append(f"/stream?{spec}&cursor={cursor}&wait_s=0&max_ticks=8")
    deck.extend(["/footprint?busy_device_hours=1000"] * max(2, distinct))
    random.Random(seed).shuffle(deck)
    return deck


@dataclass
class ClientStats:
    """One worker thread's tally."""

    requests: int = 0
    by_status: dict[int, int] = field(default_factory=dict)
    transport_errors: int = 0
    latency: LatencyReservoir = field(default_factory=lambda: LatencyReservoir(65536))


@dataclass
class LoadgenReport:
    """Aggregated outcome of one load run."""

    clients: int
    duration_s: float
    requests: int
    throughput_rps: float
    by_status: dict[str, int]
    errors_5xx: int
    transport_errors: int
    latency_s: dict[str, object]
    server_metrics: dict[str, object] | None

    def to_payload(self) -> dict[str, object]:
        return {
            "clients": self.clients,
            "duration_s": self.duration_s,
            "requests": self.requests,
            "throughput_rps": self.throughput_rps,
            "by_status": self.by_status,
            "errors_5xx": self.errors_5xx,
            "transport_errors": self.transport_errors,
            "latency_s": self.latency_s,
            "server_metrics": self.server_metrics,
        }

    def render(self) -> str:
        lat = self.latency_s
        lines = [
            f"{self.requests} requests from {self.clients} client(s) "
            f"in {self.duration_s:.2f}s ({self.throughput_rps:,.1f} req/s)",
            f"  statuses: {self.by_status}  "
            f"(5xx: {self.errors_5xx}, transport errors: {self.transport_errors})",
            f"  latency: p50 {lat['p50_s'] * 1e3:.2f}ms  p90 {lat['p90_s'] * 1e3:.2f}ms  "
            f"p99 {lat['p99_s'] * 1e3:.2f}ms  max {lat['max_s'] * 1e3:.2f}ms",
        ]
        if self.server_metrics is not None:
            requests = self.server_metrics.get("requests", {})
            cache = self.server_metrics.get("response_cache", {})
            batching = self.server_metrics.get("batching", {})
            lines.append(
                f"  server: cache hit rate {cache.get('hit_rate')}  "
                f"coalesced {batching.get('coalesced', 0)}  "
                f"answered-from-cache {requests.get('answered_from_cache_rate')}"
            )
        return "\n".join(lines)


def _drive_client(
    host: str,
    port: int,
    deck: list[str],
    offset: int,
    stop_at: float,
    max_requests: int | None,
    stats: ClientStats,
    timeout: float,
) -> None:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    index = offset
    try:
        while time.monotonic() < stop_at:
            if max_requests is not None and stats.requests >= max_requests:
                break
            path = deck[index % len(deck)]
            index += 1
            started = time.perf_counter()
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                status = response.status
                if response.will_close:
                    conn.close()
            except (http.client.HTTPException, OSError):
                stats.transport_errors += 1
                conn.close()
                continue
            stats.latency.observe(time.perf_counter() - started)
            stats.requests += 1
            stats.by_status[status] = stats.by_status.get(status, 0) + 1
    finally:
        conn.close()


def run_load(
    host: str,
    port: int,
    clients: int,
    duration_s: float,
    requests_per_client: int | None = None,
    seed: int = 0,
    timeout: float = 120.0,
    fetch_server_metrics: bool = True,
    deck: list[str] | None = None,
) -> LoadgenReport:
    """Drive the mix from ``clients`` threads and aggregate the outcome."""
    if deck is None:
        deck = build_mix(seed)
    per_client = [ClientStats() for _ in range(clients)]
    stop_at = time.monotonic() + duration_s
    started = time.monotonic()
    threads = [
        threading.Thread(
            target=_drive_client,
            args=(
                host,
                port,
                deck,
                # Distinct deck offsets so clients collide on the same
                # paths *sometimes* (coalescing) but not in lockstep.
                (i * 7) % len(deck),
                stop_at,
                requests_per_client,
                per_client[i],
                timeout,
            ),
            name=f"loadgen-{i}",
        )
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started

    merged = LatencyReservoir(65536)
    by_status: dict[int, int] = {}
    total = 0
    transport_errors = 0
    for stats in per_client:
        total += stats.requests
        transport_errors += stats.transport_errors
        for status, count in stats.by_status.items():
            by_status[status] = by_status.get(status, 0) + count
        for sample in list(stats.latency._samples):
            merged.observe(sample)

    server_metrics = None
    if fetch_server_metrics:
        try:
            conn = http.client.HTTPConnection(host, port, timeout=timeout)
            conn.request("GET", "/metrics")
            server_metrics = json.loads(conn.getresponse().read())
            conn.close()
        except (http.client.HTTPException, OSError, ValueError):
            server_metrics = None

    return LoadgenReport(
        clients=clients,
        duration_s=elapsed,
        requests=total,
        throughput_rps=total / elapsed if elapsed > 0 else 0.0,
        by_status={str(k): v for k, v in sorted(by_status.items())},
        errors_5xx=sum(v for k, v in by_status.items() if 500 <= k < 600),
        transport_errors=transport_errors,
        latency_s=merged.snapshot(),
        server_metrics=server_metrics,
    )


def spawn_service(extra_args: list[str] | None = None) -> tuple[subprocess.Popen, int]:
    """Start ``python -m repro.service`` on an ephemeral port; (proc, port)."""
    return spawn("repro.service", ["--port", "0", *(extra_args or [])])


def spawn_fabric(
    replicas: int, extra_args: list[str] | None = None
) -> tuple[subprocess.Popen, int]:
    """Start a ``repro.service.router`` fabric on an ephemeral port.

    Replicas run with ``--workers 0`` (inline execution) so killing one
    mid-soak cannot orphan process-pool workers.
    """
    args = ["--port", "0", "--replicas", str(replicas), "--workers", "0"]
    return spawn("repro.service.router", [*args, *(extra_args or [])])


def _chaos_kill_replica(host: str, port: int, timeout: float = 10.0) -> None:
    """SIGKILL one healthy replica of the fabric at ``host:port``.

    Reads the router's aggregated ``/metrics`` for replica pids; used by
    ``--chaos-kill-after`` to prove the soak survives a replica death.
    """
    try:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        conn.request("GET", "/metrics")
        metrics = json.loads(conn.getresponse().read())
        conn.close()
    except (http.client.HTTPException, OSError, ValueError) as exc:
        print(f"chaos: could not fetch /metrics: {exc}", file=sys.stderr)
        return
    replicas = metrics.get("router", {}).get("replicas", [])
    for replica in replicas:
        pid = replica.get("pid")
        if replica.get("healthy") and isinstance(pid, int):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError as exc:
                print(f"chaos: kill {pid} failed: {exc}", file=sys.stderr)
                return
            print(f"chaos: SIGKILLed replica {replica.get('name')} (pid {pid})")
            return
    print("chaos: no healthy managed replica to kill", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: soak a service and gate on the report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="Load/soak-test a carbon-query service instance.",
    )
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8151",
        help="service base URL (default: %(default)s); ignored with --spawn",
    )
    parser.add_argument(
        "--spawn",
        action="store_true",
        help="start a service subprocess on an ephemeral port for the run",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="with --spawn: start an N-replica fabric router instead of a "
        "single service",
    )
    parser.add_argument(
        "--mix",
        choices=("default", "churn", "stream"),
        default="default",
        help="traffic deck: 'default' (dashboard-like repetition), 'churn' "
        "(--distinct unique schedule queries cycling through the LRU), or "
        "'stream' (live /stream polls across --distinct stream specs)",
    )
    parser.add_argument(
        "--distinct",
        type=int,
        default=384,
        metavar="K",
        help="working-set size of the churn mix (default: 384); the stream "
        "mix caps it at 16 specs to stay under the service's stream limit",
    )
    parser.add_argument(
        "--chaos-kill-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="SIGKILL one fabric replica this many seconds into the soak "
        "(requires a router target)",
    )
    parser.add_argument(
        "--clients", type=int, default=4, help="concurrent client threads (default: 4)"
    )
    parser.add_argument(
        "--duration", type=float, default=10.0, help="soak seconds (default: 10)"
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        metavar="N",
        help="stop each client after N requests (default: duration-bound only)",
    )
    parser.add_argument("--seed", type=int, default=0, help="traffic-mix shuffle seed")
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="also write the report as JSON"
    )
    parser.add_argument(
        "--fail-on-5xx",
        action="store_true",
        help="exit 1 if any request returned a 5xx status",
    )
    parser.add_argument(
        "--max-p99",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit 1 if the client-side p99 latency exceeds this bound",
    )
    args = parser.parse_args(argv)
    if args.clients < 1:
        parser.error(f"--clients must be >= 1, got {args.clients}")
    if args.duration <= 0:
        parser.error(f"--duration must be positive, got {args.duration}")
    if args.replicas is not None and not args.spawn:
        parser.error("--replicas requires --spawn")
    if args.replicas is not None and args.replicas < 1:
        parser.error(f"--replicas must be >= 1, got {args.replicas}")
    if args.distinct < 1:
        parser.error(f"--distinct must be >= 1, got {args.distinct}")

    proc: subprocess.Popen | None = None
    if args.spawn:
        if args.replicas is not None:
            proc, port = spawn_fabric(args.replicas)
        else:
            proc, port = spawn_service()
        host = "127.0.0.1"
    else:
        split = urlsplit(args.url)
        host = split.hostname or "127.0.0.1"
        port = split.port or 8151

    if args.mix == "churn":
        deck = build_churn_mix(args.seed, args.distinct)
    elif args.mix == "stream":
        deck = build_stream_mix(args.seed, min(args.distinct, 16))
    else:
        deck = build_mix(args.seed)
    chaos_timer: threading.Timer | None = None
    if args.chaos_kill_after is not None:
        chaos_timer = threading.Timer(
            args.chaos_kill_after, _chaos_kill_replica, args=(host, port)
        )
        chaos_timer.daemon = True
        chaos_timer.start()
    try:
        report = run_load(
            host,
            port,
            clients=args.clients,
            duration_s=args.duration,
            requests_per_client=args.requests,
            seed=args.seed,
            deck=deck,
        )
    finally:
        if chaos_timer is not None:
            chaos_timer.cancel()
        if proc is not None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
            if proc.stdout is not None:
                proc.stdout.close()

    print(report.render())
    if args.json:
        with open(args.json, "wb") as handle:
            handle.write(canonical_bytes(report.to_payload()))
        print(f"wrote {args.json}")

    failed = False
    if args.fail_on_5xx and (report.errors_5xx or report.transport_errors):
        print(
            f"FAIL: {report.errors_5xx} 5xx response(s), "
            f"{report.transport_errors} transport error(s)",
            file=sys.stderr,
        )
        failed = True
    p99 = report.latency_s["p99_s"]
    if args.max_p99 is not None and p99 > args.max_p99:
        print(f"FAIL: p99 {p99:.3f}s exceeds bound {args.max_p99}s", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
