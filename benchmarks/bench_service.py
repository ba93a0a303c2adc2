"""Service throughput/latency benchmarks (the BENCH_5 and BENCH_8 sources).

Starts a real carbon-query service (worker pool + batching + LRU) and
drives it with the deterministic loadgen mix at 1/4/16 concurrent
clients, recording throughput, client-side latency percentiles, and the
server's cache hit rates for the ``--json`` document.  A separate test
pins the headline cache claim: the warm-cache p50 of an experiment query
is at least 5x lower than its cold p50 (the LRU serves bytes; cold runs
execute the experiment).

The fabric churn benchmarks (BENCH_8) measure what consistent-hash
sharding buys on a cache-capacity-bound workload: a cycling deck of
:data:`CHURN_DISTINCT` unique schedule queries — larger than one node's
response LRU, so a single node evicts every entry before its revisit and
pays a full scheduler run per request — against a 1/2/4-replica fabric
whose per-shard working set fits each replica's LRU again.  Pass
``--replicas N`` to run one fleet size (the CI smoke uses ``2``).

Run::

    PYTHONPATH=src pytest benchmarks/bench_service.py -q --json service.json
"""

from __future__ import annotations

import http.client
import statistics
import time

import pytest

from repro.service.app import ServiceConfig, start_service
from repro.service.loadgen import build_churn_mix, run_load
from repro.service.router import RouterConfig, start_router

#: Experiments used by the warm-vs-cold measurement: a spread of cheap
#: and mid-weight executions, all far above LRU-lookup cost when cold.
COLD_WARM_EXPERIMENTS = ("fig1", "fig5", "fig9", "fig12", "text-gpudays", "text-quant")


@pytest.fixture(scope="module")
def service():
    handle = start_service(ServiceConfig(port=0, workers=2, lru_size=512))
    try:
        yield handle
    finally:
        handle.stop()


@pytest.mark.parametrize("clients", (1, 4, 16))
def test_service_load(service, record, clients):
    """Soak the default mix; zero 5xx allowed at every concurrency level."""
    report = run_load(
        service.server.config.host,
        service.port,
        clients=clients,
        duration_s=3.0,
        seed=clients,
    )
    assert report.requests > 0
    assert report.errors_5xx == 0
    assert report.transport_errors == 0
    cache = (report.server_metrics or {}).get("response_cache", {})
    requests_block = (report.server_metrics or {}).get("requests", {})
    record(
        f"service_load:clients={clients}",
        clients=clients,
        requests=report.requests,
        throughput_rps=round(report.throughput_rps, 1),
        p50_s=report.latency_s["p50_s"],
        p90_s=report.latency_s["p90_s"],
        p99_s=report.latency_s["p99_s"],
        max_s=report.latency_s["max_s"],
        errors_5xx=report.errors_5xx,
        server_cache_hit_rate=cache.get("hit_rate"),
        answered_from_cache_rate=requests_block.get("answered_from_cache_rate"),
    )
    print()
    print(report.render())


def test_warm_cache_p50_at_least_5x_faster_than_cold(record):
    """The acceptance bound: warm p50 <= cold p50 / 5, on a fresh LRU."""
    handle = start_service(ServiceConfig(port=0, workers=0, lru_size=512))
    try:
        conn = http.client.HTTPConnection(
            handle.server.config.host, handle.port, timeout=300
        )

        def timed_get(path: str) -> float:
            started = time.perf_counter()
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            return time.perf_counter() - started

        cold = [timed_get(f"/experiments/{exp_id}") for exp_id in COLD_WARM_EXPERIMENTS]
        warm = [
            timed_get(f"/experiments/{exp_id}")
            for _round in range(5)
            for exp_id in COLD_WARM_EXPERIMENTS
        ]
        conn.close()
    finally:
        handle.stop()

    cold_p50 = statistics.median(cold)
    warm_p50 = statistics.median(warm)
    record(
        "service_cache:warm_vs_cold",
        experiments=len(COLD_WARM_EXPERIMENTS),
        cold_p50_s=cold_p50,
        warm_p50_s=warm_p50,
        speedup=round(cold_p50 / warm_p50, 1) if warm_p50 else None,
    )
    print(f"\ncold p50 {cold_p50 * 1e3:.2f}ms, warm p50 {warm_p50 * 1e3:.2f}ms")
    assert warm_p50 * 5 <= cold_p50, (
        f"warm p50 {warm_p50:.6f}s not 5x below cold p50 {cold_p50:.6f}s"
    )


# ---------------------------------------------------------------------------
# Fabric churn scaling (BENCH_8)
# ---------------------------------------------------------------------------

#: Unique schedule queries in the churn deck.  Above one node's response
#: LRU (256), below the aggregate capacity of two (512) even with the
#: ring's worst-case shard imbalance.
CHURN_DISTINCT = 320

#: Replica LRU size pinned so the single-node/fabric comparison does not
#: depend on the service default drifting.
CHURN_LRU_SIZE = 256

#: Acceptance floors for aggregate warm throughput vs the single node.
#: Measured headroom is an order of magnitude above these (a miss is a
#: ~15-25ms scheduler run; a hit is a sub-ms proxied LRU lookup).
CHURN_MIN_SPEEDUP = {2: 1.6, 4: 2.5}

CHURN_SOAK_S = 5.0
CHURN_CLIENTS = 4


def _warm_deck(host: str, port: int, deck: list[str], cycles: int = 2) -> None:
    """Drive the full deck ``cycles`` times over one keep-alive connection."""
    conn = http.client.HTTPConnection(host, port, timeout=300)
    try:
        for _cycle in range(cycles):
            for path in deck:
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                assert response.status == 200, (response.status, path)
    finally:
        conn.close()


def _churn_soak(host: str, port: int, deck: list[str]):
    _warm_deck(host, port, deck)
    report = run_load(
        host, port, clients=CHURN_CLIENTS, duration_s=CHURN_SOAK_S, deck=deck
    )
    assert report.requests > 0
    assert report.errors_5xx == 0
    assert report.transport_errors == 0
    return report


@pytest.fixture(scope="module")
def churn_baseline(record):
    """Warm single-node churn throughput: the fabric comparison floor."""
    deck = build_churn_mix(0, CHURN_DISTINCT)
    handle = start_service(ServiceConfig(port=0, workers=0, lru_size=CHURN_LRU_SIZE))
    try:
        report = _churn_soak(handle.server.config.host, handle.port, deck)
    finally:
        handle.stop()
    cache = (report.server_metrics or {}).get("response_cache", {})
    record(
        "fabric_churn:single-node",
        distinct=CHURN_DISTINCT,
        lru_size=CHURN_LRU_SIZE,
        clients=CHURN_CLIENTS,
        requests=report.requests,
        throughput_rps=round(report.throughput_rps, 1),
        p50_s=report.latency_s["p50_s"],
        p99_s=report.latency_s["p99_s"],
        cache_hit_rate=cache.get("hit_rate"),
    )
    print(f"\nsingle-node churn: {report.throughput_rps:,.1f} req/s")
    return report.throughput_rps


def test_fabric_churn_scaling(record, churn_baseline, fabric_replicas):
    """Aggregate LRU capacity, not CPU count, is what the fabric scales.

    On one core a replica adds no compute; it adds 256 response slots and
    a shard that fits them.  The floors (1.6x at 2 replicas, 2.5x at 4)
    are the BENCH_8 acceptance gates; 1 replica has no floor — it prices
    the router hop on a workload the fabric cannot help.
    """
    deck = build_churn_mix(0, CHURN_DISTINCT)
    config = RouterConfig(
        port=0,
        replicas=fabric_replicas,
        replica_args=("--workers", "0", "--lru-size", str(CHURN_LRU_SIZE)),
    )
    handle = start_router(config)
    try:
        report = _churn_soak(config.host, handle.port, deck)
    finally:
        handle.stop()

    speedup = report.throughput_rps / churn_baseline
    cache = (report.server_metrics or {}).get("response_cache", {})
    record(
        f"fabric_churn:replicas={fabric_replicas}",
        replicas=fabric_replicas,
        distinct=CHURN_DISTINCT,
        lru_size=CHURN_LRU_SIZE,
        clients=CHURN_CLIENTS,
        requests=report.requests,
        throughput_rps=round(report.throughput_rps, 1),
        p50_s=report.latency_s["p50_s"],
        p99_s=report.latency_s["p99_s"],
        cache_hit_rate=cache.get("hit_rate"),
        speedup_vs_single=round(speedup, 2),
    )
    print(
        f"\nfabric x{fabric_replicas}: {report.throughput_rps:,.1f} req/s "
        f"({speedup:.2f}x single-node)"
    )
    floor = CHURN_MIN_SPEEDUP.get(fabric_replicas)
    if floor is not None:
        assert speedup >= floor, (
            f"{fabric_replicas}-replica fabric at {speedup:.2f}x "
            f"single-node throughput, below the {floor}x floor"
        )
