"""Self-checks of the benchmark: decks, percentile math, span and counter math.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import client  # noqa: E402
import decks  # noqa: E402
import layers  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402


def _fingerprint(deck: decks.Deck) -> list[tuple[bytes, str]]:
    return [(op.request, op.key) for op in (*deck.setup, *deck.warmup, *deck.measured)]


@pytest.mark.parametrize("workload", ["query-hot", "query-cold", "fabric-sharded"])
def test_decks_are_deterministic_per_seed(workload):
    first = decks.build(workload, 7, 1)
    assert _fingerprint(first) == _fingerprint(decks.build(workload, 7, 1))
    assert _fingerprint(first) != _fingerprint(decks.build(workload, 8, 1))


def test_canonical_keys_merge_numeric_spellings():
    # 1000 and 1000.0 are one query to the program, so distinctness of cold
    # keys is checked on Query.cache_key, never on the request text.
    as_int = decks.make_op("footprint", {"busy_device_hours": 1000}, "GET")
    as_float = decks.make_op("footprint", {"busy_device_hours": 1000.0}, "POST")
    assert as_int.request != as_float.request
    assert as_int.key == as_float.key


def test_cold_keys_are_distinct_and_disjoint_from_warmup():
    deck = decks.cold_deck(3, 2)
    warm = [op.key for op in deck.warmup]
    measured = [op.key for op in deck.measured]
    assert len(set(measured)) == len(measured) == 2 * decks.COLD_KEYS_PER_SECOND
    assert len(set(warm)) == len(warm)
    assert not set(warm) & set(measured)
    assert {op.key for op in deck.setup} <= set(warm)
    assert not deck.cycle


def test_cold_serving_queries_share_a_few_demand_seeds():
    deck = decks.cold_deck(3, 2)
    seeds = {op.params["demand_seed"] for op in deck.measured
             if op.params.get("workload") == "llm-serving"}
    assert seeds == set(range(decks.SERVING_SEEDS))


def test_hot_deck_spells_each_query_two_ways():
    deck = decks.hot_deck(5)
    keys = [op.key for op in deck.measured]
    assert len(set(keys)) == 24
    assert {op.method for op in deck.measured if op.kind != "experiment"} == {"GET", "POST"}
    assert {str(op.params.get("workload", op.kind)) for op in deck.setup} == {
        "experiment", "footprint", "llm-training", "schedule",
    }


def test_fabric_deck_overflows_one_lru_but_fits_two():
    keys = {op.key for op in decks.fabric_deck(5).measured}
    assert decks.REPLICA_LRU < len(keys) <= 2 * decks.REPLICA_LRU


def test_nearest_rank_reports_samples_beyond():
    ordered = list(range(1, 101))
    assert client.nearest_rank(ordered, 50) == (50, 50)
    assert client.nearest_rank(ordered, 99) == (99, 1)
    assert client.nearest_rank(ordered, 100) == (100, 0)
    assert client.nearest_rank([4.0], 99) == (4.0, 0)
    thousand = list(range(1000))
    assert client.nearest_rank(thousand, 99) == (989, 10)
    with pytest.raises(ValueError):
        client.nearest_rank([], 50)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, 0, "app.handle", 0, 100_000, 1),
        (2, 1, "queries.parse", 10_000, 30_000, 1),
        (3, 1, "cache.get", 20_000, 40_000, 1),  # overlaps parse
        (4, 0, "pool.roundtrip", 200_000, 260_000, 4),
        (5, 4, "queries.execute", 210_000, 250_000, 4),
    ]
    metrics = layers.span_metrics([(spans, (0, 300_000))])
    assert metrics["app.handle_us"] == 100.0
    assert metrics["app.self_us"] == 70.0
    assert metrics["pool.roundtrip_us"] == 60.0
    assert metrics["pool.ipc_us"] == 20.0
    assert metrics["router.handle_us"] == 0.0
    outside = layers.span_metrics([(spans, (150_000, 300_000))])
    assert outside["app.handle_us"] == 0.0


def test_counter_deltas_and_hit_ratio_prediction():
    before = {"response_cache": {"hits": 10, "misses": 5, "evictions": 0}}
    after = {"response_cache": {"hits": 110, "misses": 5, "evictions": 0}}
    counters = layers.service_counters([(before, after), (before, after)])
    assert counters["cache.hit_ratio"] == 1.0
    assert counters["cache.lookups"] == 200
    assert run.hit_ratio_problem("query-hot", counters) is None
    assert run.hit_ratio_problem("query-cold", counters) is not None
    idle = layers.service_counters([(before, before)])
    assert run.hit_ratio_problem("query-hot", idle) is not None


@pytest.mark.parametrize("pidfds", [True, False])
def test_wait_reaps_with_resource_usage(tmp_path, monkeypatch, pidfds):
    if not pidfds:
        def no_pidfd(pid):
            raise OSError("pidfd_open is not permitted")

        monkeypatch.setattr(procs.os, "pidfd_open", no_pidfd, raising=False)
    program = procs.Program([sys.executable, "-c", "print('done')"], tmp_path / "log")
    try:
        assert program.read_line() == "done"
        assert program.wait(60) == 0
        assert program.maxrss_kib > 0
    finally:
        assert program.stop() == 0


def test_fastest_cpu_is_allowed_and_leaves_affinity_alone():
    allowed = procs.os.sched_getaffinity(0)
    assert procs.fastest_cpu(0.01) in allowed
    assert procs.os.sched_getaffinity(0) == allowed


def test_benchmark_json_matches_the_code():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.BENCHMARKED)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        layers.PER_LAYER
    )


class _Fixed(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 - http.server naming
        body = b'{"ok":true}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_closed_loop_checks_every_body():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Fixed)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        request = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"
        good = client.run_phase(port, iter([(request, b'{"ok":true}')] * 20), None)
        assert (good.attempted, good.failed, good.ok, len(good.latencies_ns)) == (20, 0, 20, 20)
        bad = client.run_phase(port, iter([(request, b"other")] * 4), None)
        assert (bad.attempted, bad.failed, bad.ok) == (4, 4, 0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
