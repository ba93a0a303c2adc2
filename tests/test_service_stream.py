"""The service's live ``/stream`` surface and the periodic ledger GC.

The conformance core: every ``/stream`` response body must be
byte-identical to :func:`repro.carbon.stream.stream_delta_payload`
rendered through the canonical serializer — for the frontier cursor
(served from the live O(Δ) state), for lagging cursors (served by
bounded replay), and for the empty tail delta.  Around that sit the
long-poll/cursor semantics (200/400/409/429), the ``streams`` metrics
block, and the ``--ledger-gc-interval`` loop whose compacted journal
must replay byte-identical ledger state.
"""

import time

import pytest

from repro.carbon.stream import StreamSpec, simulate_tick_trace, stream_delta_payload
from repro.core.canonical import canonical_bytes
from repro.core.ledger import GOLDEN_EPOCH, Ledger
from repro.service.app import ServiceConfig
from repro.service.queries import render_payload

from tests.serviceutil import running_service

#: Fast feed clock: every tick of a short stream is released within
#: milliseconds, so conformance tests never sit in a long poll.
FAST = {"stream_tick_hz": 10_000.0}

SPEC = StreamSpec(hours=48, grid_seed=1, feed_seed=1)
SPEC_PATH = "/stream?hours=48&grid_seed=1&feed_seed=1"


@pytest.fixture(scope="module")
def service():
    with running_service(**FAST) as (handle, client):
        yield handle, client


def _library_bytes(from_seq: int, to_seq: int) -> bytes:
    ticks = simulate_tick_trace(SPEC)
    return render_payload(stream_delta_payload(SPEC, from_seq, to_seq, ticks=ticks))


class TestByteIdentity:
    def test_frontier_poll_is_byte_identical_to_the_library(self, service):
        _handle, client = service
        reply = client.get(f"{SPEC_PATH}&cursor=0&wait_s=5")
        assert reply.status == 200
        doc = reply.json()
        assert doc["done"] is True
        total = doc["total_ticks"]
        assert reply.body == _library_bytes(0, total)

    def test_lagging_cursor_replay_is_byte_identical(self, service):
        _handle, client = service
        client.get(f"{SPEC_PATH}&cursor=0&wait_s=5")  # drive the frontier to done
        reply = client.get(f"{SPEC_PATH}&cursor=3&wait_s=0&max_ticks=5")
        assert reply.status == 200
        assert reply.body == _library_bytes(3, 8)

    def test_tail_poll_is_an_empty_done_delta(self, service):
        _handle, client = service
        total = client.get(f"{SPEC_PATH}&cursor=0&wait_s=5").json()["total_ticks"]
        reply = client.get(f"{SPEC_PATH}&cursor={total}&wait_s=0")
        assert reply.status == 200
        doc = reply.json()
        assert doc["ticks"] == [] and doc["done"] is True
        assert reply.body == _library_bytes(total, total)

    def test_deltas_compose_across_polls(self, service):
        _handle, client = service
        total = client.get(f"{SPEC_PATH}&cursor=0&wait_s=5").json()["total_ticks"]
        collected = []
        cursor = 0
        while cursor < total:
            doc = client.get(
                f"{SPEC_PATH}&cursor={cursor}&wait_s=5&max_ticks=7"
            ).json()
            collected.extend(doc["ticks"])
            cursor = doc["to_seq"]
        whole = client.get(f"{SPEC_PATH}&cursor=0&wait_s=5").json()
        assert collected == whole["ticks"]


class TestCursorSemantics:
    def test_cursor_past_the_end_is_bad_request(self, service):
        _handle, client = service
        reply = client.get(f"{SPEC_PATH}&cursor=100000&wait_s=0")
        assert reply.status == 400
        assert reply.json()["error"]["kind"] == "bad-request"

    def test_negative_cursor_is_bad_request(self, service):
        _handle, client = service
        assert client.get(f"{SPEC_PATH}&cursor=-1").status == 400

    def test_unknown_spec_param_is_bad_request(self, service):
        _handle, client = service
        reply = client.get("/stream?hours=48&bogus=1")
        assert reply.status == 400
        assert "bogus" in reply.json()["error"]["message"]

    def test_invalid_spec_value_is_bad_request(self, service):
        _handle, client = service
        assert client.get("/stream?hours=12").status == 400
        assert client.get("/stream?hours=48&pue=0.5").status == 400

    def test_post_is_method_not_allowed(self, service):
        _handle, client = service
        assert client.post("/stream", {}).status == 405

    def test_cursor_ahead_of_the_feed_clock_is_409(self):
        # A slow feed clock: a cursor deep into the stream is valid data
        # but not yet released here (the fabric-failover case).
        with running_service(stream_tick_hz=1.0) as (_handle, client):
            reply = client.get(f"{SPEC_PATH}&cursor=40&wait_s=0")
            assert reply.status == 409
            assert reply.json()["error"]["kind"] == "cursor-ahead"

    def test_long_poll_parks_until_ticks_release(self):
        with running_service(stream_tick_hz=8.0) as (handle, client):
            client.get(f"{SPEC_PATH}&cursor=0&wait_s=0")  # create the job
            started = time.monotonic()
            reply = client.get(f"{SPEC_PATH}&cursor=4&wait_s=10")
            elapsed = time.monotonic() - started
            assert reply.status == 200
            assert reply.json()["to_seq"] > 4
            assert elapsed < 10.0
            assert handle.server.streams.long_poll_waits >= 1


class TestAdmission:
    def test_stream_cap_rejects_new_streams_with_429(self):
        with running_service(max_streams=1, **FAST) as (_handle, client):
            assert client.get(f"{SPEC_PATH}&cursor=0&wait_s=0").status == 200
            reply = client.get("/stream?hours=48&grid_seed=2&cursor=0&wait_s=0")
            assert reply.status == 429
            assert reply.json()["error"]["kind"] == "overloaded"
            # The existing stream still answers.
            assert client.get(f"{SPEC_PATH}&cursor=0&wait_s=0").status == 200

    def test_a_stream_read_to_its_end_frees_its_slot(self):
        with running_service(max_streams=1, **FAST) as (_handle, client):
            cursor, done = 0, False
            while not done:
                doc = client.get(f"{SPEC_PATH}&cursor={cursor}&wait_s=5").json()
                cursor, done = doc["to_seq"], doc["done"]
            reply = client.get("/stream?hours=48&grid_seed=2&cursor=0&wait_s=0")
            assert reply.status == 200
            block = client.get("/metrics").json()["streams"]
            assert (block["active"], block["created"], block["rejected"]) == (1, 2, 0)


class TestMetrics:
    def test_streams_block_reports_the_live_counters(self, service):
        _handle, client = service
        client.get(f"{SPEC_PATH}&cursor=0&wait_s=5")
        doc = client.get("/metrics").json()
        block = doc["streams"]
        assert block["active"] >= 1
        assert block["created"] >= 1
        assert block["deltas"] >= 1
        assert block["ticks_delivered"] >= 1
        assert block["tick_hz"] == FAST["stream_tick_hz"]

    def test_config_validation(self):
        with pytest.raises(Exception):
            ServiceConfig(max_streams=0)
        with pytest.raises(Exception):
            ServiceConfig(stream_tick_hz=0.0)
        with pytest.raises(Exception):
            ServiceConfig(ledger_gc_interval_s=-1.0)


class TestLedgerGcLoop:
    def test_compacted_journal_replays_byte_identical_state(self, tmp_path):
        ledger_dir = tmp_path / "led"
        with running_service(
            ledger_dir=str(ledger_dir), ledger_gc_interval_s=0.05
        ) as (handle, client):
            assert client.get("/experiments/fig7").status == 200
            assert client.get("/footprint?busy_device_hours=1000").status == 200
            before = canonical_bytes(
                {
                    claim: bundle.to_payload()
                    for claim, bundle in handle.server.ledger.resolve(
                        "service"
                    ).items()
                }
            )
            deadline = time.monotonic() + 10.0
            while handle.server.ledger_gc_runs < 1:
                assert time.monotonic() < deadline, "gc loop never ran"
                time.sleep(0.02)
            assert handle.server.ledger_errors == 0
            doc = client.get("/metrics").json()
            assert doc["ledger"]["gc_runs"] >= 1
            assert doc["ledger"]["gc_interval_s"] == 0.05
        # The service is gone; the compacted journal on disk must replay
        # to exactly the state the live service held — byte for byte.
        led = Ledger.open(ledger_dir)
        assert GOLDEN_EPOCH in led.epochs
        after = canonical_bytes(
            {
                claim: bundle.to_payload()
                for claim, bundle in led.resolve("service").items()
            }
        )
        assert after == before

    def test_gc_disabled_by_default(self):
        with running_service() as (handle, client):
            assert client.get("/experiments/fig7").status == 200
            assert handle.server.ledger_gc_runs == 0
            assert client.get("/metrics").json()["ledger"]["gc_interval_s"] is None
