"""Concurrency and failure-path tests for the carbon-query service.

Exercises the operational half of the service contract: duplicate
in-flight queries coalesce onto one execution, the bounded queue sheds
load with structured 429s, per-request timeouts yield structured 504s,
injected worker crashes (via :mod:`repro.testing.faults`, the same env
grammar the experiment runner hardens against) surface as structured
500s for the crashed worker's own request only, SIGTERM drains in-flight
requests before the process exits, a stopped server may be stopped again,
a SIGKILLed server leaves no worker, port or connection behind, a payload
breaking a result invariant is refused while the runtime self-checks are
on, a fabric starts even when its replicas write to stderr before their
banner, and the module entry points are the runner's ``serve`` and
``fabric`` commands.
"""

from __future__ import annotations

import argparse
import asyncio
import concurrent.futures
import contextlib
import http.client
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import parse_qsl

import pytest

from repro.core.ledger import Ledger
from repro.core.series import CHECK_ENV_VAR
from repro.errors import ServiceError
from repro.service import queries
from repro.service.app import ServiceConfig, add_serve_flags, config_from_args, start_service
from repro.service.queries import parse_query, render_payload
from repro.service.loadgen import build_mix
from repro.service.router import RouterConfig, start_router
from repro.service.server import spawn
from repro.testing import faults, invariants
from tests.serviceutil import ServiceClient, group_members, running_service


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": -1},
            {"max_queue": 0},
            {"request_timeout_s": 0.0},
            {"lru_size": -1},
            {"drain_timeout_s": -1.0},
            {"max_sweeps": 0},
            {"request_timeout_s": math.nan},
            {"drain_timeout_s": math.nan},
            {"ledger_gc_interval_s": math.nan},
            {"stream_tick_hz": math.nan},
            {"stream_tick_hz": math.inf},
            {"stream_max_wait_s": math.nan},
        ],
    )
    def test_bad_knobs_rejected(self, overrides):
        with pytest.raises(ServiceError):
            ServiceConfig(**overrides)

    def test_nan_request_timeout_flag_is_rejected(self):
        """``--request-timeout nan`` is an error, not "no timeout"."""
        parser = argparse.ArgumentParser()
        add_serve_flags(parser)
        disabled = config_from_args(parser.parse_args(["--request-timeout", "0"]))
        assert disabled.request_timeout_s is None
        with pytest.raises(ServiceError, match="request timeout"):
            config_from_args(parser.parse_args(["--request-timeout", "nan"]))


def _get_all(host: str, port: int, paths: list[str]) -> list[tuple[int, bytes]]:
    """Replay ``paths`` in order on one keep-alive connection."""
    client = ServiceClient(host, port)
    try:
        return [(reply.status, reply.body) for reply in map(client.get, paths)]
    finally:
        client.close()


def _wait_in_flight(client: ServiceClient, executions: int, deadline_s: float = 30.0) -> None:
    """Poll ``/metrics`` until ``executions`` queries are executing."""
    deadline = time.monotonic() + deadline_s
    while client.get("/metrics").json()["batching"]["in_flight"] < executions:
        assert time.monotonic() < deadline, "query never started executing"
        time.sleep(0.02)


def _cache_key(path: str) -> str:
    """The canonical cache key the service derives for a loadgen path."""
    route, _, query_string = path.partition("?")
    if route.startswith("/experiments/"):
        kind, params = "experiment", {"experiment_id": route[len("/experiments/"):]}
    else:
        kind, params = route.strip("/").split("/")[0], dict(parse_qsl(query_string))
    return parse_query(kind, params).cache_key()


class TestBatching:
    def test_duplicate_queries_coalesce_to_one_execution(self, monkeypatch):
        """8 concurrent identical schedule queries -> 1 substrate build.

        An injected 0.5 s delay holds the one execution in flight while
        the other seven arrive and join it.
        """
        path = "/schedule/carbon-aware?n_jobs=12&grid_seed=424242"
        expected = render_payload(
            parse_query("schedule", {"n_jobs": 12, "grid_seed": 424242}).execute()
        )
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "timeout:schedule:0.5")
        with running_service(workers=0, lru_size=16) as (handle, client0):
            host, port = client0.host, client0.port
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                replies = [
                    f.result(timeout=120)
                    for f in [pool.submit(_get_all, host, port, [path]) for _ in range(8)]
                ]
            assert replies == [[(200, expected)]] * 8

            metrics = client0.get("/metrics").json()
            batching = metrics["batching"]
            assert batching["executions"] == 1
            assert batching["coalesced"] == 7
            # One execution -> exactly one substrate-cache access for the
            # grid trace (a hit here: computing `expected` above already
            # warmed the in-process cache this inline service shares).
            totals = metrics["substrate_cache"]["totals"]
            assert totals["hits"] + totals["misses"] == 1
            assert metrics["requests"]["by_status"]["200"] >= 8

    def test_loadgen_mix_executes_each_key_exactly_once(self):
        """16 clients replaying the default mix: one execution per key.

        Every duplicate either joins the in-flight execution or hits the
        response LRU, which holds the whole mix.
        """
        decks = [build_mix(seed) for seed in range(16)]
        distinct = {_cache_key(path) for path in decks[0]}
        assert len(distinct) == 11
        with running_service(workers=2, lru_size=256) as (_handle, client0):
            host, port = client0.host, client0.port
            with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
                replies = [
                    f.result(timeout=300)
                    for f in [pool.submit(_get_all, host, port, deck) for deck in decks]
                ]
            assert {status for deck in replies for status, _body in deck} == {200}
            batching = client0.get("/metrics").json()["batching"]
        assert batching["executions"] == len(distinct)
        assert batching["failures"] == batching["in_flight"] == 0

    def test_cache_holds_the_body_before_the_shared_future_settles(self):
        """The ordering single-flight relies on: by the time the shared
        future's callbacks run, the key has left the in-flight map and
        the response LRU already holds its body."""
        query = parse_query("footprint", {"busy_device_hours": 11})
        key = query.cache_key()
        with running_service(workers=0, lru_size=4) as (handle, _client):
            service = handle.server
            seen = []

            async def submit_and_wait() -> bytes:
                future = service.batcher.submit(key, query)
                future.add_done_callback(
                    lambda _f: seen.append((service.cache.get(key), service.batcher.in_flight))
                )
                return await future

            body = asyncio.run_coroutine_threadsafe(
                submit_and_wait(), service._loop
            ).result(timeout=120)
        assert seen == [(body, 0)]
        assert body == render_payload(query.execute())

    def test_distinct_queries_are_not_delayed_into_one(self):
        with running_service(workers=0, lru_size=16) as (
            _handle,
            client,
        ):
            first = client.get("/footprint?busy_device_hours=1")
            second = client.get("/footprint?busy_device_hours=2")
            assert first.status == second.status == 200
            assert first.body != second.body
            metrics = client.get("/metrics").json()
            assert metrics["batching"]["executions"] == 2
            assert metrics["batching"]["coalesced"] == 0


class TestBackpressure:
    def test_overload_returns_structured_429(self, monkeypatch):
        """Queue bound 2 + slow executions -> excess requests shed as 429."""
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "timeout:schedule:0.6")
        with running_service(workers=0, max_queue=2, lru_size=16) as (
            handle,
            client0,
        ):
            host, port = client0.host, client0.port

            def one_request(index: int) -> tuple[int, dict]:
                client = ServiceClient(host, port)
                try:
                    reply = client.get(
                        f"/schedule/carbon-aware?n_jobs=5&seed={index}"
                    )
                    return reply.status, reply.json()
                finally:
                    client.close()

            with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
                outcomes = [
                    f.result(timeout=120)
                    for f in [pool.submit(one_request, i) for i in range(6)]
                ]
            statuses = sorted(status for status, _body in outcomes)
            assert 429 in statuses, statuses
            assert 200 in statuses, statuses
            for status, body in outcomes:
                if status == 429:
                    assert body["error"]["kind"] == "overloaded"
                    assert "max queue" in body["error"]["message"]
            metrics = client0.get("/metrics").json()
            assert metrics["requests"]["rejected_429"] == statuses.count(429)

    def test_healthz_and_metrics_bypass_admission(self, monkeypatch):
        """Diagnostics stay reachable even when the query queue is full."""
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "timeout:footprint:0.8")
        with running_service(workers=0, max_queue=1, lru_size=4) as (handle, client0):
            host, port = client0.host, client0.port
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                blocked = pool.submit(
                    lambda: ServiceClient(host, port).get("/footprint?busy_device_hours=3")
                )
                time.sleep(0.2)  # let the slow query occupy the queue
                assert client0.get("/healthz").status == 200
                assert client0.get("/metrics").status == 200
                assert blocked.result(timeout=120).status == 200


class TestTimeouts:
    def test_slow_query_yields_structured_504(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "timeout:footprint:5.0")
        with running_service(
            workers=0, request_timeout_s=0.15, lru_size=4
        ) as (_handle, client):
            reply = client.get("/footprint?busy_device_hours=9")
            assert reply.status == 504
            error = reply.json()["error"]
            assert error["kind"] == "timeout"
            assert "0.15" in error["message"]
            metrics = client.get("/metrics").json()
            assert metrics["requests"]["timeouts_504"] == 1


class TestWorkerCrash:
    def test_injected_crash_returns_500_and_pool_recovers(self, monkeypatch):
        """A hard worker death mid-request is a structured 500, not a hang.

        The crash fault hard-exits the pool worker, mirroring the runner's
        fault-injection harness; the service forks a replacement so the
        next query works.
        """
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "crash:footprint@0")
        with running_service(workers=1, lru_size=4) as (handle, client):
            reply = client.get("/footprint?busy_device_hours=4")
            assert reply.status == 500
            assert reply.json()["error"]["kind"] == "crash"
            # Pool is rebuilt; a different target is unaffected by the fault.
            ok = client.get("/schedule/carbon-aware?n_jobs=5")
            assert ok.status == 200
            metrics = client.get("/metrics").json()
            assert metrics["requests"]["server_errors_5xx"] == 1

    def test_crash_fails_only_its_own_request(self, monkeypatch):
        """A worker that dies fails its own request, never a neighbour's.

        The schedule query sleeps inside one worker while ``fig8`` kills
        the other; the schedule still answers with the library's bytes.
        """
        schedule = {"n_jobs": 6, "grid_seed": 515151}
        expected = render_payload(parse_query("schedule", schedule).execute())
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "crash:fig8;timeout:schedule:1.0")
        with running_service(workers=2, lru_size=16) as (_handle, client):
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                in_flight = pool.submit(
                    _get_all,
                    client.host,
                    client.port,
                    ["/schedule/carbon-aware?n_jobs=6&grid_seed=515151"],
                )
                _wait_in_flight(client, 1)
                crashed = client.get("/experiments/fig8")
                assert in_flight.result(timeout=120) == [(200, expected)]
            assert crashed.status == 500
            assert crashed.json()["error"]["kind"] == "crash"
            assert client.get("/footprint?busy_device_hours=4").status == 200
            metrics = client.get("/metrics").json()
            assert metrics["requests"]["server_errors_5xx"] == 1

    def test_injected_raise_inline_returns_500(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "raise:schedule")
        with running_service(workers=0, lru_size=4) as (_handle, client):
            reply = client.get("/schedule/carbon-aware?n_jobs=5")
            assert reply.status == 500
            assert reply.json()["error"]["kind"] == "injected-fault"


class TestBadRequests:
    @pytest.mark.parametrize(
        "path, status, kind",
        [
            ("/experiments/not-a-real-experiment", 404, "unknown-experiment"),
            ("/footprint", 400, "bad-request"),  # missing busy_device_hours
            ("/footprint?busy_device_hours=-5", 400, "bad-request"),
            ("/footprint?busy_device_hours=nan", 400, "bad-request"),
            ("/footprint?busy_device_hours=1&bogus=2", 400, "bad-request"),
            ("/footprint?busy_device_hours=1&region=atlantis", 400, "bad-request"),
            ("/schedule/carbon-aware?n_jobs=0", 400, "bad-request"),
            ("/schedule/carbon-aware?horizon_hours=3", 400, "bad-request"),
            ("/schedule/carbon-aware?seed=-1", 400, "bad-request"),
            ("/schedule/carbon-aware?grid_seed=-1", 400, "bad-request"),
            ("/nope", 404, "not-found"),
        ],
    )
    def test_structured_error_bodies(self, path, status, kind):
        with running_service(workers=0, lru_size=4) as (_handle, client):
            reply = client.get(path)
            assert reply.status == status
            assert reply.json()["error"]["kind"] == kind

    def test_post_with_invalid_json_body_is_400(self):
        with running_service(workers=0, lru_size=4) as (_handle, client):
            conn = client._connection()
            conn.request(
                "POST",
                "/footprint",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"]["kind"] == "bad-request"
            client.close()

    def test_method_not_allowed(self):
        with running_service(workers=0, lru_size=4) as (_handle, client):
            conn = client._connection()
            conn.request("DELETE", "/footprint")
            response = conn.getresponse()
            assert response.status == 405
            assert json.loads(response.read())["error"]["kind"] == "method-not-allowed"
            client.close()


def _boom(_query):
    raise RuntimeError("boom")


@contextlib.contextmanager
def _two_replica_fabric():
    """A router over two in-process replicas; yields (client, router handle)."""
    with contextlib.ExitStack() as stack:
        backends = []
        for _ in range(2):
            handle, _client = stack.enter_context(running_service(workers=0, lru_size=16))
            backends.append(f"http://{handle.server.config.host}:{handle.port}")
        config = RouterConfig(port=0, replicas=0, backends=tuple(backends))
        router = start_router(config)
        stack.callback(router.stop)
        client = ServiceClient(config.host, router.port)
        stack.callback(client.close)
        yield client, router


def _ejections(router) -> list[int]:
    return [r.ejections for r in router.server.replicas.values()]


class TestInternalErrors:
    """A handler exception no route maps is still answered, never dropped."""

    def test_unexpected_exception_is_a_structured_500(self, monkeypatch):
        monkeypatch.setattr(queries.FootprintQuery, "execute", _boom)
        with running_service(workers=0, lru_size=4) as (_handle, client):
            reply = client.get("/footprint?busy_device_hours=3")
            assert reply.status == 500
            assert reply.json() == {
                "error": {"kind": "internal-error", "message": "RuntimeError: boom"}
            }
            assert client.get("/schedule/carbon-aware?n_jobs=5").status == 200
            metrics = client.get("/metrics").json()
            assert metrics["requests"]["server_errors_5xx"] == 1

    def test_fabric_keeps_its_replicas_through_a_500(self, monkeypatch):
        monkeypatch.setattr(queries.FootprintQuery, "execute", _boom)
        with _two_replica_fabric() as (client, router):
            reply = client.get("/footprint?busy_device_hours=3")
            assert reply.status == 500
            assert reply.json()["error"]["kind"] == "internal-error"
            assert _ejections(router) == [0, 0]
            assert client.get("/schedule/carbon-aware?n_jobs=5").status == 200

    def test_fabric_answers_a_negative_seed_with_400(self):
        """A seed numpy cannot take is the parser's 400, not a worker crash."""
        with _two_replica_fabric() as (client, router):
            reply = client.get("/schedule/carbon-aware?seed=-1")
            assert reply.status == 400
            assert reply.json()["error"]["kind"] == "bad-request"
            assert _ejections(router) == [0, 0]


class TestGracefulDrain:
    @pytest.mark.slow
    def test_sigterm_drains_in_flight_request(self, tmp_path):
        """SIGTERM mid-request: the response still arrives, exit code is 0."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        env[faults.FAULTS_ENV_VAR] = "timeout:footprint:1.0"
        env["SUSTAINABLE_AI_CACHE_DIR"] = "off"
        metrics_path = tmp_path / "final_metrics.json"
        proc, port = spawn(
            "repro.service",
            ["--port", "0", "--workers", "0", "--drain-timeout", "10",
             "--metrics-json", str(metrics_path)],
            env=env,
        )
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                in_flight = pool.submit(
                    lambda: ServiceClient("127.0.0.1", port).get(
                        "/footprint?busy_device_hours=6"
                    )
                )
                time.sleep(0.3)  # request is now sleeping inside the fault
                proc.send_signal(signal.SIGTERM)
                reply = in_flight.result(timeout=60)
            assert reply.status == 200
            assert b"total_kg" in reply.body
            assert proc.wait(timeout=60) == 0
            # The shutdown path exported its final counters.
            final = json.loads(metrics_path.read_text())
            assert final["requests"]["by_status"]["200"] >= 1
            assert final["service"]["draining"] is True
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()

    def test_in_process_drain_rejects_new_work(self):
        """After shutdown is requested, late queries get a structured 503."""
        with running_service(workers=0, lru_size=4) as (handle, client):
            assert client.get("/healthz").json()["status"] == "ok"
        # handle.stop() already joined the thread; a second stop is a no-op
        # because the loop has exited cleanly.
        assert not handle.thread.is_alive()

    def test_a_stopped_server_may_be_stopped_again(self):
        handle = start_service(ServiceConfig(port=0, workers=0))
        handle.stop()
        handle.stop()
        assert not handle.thread.is_alive()


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs Linux /proc")
class TestKilledServer:
    def test_sigkill_leaves_no_worker_port_or_connection(self):
        """A SIGKILLed server takes its workers, port and connections along.

        Forked workers inherit the listening socket and every accepted
        connection; unless they close them, the port keeps accepting and
        an open connection never reads EOF after the server dies.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        env["SUSTAINABLE_AI_CACHE_DIR"] = "off"
        proc, port = spawn(
            "repro.service", ["--port", "0", "--workers", "2"], env=env, start_new_session=True
        )
        client = None
        try:
            client = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            client.request("GET", "/footprint?busy_device_hours=5")
            reply = client.getresponse()
            assert reply.status == 200 and reply.read()
            conn = client.sock  # kept alive for the next request
            assert len(group_members(proc.pid)) >= 2  # the server and a worker

            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 2.0
            while group_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert group_members(proc.pid) == []
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", port), timeout=2).close()
            conn.settimeout(2)
            try:
                conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                assert conn.recv(65536) == b""
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            if client is not None:
                client.close()
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            proc.stdout.close()


def _wait_sweep(client, sweep_id, deadline_s=60.0):
    """Poll a sweep to completion, returning every observed progress doc."""
    observed = []
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        poll = client.get(f"/sweep/{sweep_id}")
        assert poll.status == 200
        doc = poll.json()
        observed.append(doc)
        if doc["status"] != "running":
            return observed
        time.sleep(0.02)
    raise AssertionError("sweep did not finish within the deadline")


SOBOL_SWEEP = {
    "busy_device_hours": 1000.0,
    "ranges": [{"name": "utilization", "lo": 0.3, "hi": 0.8, "points": 1}],
    "sampling": "sobol",
    "n_points": 1024,  # 2 chunks at the service granularity of 512
    "seed": 7,
}


class TestSweepRobustness:
    def test_progress_is_monotone_while_chunks_crawl(self, monkeypatch):
        """Injected per-chunk delay -> polls observe only forward progress."""
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "timeout:sweep:0.2")
        with running_service(workers=0, lru_size=16) as (_handle, client):
            sweep_id = client.post("/sweep", dict(SOBOL_SWEEP)).json()["sweep_id"]
            observed = _wait_sweep(client, sweep_id)
            counts = [doc["completed_points"] for doc in observed]
            assert counts == sorted(counts)
            assert observed[-1]["status"] == "done"
            assert observed[-1]["completed_points"] == 1024

    def test_result_while_running_is_409_with_progress(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "timeout:sweep:0.5")
        with running_service(workers=0, lru_size=16) as (_handle, client):
            sweep_id = client.post("/sweep", dict(SOBOL_SWEEP)).json()["sweep_id"]
            early = client.get(f"/sweep/{sweep_id}/result")
            assert early.status == 409
            doc = early.json()
            assert doc["error"]["kind"] == "not-finished"
            assert doc["total_points"] == 1024
            _wait_sweep(client, sweep_id)
            assert client.get(f"/sweep/{sweep_id}/result").status == 200

    def test_worker_crash_mid_sweep_resumes_from_failed_chunk(self, monkeypatch):
        """``crash:sweep@0`` kills attempt 0 of every chunk; the manager
        retries only the dead chunk on a fresh worker, and the final
        bytes still equal the direct library call."""
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "crash:sweep@0")
        with running_service(workers=1, lru_size=16) as (_handle, client):
            sweep_id = client.post("/sweep", dict(SOBOL_SWEEP)).json()["sweep_id"]
            final = _wait_sweep(client, sweep_id)[-1]
            assert final["status"] == "done"
            assert final["retries"] >= 2  # both chunks crashed once
            result = client.get(f"/sweep/{sweep_id}/result")
            assert result.status == 200
        monkeypatch.delenv(faults.FAULTS_ENV_VAR)
        expected = render_payload(parse_query("sweep", dict(SOBOL_SWEEP)).execute())
        assert result.body == expected

    def test_sweep_crash_spares_an_in_flight_query(self, monkeypatch):
        """A chunk's worker dying retries the chunk and fails nothing else."""
        expected = render_payload(parse_query("footprint", {"busy_device_hours": 11}).execute())
        expected_sweep = render_payload(parse_query("sweep", dict(SOBOL_SWEEP)).execute())
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "crash:sweep@0;timeout:footprint:1.0")
        with running_service(workers=2, lru_size=16) as (_handle, client):
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                in_flight = pool.submit(
                    _get_all, client.host, client.port, ["/footprint?busy_device_hours=11"]
                )
                _wait_in_flight(client, 1)
                sweep_id = client.post("/sweep", dict(SOBOL_SWEEP)).json()["sweep_id"]
                assert in_flight.result(timeout=120) == [(200, expected)]
            final = _wait_sweep(client, sweep_id)[-1]
            assert final["status"] == "done"
            assert final["retries"] >= 2  # both chunks crashed once
            result = client.get(f"/sweep/{sweep_id}/result")
        assert result.status == 200
        assert result.body == expected_sweep

    def test_inline_crash_downgrades_and_still_resumes(self, monkeypatch):
        """Inline mode turns the crash into an exception; same retry path."""
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "crash:sweep@0")
        with running_service(workers=0, lru_size=16) as (_handle, client):
            sweep_id = client.post("/sweep", dict(SOBOL_SWEEP)).json()["sweep_id"]
            final = _wait_sweep(client, sweep_id)[-1]
            assert final["status"] == "done"
            assert final["retries"] >= 2

    def test_unrecoverable_fault_fails_the_job_structurally(self, monkeypatch):
        """A fault injected on every attempt exhausts the retry budget."""
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "raise:sweep")
        with running_service(workers=0, lru_size=16) as (_handle, client):
            sweep_id = client.post("/sweep", dict(SOBOL_SWEEP)).json()["sweep_id"]
            final = _wait_sweep(client, sweep_id)[-1]
            assert final["status"] == "failed"
            assert "InjectedFault" in final["error"]
            reply = client.get(f"/sweep/{sweep_id}/result")
            assert reply.status == 500
            assert reply.json()["error"]["kind"] == "sweep-failed"

    def test_a_finished_sweep_evicts_nothing_from_the_response_lru(self):
        """No route reads a sweep from the LRU, so a job writes nothing there:
        a one-entry LRU still holds the footprint it held before the sweep."""
        with running_service(workers=0, lru_size=1) as (_handle, client):
            assert client.get("/footprint?busy_device_hours=10").status == 200
            sweep_id = client.post("/sweep", dict(SOBOL_SWEEP, n_points=64)).json()["sweep_id"]
            assert _wait_sweep(client, sweep_id)[-1]["status"] == "done"
            assert client.get("/footprint?busy_device_hours=10").status == 200
            cache = client.get("/metrics").json()["response_cache"]
        assert (cache["hits"], cache["evictions"]) == (1, 0)

    def test_sweep_admission_sheds_excess_with_429(self, monkeypatch):
        """max_sweeps=1 + a slow job -> a second spec is shed, rejoining
        the running spec is not."""
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "timeout:sweep:1.0")
        with running_service(workers=0, lru_size=16, max_sweeps=1) as (
            handle,
            client,
        ):
            first = client.post("/sweep", dict(SOBOL_SWEEP))
            assert first.status == 202
            other = dict(SOBOL_SWEEP, seed=99)
            shed = client.post("/sweep", other)
            assert shed.status == 429
            assert shed.json()["error"]["kind"] == "overloaded"
            rejoin = client.post("/sweep", dict(SOBOL_SWEEP))
            assert rejoin.status == 202
            assert rejoin.json()["sweep_id"] == first.json()["sweep_id"]
            metrics = client.get("/metrics").json()
            assert metrics["sweeps"]["active"] == 1
            _wait_sweep(client, first.json()["sweep_id"])

    def test_method_not_allowed_on_sweep_routes(self):
        with running_service(workers=0, lru_size=4) as (_handle, client):
            assert client.post("/sweep/abc", {}).status == 405


def _violates(result):
    return [invariants.Violation(result.experiment_id, "nonnegative-carbon", "total_kg")]


class TestInvariantRefusals:
    """With the runtime self-checks on, a payload breaking an invariant is refused."""

    def test_footprint_stream_and_sweep_refuse_a_violating_payload(self, monkeypatch):
        monkeypatch.setenv(CHECK_ENV_VAR, "1")
        monkeypatch.setattr(invariants, "check_result", _violates)
        detail = "violates result invariants: nonnegative-carbon(total_kg)"
        with running_service(workers=0, lru_size=4) as (_handle, client):
            for path, subject in (
                ("/footprint?busy_device_hours=7", "service response for '"),
                ("/stream?hours=48&cursor=0&wait_s=0", "stream delta for '"),
            ):
                reply = client.get(path)
                assert reply.status == 500
                error = reply.json()["error"]
                assert error["kind"] == "invariant-violation"
                assert error["message"].startswith(subject) and error["message"].endswith(detail)
            sweep_id = client.post("/sweep", dict(SOBOL_SWEEP)).json()["sweep_id"]
            final = _wait_sweep(client, sweep_id)[-1]
        assert final["status"] == "failed"
        assert final["error"] == f"InvariantViolation: sweep {sweep_id} {detail}"


class TestLaunch:
    def test_a_replica_writing_to_stderr_before_its_banner_starts(self, monkeypatch):
        """Import-time reports on a replica's stderr are not read as its banner."""
        monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
        config = RouterConfig(port=0, replicas=1, replica_args=("--workers", "0"))
        with start_router(config) as router:
            client = ServiceClient(config.host, router.port)
            reply = client.get("/healthz")
            client.close()
        assert reply.status == 200
        assert reply.json()["replicas"] == {"healthy": 1, "total": 1}

    @pytest.mark.parametrize(
        "module, argv, message",
        [
            ("repro.service", ["--workers", "-1"], "error: workers must be >= 0"),
            (
                "repro.service.router",
                ["--proxy-timeout", "nan"],
                "error: proxy timeout must be positive",
            ),
        ],
    )
    def test_a_module_entry_point_refuses_a_bad_flag_like_the_runner(
        self, module, argv, message
    ):
        done = subprocess.run(
            [sys.executable, "-m", module, *argv],
            env=_module_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr.startswith(message), done.stderr

    def test_the_service_module_takes_the_cache_flags(self, tmp_path):
        proc, _port = spawn(
            "repro.service",
            ["--port", "0", "--workers", "0", "--cache-dir", str(tmp_path)],
            env=_module_env(),
        )
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        proc.stdout.close()

    def test_fabric_cache_dir_reaches_its_replicas(self, tmp_path):
        cache = tmp_path / "cache"
        proc, port = spawn(
            "repro.service.router",
            ["--port", "0", "--replicas", "1", "--workers", "0", "--cache-dir", str(cache)],
            env=_module_env(SUSTAINABLE_AI_CACHE_DIR="off"),
        )
        try:
            client = ServiceClient("127.0.0.1", port)
            assert client.get("/schedule/carbon-aware?n_jobs=5").status == 200
            client.close()
            assert list(cache.rglob("*.pkl"))
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            proc.stdout.close()

    def test_fabric_ledger_dir_reaches_its_replicas(self, tmp_path):
        directory = tmp_path / "ledger"
        proc, port = spawn(
            "repro.service.router",
            ["--port", "0", "--replicas", "1", "--workers", "0", "--ledger-dir", str(directory)],
            env=_module_env(),
        )
        try:
            client = ServiceClient("127.0.0.1", port)
            reply = client.get("/experiments/fig7")
            client.close()
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            proc.stdout.close()
        assert reply.status == 200
        assert Ledger.open(directory).resolve("service")["fig7"].reconstruct() == reply.body


def _module_env(**overrides):
    """This checkout's environment for a ``python -m`` child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    env.pop(faults.FAULTS_ENV_VAR, None)
    env.update(overrides)
    return env
