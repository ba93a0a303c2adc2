"""Chaos/failover tier: the fabric survives replica death and bad replicas.

Two failure grammars are exercised end to end:

* **Process death** — SIGKILL a managed replica mid-traffic.  The router
  must absorb it (transport error -> eject -> next ring node) so clients
  see zero 5xx, then respawn the replica and rejoin it to the ring.
* **Injected faults** — a replica whose experiment execution raises (the
  :mod:`repro.testing.faults` ``raise:<id>`` directive) answers 500; the
  router retries the idempotent query on the next preference node and
  the client still gets the canonical 200 bytes.

The router runs in-process (coverage for the failover paths); replicas
are real subprocesses with ``--workers 0`` so killing one cannot orphan
pool workers.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.service.queries import parse_query, render_payload
from repro.service.hashring import HashRing
from repro.service.loadgen import spawn_service
from repro.service.router import RouterConfig, start_router
from repro.testing import faults
from tests.serviceutil import ServiceClient

pytestmark = pytest.mark.slow


def _router_doc(client: ServiceClient) -> dict:
    return client.get("/metrics").json()["router"]


def _wait_for(predicate, deadline_s: float = 60.0, interval_s: float = 0.1):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError("condition not met within the deadline")


class TestReplicaDeath:
    def test_sigkill_fails_over_ejects_respawns_and_rejoins(self):
        config = RouterConfig(
            port=0,
            replicas=2,
            replica_args=("--workers", "0"),
            health_interval_s=0.1,
        )
        handle = start_router(config)
        client = ServiceClient(config.host, handle.port)
        try:
            # Warm both shards so the post-kill reads have cached owners.
            paths = [f"/footprint?busy_device_hours={100 * i}" for i in range(1, 9)]
            for path in paths:
                assert client.get(path).status == 200

            doc = _router_doc(client)
            victim = doc["replicas"][0]
            assert victim["healthy"] and isinstance(victim["pid"], int)
            os.kill(victim["pid"], signal.SIGKILL)

            # Every request during the outage must still answer 200: the
            # first hit on the dead replica ejects it and fails over.
            for _round in range(3):
                for path in paths:
                    assert client.get(path).status == 200

            doc = _router_doc(client)
            assert doc["failovers"] >= 1
            dead = next(r for r in doc["replicas"] if r["name"] == victim["name"])
            assert dead["ejections"] >= 1

            # The supervisor respawns the victim and the health loop
            # rejoins it with a fresh pid.
            recovered = _wait_for(
                lambda: next(
                    (
                        r
                        for r in _router_doc(client)["replicas"]
                        if r["name"] == victim["name"]
                        and r["healthy"]
                        and r["pid"] not in (None, victim["pid"])
                    ),
                    None,
                )
            )
            assert recovered["restarts"] >= 1
            assert _router_doc(client)["rejoins"] >= 1

            # The rejoined fleet serves the whole deck again, no errors.
            for path in paths:
                assert client.get(path).status == 200
            statuses = client.get("/metrics").json()["requests"]["by_status"]
            assert all(int(code) < 500 for code in statuses)
        finally:
            client.close()
            handle.stop()

    def test_router_healthz_degrades_while_a_replica_is_down(self):
        config = RouterConfig(
            port=0,
            replicas=2,
            replica_args=("--workers", "0"),
            health_interval_s=0.1,
            restart_replicas=False,
        )
        handle = start_router(config)
        client = ServiceClient(config.host, handle.port)
        try:
            doc = _router_doc(client)
            os.kill(doc["replicas"][0]["pid"], signal.SIGKILL)
            health = _wait_for(
                lambda: (
                    lambda d: d if d["replicas"]["healthy"] == 1 else None
                )(client.get("/healthz").json())
            )
            assert health["status"] == "ok"  # one healthy replica still serves
            assert health["replicas"] == {"healthy": 1, "total": 2}
            # With restarts disabled the victim stays down but traffic
            # keyed to its shard is still answered by the survivor.
            for i in range(1, 9):
                assert client.get(f"/footprint?busy_device_hours={100 * i}").status == 200
        finally:
            client.close()
            handle.stop()


class TestInjectedFaults:
    EXPERIMENT = "fig7"

    def test_faulty_owner_is_retried_on_the_next_ring_node(self, monkeypatch):
        """``raise:fig7`` on fig7's owner -> 500 upstream, 200 downstream."""
        key = parse_query("experiment", {"experiment_id": self.EXPERIMENT}).cache_key()
        owner_index = int(HashRing(("replica-0", "replica-1")).owner(key).split("-")[1])

        monkeypatch.setenv(faults.FAULTS_ENV_VAR, f"raise:{self.EXPERIMENT}")
        faulty_proc, faulty_port = spawn_service(["--workers", "0"])
        monkeypatch.delenv(faults.FAULTS_ENV_VAR)
        clean_proc, clean_port = spawn_service(["--workers", "0"])
        procs = [faulty_proc, clean_proc]

        ports = [0, 0]
        ports[owner_index] = faulty_port
        ports[1 - owner_index] = clean_port
        config = RouterConfig(
            port=0,
            replicas=0,
            backends=tuple(f"http://127.0.0.1:{port}" for port in ports),
        )
        handle = start_router(config)
        client = ServiceClient(config.host, handle.port)
        try:
            # The fault is real: the owner answers 500 when asked directly.
            direct = ServiceClient("127.0.0.1", faulty_port)
            assert direct.get(f"/experiments/{self.EXPERIMENT}").status == 500
            direct.close()

            # Through the fabric the same query is retried on the clean
            # replica and returns the canonical bytes.
            reply = client.get(f"/experiments/{self.EXPERIMENT}")
            assert reply.status == 200
            from repro.experiments.registry import run_experiment

            assert reply.body == render_payload(
                run_experiment(self.EXPERIMENT).to_payload()
            )
            assert _router_doc(client)["retried_5xx"] >= 1
        finally:
            client.close()
            handle.stop()
            for proc in procs:
                proc.send_signal(signal.SIGTERM)
            for proc in procs:
                try:
                    proc.wait(timeout=30)
                finally:
                    if proc.stdout is not None:
                        proc.stdout.close()
