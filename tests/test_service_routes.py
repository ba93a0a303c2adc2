"""The route table: one label per request, on a replica and on the router.

Every endpoint is a row of :data:`repro.service.routes.ROUTES`.  The
service dispatches on the row a request matches, and the fabric router
keys and counts the request by the same row.  So:

* a path no row matches is a ``404``, and a method its row lacks is a
  ``405`` counted under the row's label: the labels ``/metrics`` counts
  stay bounded, whatever paths clients send;
* bytes that do not parse as a request get the canonical ``400`` body,
  counted under ``(malformed)``;
* the router counts every request under the label the replica does;
* the router answers an exception of its own with a ``500``, as the
  service does, and a replica's timeout or refusal with one ``504`` or
  ``502`` body whether it forwarded the request or polled a sweep;
* docs/SERVICE.md lists the table's methods and paths.
"""

from __future__ import annotations

import contextlib
import json
import re
import socket
from collections import Counter
from pathlib import Path

import pytest

from repro.service import routes
from repro.service.router import CarbonQueryRouter, RouterConfig, start_router
from tests.serviceutil import ServiceClient, running_service

#: ``(method, path, JSON body) -> (status, error kind, label)`` at the
#: table's edges: paths no row matches, methods a row lacks, the reach of
#: ``{id}``, and trailing slashes.
EDGES = [
    ("GET", "/", None, 404, "not-found", "(unknown)"),
    ("GET", "/nope", None, 404, "not-found", "(unknown)"),
    ("GET", "/nope/", None, 404, "not-found", "(unknown)"),
    ("GET", "/schedule", None, 404, "not-found", "(unknown)"),
    ("GET", "/schedule/x", None, 404, "not-found", "(unknown)"),
    ("GET", "/footprintxyz", None, 404, "not-found", "(unknown)"),
    ("GET", "/ledger/x", None, 404, "not-found", "(unknown)"),
    ("DELETE", "/ledger/x", None, 404, "not-found", "(unknown)"),
    ("DELETE", "/footprint", None, 405, "method-not-allowed", "/footprint"),
    ("POST", "/sweep/abc", {}, 405, "method-not-allowed", "/sweep/{id}"),
    ("PUT", "/stream", None, 405, "method-not-allowed", "/stream"),
    ("POST", "/healthz", {}, 405, "method-not-allowed", "/healthz"),
    ("POST", "/metrics", {}, 405, "method-not-allowed", "/metrics"),
    ("DELETE", "/experiments/", None, 405, "method-not-allowed", "/experiments"),
    ("GET", "/experiments/a/b", None, 404, "unknown-experiment", "/experiments/{id}"),
    ("GET", "/sweep/a/b", None, 404, "unknown-sweep", "/sweep/{id}"),
    ("GET", "/sweep/result", None, 404, "unknown-sweep", "/sweep/{id}"),
    ("GET", "/sweep/a/result", None, 404, "unknown-sweep", "/sweep/{id}/result"),
    ("GET", "/sweep/a/result//", None, 404, "unknown-sweep", "/sweep/{id}/result"),
    ("GET", "/ledger/diff", None, 400, "bad-request", "/ledger/diff"),
    ("GET", "/footprint/", None, 400, "bad-request", "/footprint"),
    ("POST", "/footprint", {"workload": ["llm-training"]}, 400, "bad-request", "/footprint"),
    ("GET", "/healthz/", None, 200, None, "/healthz"),
]


def _labels(counters) -> Counter:
    return Counter(counters.snapshot()["by_endpoint"])


def _send(client: ServiceClient, method: str, path: str, body: dict | None):
    return client.request(method, path, None if body is None else json.dumps(body).encode())


def _kind(reply) -> str | None:
    return reply.json().get("error", {}).get("kind")


@pytest.fixture(scope="module")
def single():
    with running_service(workers=0, lru_size=16) as (handle, client):
        yield handle.service, client


@pytest.fixture(scope="module")
def fabric():
    """A router over two in-process replicas; no health probe runs to be counted."""
    with contextlib.ExitStack() as stack:
        replicas = [
            stack.enter_context(running_service(workers=0, lru_size=16))[0] for _ in range(2)
        ]
        config = RouterConfig(
            port=0,
            backends=tuple(handle.base_url for handle in replicas),
            health_interval_s=3600.0,
        )
        router = start_router(config)
        stack.callback(router.stop)
        client = ServiceClient(config.host, router.port)
        stack.callback(client.close)
        yield router.router, [handle.service for handle in replicas], client


class TestEdgePaths:
    @pytest.mark.parametrize("method, path, body, status, kind, label", EDGES)
    def test_one_label_on_a_node_and_through_the_fabric(
        self, single, fabric, method, path, body, status, kind, label
    ):
        service, client = single
        before = _labels(service.counters)
        reply = _send(client, method, path, body)
        assert (reply.status, _kind(reply)) == (status, kind)
        assert _labels(service.counters) - before == Counter({label: 1})

        router, replicas, fabric_client = fabric
        before = _labels(router.counters)
        replicas_before = [_labels(replica.counters) for replica in replicas]
        routed = _send(fabric_client, method, path, body)
        assert (routed.status, _kind(routed)) == (status, kind)
        if label != "/healthz":  # the router answers its own /healthz
            assert routed.body == reply.body
        assert _labels(router.counters) - before == Counter({label: 1})
        for replica, prior in zip(replicas, replicas_before):
            assert set(_labels(replica.counters) - prior) <= {label}

    def test_bad_paths_add_one_label_not_one_per_path(self):
        with running_service(workers=0) as (handle, client):
            for i in range(1000):
                assert client.request("DELETE", f"/experiments/x{i}").status == 405
            counted = handle.service.counters.snapshot()
        assert counted["by_endpoint"] == {"/experiments/{id}": 1000}
        assert list(counted["latency_s"]) == ["/experiments/{id}"]


class TestRouterInternalErrors:
    def test_the_router_answers_its_own_exception(self, fabric, monkeypatch):
        router, _replicas, client = fabric

        def boom(self, request):
            raise RuntimeError("boom")

        monkeypatch.setattr(CarbonQueryRouter, "routing_key", boom)
        before = _labels(router.counters)
        reply = client.get("/footprint?busy_device_hours=3")
        assert reply.status == 500
        assert reply.json() == {
            "error": {"kind": "internal-error", "message": "RuntimeError: boom"}
        }
        assert _labels(router.counters) - before == Counter({"(internal-error)": 1})
        monkeypatch.undo()
        assert client.get("/footprint?busy_device_hours=3").status == 200


def _send_raw(port: int, data: bytes) -> tuple[int, bytes]:
    """Status and body of the reply to ``data``, read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall(data)
        reply = b""
        while chunk := conn.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


class TestMalformedRequests:
    def test_a_malformed_request_is_a_counted_canonical_400(self, single, fabric):
        service, client = single
        router, _replicas, fabric_client = fabric
        for counters, port in (
            (service.counters, client.port),
            (router.counters, fabric_client.port),
        ):
            before = counters.snapshot()
            status, body = _send_raw(port, b"GET /healthz HTTP/1.1\r\nContent-Length: x\r\n\r\n")
            assert status == 400
            assert body == routes.error_body("bad-request", "non-integer Content-Length")
            after = counters.snapshot()
            assert after["total"] - before["total"] == 1
            assert after["by_status"]["400"] - before["by_status"].get("400", 0) == 1
            assert _labels(counters) - Counter(before["by_endpoint"]) == Counter(
                {routes.MALFORMED: 1}
            )


class TestUpstreamFailures:
    """A replica that fails an exchange gets one answer, forwarded or polled."""

    PATHS = ("/footprint?busy_device_hours=10", "/sweep/abc")

    def _replies(self, port: int) -> list:
        config = RouterConfig(
            port=0,
            backends=(f"http://127.0.0.1:{port}",),
            health_interval_s=3600.0,
            proxy_timeout_s=0.3,
        )
        router = start_router(config)
        client = ServiceClient(config.host, router.port)
        try:
            return [client.get(path) for path in self.PATHS]
        finally:
            client.close()
            router.stop()

    def test_a_replica_that_never_answers_is_one_504(self):
        with socket.socket() as backend:
            # Listening without accepting: connections complete, no reply comes.
            backend.bind(("127.0.0.1", 0))
            backend.listen(16)
            forwarded, polled = self._replies(backend.getsockname()[1])
        assert (forwarded.status, polled.status) == (504, 504)
        assert forwarded.json() == {
            "error": {
                "kind": "upstream-timeout",
                "message": "replica replica-0 exceeded the proxy timeout (0.3s)",
            }
        }
        assert polled.body == forwarded.body

    def test_a_refused_connection_is_one_502(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        forwarded, polled = self._replies(port)
        assert (forwarded.status, polled.status) == (502, 502)
        assert _kind(forwarded) == "bad-gateway"
        assert forwarded.json()["error"]["message"].startswith("replica replica-0 did not answer: ")
        assert polled.body == forwarded.body


class TestDocs:
    def test_service_docs_list_every_route(self):
        doc = (Path(__file__).resolve().parents[1] / "docs" / "SERVICE.md").read_text()
        table = doc.split("## Endpoints", 1)[1].split("\n\n", 2)[1]
        documented = set()
        for row in table.splitlines()[2:]:
            methods, path = re.match(r"\| `([A-Z|\\]+) ([^`]+)` \|", row).groups()
            documented.update((method, path) for method in methods.split("\\|"))
        assert documented == {
            (method, route.label) for route in routes.ROUTES for method in route.methods
        }
