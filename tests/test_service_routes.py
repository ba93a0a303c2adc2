"""The route table: one label per request, on a replica and on the router.

Every endpoint is a row of :data:`repro.service.routes.ROUTES`.  The
service dispatches on the row a request matches, and the fabric router
keys and counts the request by the same row.  So:

* a path no row matches is a ``404``, and a method its row lacks is a
  ``405`` counted under the row's label: the labels ``/metrics`` counts
  stay bounded, whatever paths clients send;
* the router counts every request under the label the replica does;
* the router answers an exception of its own with a ``500``, as the
  service does;
* docs/SERVICE.md lists the table's methods and paths.
"""

from __future__ import annotations

import contextlib
import json
import re
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
