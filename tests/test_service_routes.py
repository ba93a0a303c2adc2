"""The route table: one label per request, on a replica and on the router.

Every endpoint is a row of :data:`repro.service.routes.ROUTES`.  The
service dispatches on the row a request matches, and the fabric router
keys and counts the request by the same row.  So:

* a path no row matches is a ``404``, and a method its row lacks is a
  ``405`` counted under the row's label: the labels ``/metrics`` counts
  stay bounded, whatever paths clients send;
* bytes that do not parse as a request, or frame a body ambiguously, get
  the canonical ``400`` body, counted under ``(malformed)``, and an
  HTTP/1.0 request that does not ask for keep-alive gets its connection
  closed;
* the router counts every request under the label the replica does;
* the router answers an exception of its own with a ``500``, as the
  service does, and a replica's timeout, refusal or malformed response
  with one ``504`` or ``502`` body whether it forwarded the request or
  polled a sweep;
* a repeated query request is parsed once, on a replica and on the
  router, and ``/metrics`` counts the memo that remembers it;
* docs/SERVICE.md lists the table's methods and paths.
"""

from __future__ import annotations

import contextlib
import json
import re
import socket
import threading
from collections import Counter
from pathlib import Path

import pytest

from repro.errors import QueryError
from repro.service import queries, routes
from repro.service.http import MAX_REQUEST_LINE, Request
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
        yield handle.server, client


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
        yield router.server, [handle.server for handle in replicas], client


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
            counted = handle.server.counters.snapshot()
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


def _send_raw(port: int, data: bytes, *, half_close: bool = False) -> tuple[int, bytes]:
    """Status and body of the reply to ``data``, read until the server closes.

    ``half_close`` shuts the client's sending side after ``data``, so the
    server reads end of input where it expects more.
    """
    head, body = _exchange_raw(port, data, half_close=half_close)
    return int(head.split()[1]), body


def _exchange_raw(port: int, data: bytes, *, half_close: bool = False) -> tuple[bytes, bytes]:
    """Head and body of the reply to ``data``, read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall(data)
        if half_close:
            conn.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := conn.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head, body


def _servers(single, fabric) -> tuple:
    """``(counters, port)`` of the lone service and of the router."""
    return (single[0].counters, single[1].port), (fabric[0].counters, fabric[2].port)


def _headers(*lines: str) -> bytes:
    return "".join(f"{line}\r\n" for line in lines).encode("latin-1")


#: ``(name, request bytes, 400 text)``.  Each request ends where the server
#: stops reading it.  The first four rows are the framing rules of RFC 9112
#: §6: a length is ASCII digits only, said once, and never beside a
#: ``Transfer-Encoding``.  The rest are the limits the reader has always had
#: (``Content-Length: x`` is the first test's).
MALFORMED = [
    (
        "signed-length",
        _headers("POST /footprint HTTP/1.1", "Content-Length: +25", ""),
        "non-integer Content-Length",
    ),
    (
        "underscored-length",
        _headers("POST /footprint HTTP/1.1", "Content-Length: 2_5", ""),
        "non-integer Content-Length",
    ),
    (
        "conflicting-lengths",
        _headers("POST /footprint HTTP/1.1", "Content-Length: 99", "Content-Length: 25"),
        "conflicting Content-Length headers",
    ),
    (
        "chunked-with-length",
        _headers(
            "POST /footprint HTTP/1.1", "Transfer-Encoding: chunked", "Content-Length: 25", ""
        ),
        "chunked transfer encoding is not supported",
    ),
    (
        "chunked",
        _headers("POST /footprint HTTP/1.1", "Transfer-Encoding: chunked", ""),
        "chunked transfer encoding is not supported",
    ),
    (
        "long-request-line",
        _headers(f"GET /{'a' * MAX_REQUEST_LINE} HTTP/1.1"),
        "request line too long",
    ),
    (
        "malformed-request-line",
        _headers("GET /healthz"),
        "malformed request line: b'GET /healthz\\r\\n'",
    ),
    (
        "http-2",
        _headers("GET /healthz HTTP/2.0"),
        "unsupported protocol version 'HTTP/2.0'",
    ),
    (
        "101-headers",
        _headers("GET /healthz HTTP/1.1", *(f"X-Header-{i}: {i}" for i in range(101))),
        "too many headers",
    ),
    (
        "header-without-colon",
        _headers("GET /healthz HTTP/1.1", "no colon here"),
        "malformed header line: b'no colon here\\r\\n'",
    ),
    (
        "negative-length",
        _headers("POST /footprint HTTP/1.1", "Content-Length: -1", ""),
        "Content-Length -1 outside [0, 1048576]",
    ),
    (
        "length-over-1-mib",
        _headers("POST /footprint HTTP/1.1", "Content-Length: 1048577", ""),
        "Content-Length 1048577 outside [0, 1048576]",
    ),
]


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

    @pytest.mark.parametrize(
        "data, message", [row[1:] for row in MALFORMED], ids=[row[0] for row in MALFORMED]
    )
    def test_each_framing_error_is_a_counted_canonical_400(self, single, fabric, data, message):
        for counters, port in _servers(single, fabric):
            before = counters.snapshot()
            assert _send_raw(port, data) == (400, routes.error_body("bad-request", message))
            after = counters.snapshot()
            assert after["by_status"]["400"] - before["by_status"].get("400", 0) == 1
            assert _labels(counters) - Counter(before["by_endpoint"]) == Counter(
                {routes.MALFORMED: 1}
            )

    def test_a_connection_closed_mid_body_is_a_counted_canonical_400(self, single, fabric):
        data = _headers("POST /footprint HTTP/1.1", "Content-Length: 10", "") + b'{"a"'
        for counters, port in _servers(single, fabric):
            before = _labels(counters)
            status, body = _send_raw(port, data, half_close=True)
            assert (status, body) == (
                400,
                routes.error_body("bad-request", "connection closed mid-body"),
            )
            assert _labels(counters) - before == Counter({routes.MALFORMED: 1})


class TestHttp10:
    """RFC 9112 §9.3: HTTP/1.0 closes after the response unless it asks for keep-alive."""

    def test_an_http_1_0_request_is_answered_and_closed(self, single, fabric):
        for _counters, port in _servers(single, fabric):
            head, body = _exchange_raw(port, b"GET /healthz HTTP/1.0\r\n\r\n")
            assert head.split(b"\r\n")[0] == b"HTTP/1.1 200 OK"
            assert b"Connection: close" in head.split(b"\r\n")
            assert json.loads(body)["status"] == "ok"

    def test_an_http_1_0_keep_alive_request_keeps_its_connection(self, single, fabric):
        request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        for _counters, port in _servers(single, fabric):
            with (
                socket.create_connection(("127.0.0.1", port), timeout=30) as conn,
                conn.makefile("rb") as reader,
            ):
                for _ in range(2):
                    conn.sendall(request)
                    head = []
                    while (line := reader.readline()) != b"\r\n":
                        head.append(line.strip())
                    assert head[0] == b"HTTP/1.1 200 OK"
                    assert b"Connection: keep-alive" in head
                    length = next(h for h in head if h.startswith(b"Content-Length"))
                    body = reader.read(int(length.split()[1]))
                    assert json.loads(body)["status"] == "ok"


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


class _FakeReplica:
    """A backend that answers every request on every connection with ``response``."""

    def __init__(self, response: bytes) -> None:
        self.response = response
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _address = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._answer, args=(conn,), daemon=True).start()

    def _answer(self, conn: socket.socket) -> None:
        with conn:
            conn.settimeout(30)
            buffered = b""
            try:
                while chunk := conn.recv(65536):
                    buffered += chunk
                    while b"\r\n\r\n" in buffered:
                        _request, _, buffered = buffered.partition(b"\r\n\r\n")
                        conn.sendall(self.response)
            except OSError:
                return

    def close(self) -> None:
        self.listener.close()


class TestMalformedReplicaResponses:
    """A replica whose response breaks the framing rules is a ``502``, not a ``500``."""

    CASES = [
        (b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n{}", "non-integer Content-Length"),
        (
            b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n{}",
            "Content-Length -1 outside [0, inf]",
        ),
        (
            b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70_000 + b"\r\nContent-Length: 2\r\n\r\n{}",
            "header line too long",
        ),
        (
            b"HTTP/1.1 200 OK\r\n"
            + b"".join(b"X-Header-%d: 1\r\n" % i for i in range(101))
            + b"Content-Length: 2\r\n\r\n{}",
            "too many headers",
        ),
    ]

    @pytest.mark.parametrize(
        "response, message", CASES, ids=["non-integer", "negative", "long-line", "101-headers"]
    )
    def test_a_malformed_response_is_one_502_and_ejects_the_replica(self, response, message):
        replica = _FakeReplica(response)
        config = RouterConfig(
            port=0,
            backends=(f"http://127.0.0.1:{replica.port}",),
            health_interval_s=3600.0,
            proxy_timeout_s=5.0,
        )
        router = start_router(config)
        client = ServiceClient(config.host, router.port)
        try:
            forwarded = client.get("/footprint?busy_device_hours=10")
            polled = client.get("/sweep/abc")
            metrics = client.get("/metrics")
        finally:
            client.close()
            router.stop()
            replica.close()
        assert (forwarded.status, polled.status) == (502, 502)
        assert forwarded.json() == {
            "error": {
                "kind": "bad-gateway",
                "message": f"replica replica-0 did not answer: {message}",
            }
        }
        assert polled.body == forwarded.body
        state = router.server.replicas["replica-0"]
        assert (state.healthy, state.ejections) == (False, 1)
        # /metrics skips the replica it cannot read and still answers.
        assert metrics.status == 200
        assert metrics.json()["service"]["replicas"] == 0


def _request(method: str = "GET", path: str = "/footprint", body: bytes = b"", **params) -> Request:
    return Request(method, path, {k: str(v) for k, v in params.items()}, {}, body, path)


def _counting_parse_query(monkeypatch) -> list[str]:
    """Record the kind of every ``queries.parse_query`` call from now on."""
    calls: list[str] = []
    parse_query = queries.parse_query

    def counted(kind, params):
        calls.append(kind)
        return parse_query(kind, params)

    monkeypatch.setattr(queries, "parse_query", counted)
    return calls


class TestQueryMemo:
    """What the request path has parsed once, it does not parse again."""

    def _parse(self, memo: routes.QueryMemo, request: Request):
        return memo.parse(routes.match(request), request)

    def test_a_hit_equals_a_fresh_parse(self, monkeypatch):
        memo = routes.QueryMemo(4)
        request = _request(busy_device_hours=10, pue=1.2)
        first = self._parse(memo, request)
        calls = _counting_parse_query(monkeypatch)
        again = self._parse(memo, _request(busy_device_hours=10, pue=1.2))
        assert again is first and calls == []
        fresh, _transport = routes.parse(routes.match(request), request)
        assert again == (fresh, fresh.cache_key())
        assert memo.stats() == {"hits": 1, "misses": 1, "size": 1, "maxsize": 4}

    def test_spellings_of_one_query_are_separate_entries_with_one_key(self):
        memo = routes.QueryMemo(4)
        get = self._parse(memo, _request(busy_device_hours=10))
        post = self._parse(memo, _request("POST", body=b'{"busy_device_hours": 10.0}'))
        assert get[1] == post[1]
        assert memo.stats()["size"] == 2

    def test_a_failed_parse_never_enters(self):
        memo = routes.QueryMemo(4)
        errors = []
        for _ in range(2):
            with pytest.raises(QueryError) as raised:
                self._parse(memo, _request(busy_device_hours=-1))
            errors.append(str(raised.value))
        assert errors[0] == errors[1]
        assert memo.stats() == {"hits": 0, "misses": 2, "size": 0, "maxsize": 4}

    def test_the_least_recently_used_entry_is_evicted_first(self, monkeypatch):
        memo = routes.QueryMemo(2)
        a, b, c = (_request(busy_device_hours=hours) for hours in (1, 2, 3))
        for request in (a, b, a, c):  # a is used after b, so c evicts b
            self._parse(memo, request)
        assert memo.stats()["size"] == 2
        calls = _counting_parse_query(monkeypatch)
        self._parse(memo, a)
        self._parse(memo, c)
        assert calls == []
        self._parse(memo, b)
        assert calls == ["footprint"]

    def test_a_body_longer_than_a_request_line_never_enters(self, monkeypatch):
        memo = routes.QueryMemo(4)
        body = b'{"busy_device_hours": 10}'
        padded = body + b" " * (MAX_REQUEST_LINE - len(body))
        self._parse(memo, _request("POST", body=padded))
        assert memo.stats()["size"] == 1
        calls = _counting_parse_query(monkeypatch)
        for _ in range(2):
            self._parse(memo, _request("POST", body=padded + b" "))
        assert calls == ["footprint", "footprint"]
        assert memo.stats()["size"] == 1

    def test_size_zero_keeps_nothing(self):
        memo = routes.QueryMemo(0)
        for _ in range(2):
            self._parse(memo, _request(busy_device_hours=10))
        assert memo.stats() == {"hits": 0, "misses": 2, "size": 0, "maxsize": 0}

    def test_stream_and_sweep_requests_parse_as_before(self, monkeypatch):
        memo = routes.QueryMemo(4)
        sweep = {
            "busy_device_hours": 10,
            "ranges": [{"name": "utilization", "lo": 0.3, "hi": 0.8, "points": 2}],
        }
        calls = _counting_parse_query(monkeypatch)
        for _ in range(2):
            self._parse(memo, _request(path="/stream", hours=48, cursor=0))
            self._parse(memo, _request("POST", "/sweep", body=json.dumps(sweep).encode()))
        assert calls == ["stream", "sweep"] * 2
        assert memo.stats() == {"hits": 0, "misses": 0, "size": 0, "maxsize": 4}


class TestMemoOnTheWire:
    def test_a_repeated_query_parses_once_and_metrics_count_it(self, monkeypatch):
        with running_service(workers=0, lru_size=8) as (handle, client):
            path = "/schedule/carbon-aware?n_jobs=7&grid_seed=3"
            first = client.get(path)
            calls = _counting_parse_query(monkeypatch)
            for _ in range(3):
                assert client.get(path).body == first.body
            memo = client.get("/metrics").json()["query_memo"]
        assert calls == []
        assert memo == {"hits": 3, "misses": 1, "size": 1, "maxsize": 8}

    def test_an_error_is_parsed_and_worded_afresh_each_time(self, monkeypatch):
        with running_service(workers=0) as (handle, client):
            calls = _counting_parse_query(monkeypatch)
            replies = [client.get("/footprint?busy_device_hours=-1") for _ in range(2)]
        assert [reply.status for reply in replies] == [400, 400]
        assert replies[0].body == replies[1].body
        assert calls == ["footprint", "footprint"]
        assert handle.server.query_memo.stats()["size"] == 0

    def test_lru_size_zero_turns_the_memo_off(self, monkeypatch):
        with running_service(workers=0, lru_size=0) as (handle, client):
            calls = _counting_parse_query(monkeypatch)
            for _ in range(2):
                assert client.get("/experiments/fig7").status == 200
            memo = client.get("/metrics").json()["query_memo"]
        # Each request parses in the service and again in its inline execution.
        assert calls == ["experiment"] * 4
        assert memo == {"hits": 0, "misses": 2, "size": 0, "maxsize": 0}

    def test_the_router_parses_a_repeated_query_once_and_sums_the_replicas_memos(
        self, fabric, monkeypatch
    ):
        router, replicas, client = fabric
        path = "/footprint?busy_device_hours=4242&region=nordic"
        first = client.get(path)
        calls = _counting_parse_query(monkeypatch)
        for _ in range(3):
            assert client.get(path).body == first.body
        assert calls == []
        doc = client.get("/metrics").json()
        own = doc["router"]["query_memo"]
        assert own["maxsize"] == 256 * len(replicas)
        assert own == router.query_memo.stats()
        blocks = [replica.query_memo.stats() for replica in replicas]
        assert doc["query_memo"] == {
            name: sum(block[name] for block in blocks) for name in blocks[0]
        }
        assert doc["query_memo"]["hits"] >= 3


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
