"""Pure-logic units of the fabric router (no sockets, no subprocesses).

Covers the pieces the conformance/chaos tiers exercise only end-to-end:
``RouterConfig`` validation, the fleet metrics rollup
(:func:`~repro.service.router.merge_replica_metrics`), routing-key
derivation (canonical cache keys for parseable queries, stable raw-line
fallbacks otherwise, a repeated request keyed without parsing it again),
and the ``fabric`` CLI flags -> config mapping.
"""

import argparse
import json
import math

import pytest

from repro.errors import ServiceError
from repro.service import queries
from repro.service.http import Request
from repro.service.router import (
    CarbonQueryRouter,
    RouterConfig,
    add_fabric_flags,
    merge_replica_metrics,
    router_config_from_args,
)


def make_request(
    method: str = "GET",
    path: str = "/",
    params: dict | None = None,
    body: bytes = b"",
    raw_target: str = "",
) -> Request:
    return Request(
        method=method,
        path=path,
        params=params or {},
        headers={},
        body=body,
        raw_target=raw_target or path,
    )


class TestRouterConfig:
    def test_defaults_are_valid(self):
        config = RouterConfig()
        assert config.replicas >= 1
        assert config.backends == ()

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"replicas": 0},
            {"vnodes": 0},
            {"health_interval_s": 0.0},
            {"eject_after": 0},
            {"proxy_timeout_s": -1.0},
            {"drain_timeout_s": -0.1},
            {"health_interval_s": math.nan},
            {"proxy_timeout_s": math.nan},
            {"drain_timeout_s": math.nan},
        ),
    )
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(ServiceError):
            RouterConfig(**kwargs)

    def test_attached_mode_allows_zero_managed_replicas(self):
        config = RouterConfig(replicas=0, backends=("http://127.0.0.1:9001",))
        assert config.backends == ("http://127.0.0.1:9001",)


class TestMetricsRollup:
    def _doc(self, total: int, hits: int, misses: int, mean_s: float) -> dict:
        return {
            "service": {"workers": 2, "uptime_s": 10.0, "experiments": 45},
            "requests": {
                "total": total,
                "by_endpoint": {"/footprint": total},
                "by_status": {"200": total},
                "rejected_429": 0,
                "timeouts_504": 0,
                "server_errors_5xx": 0,
                "cache_states": {"hit": hits, "miss": misses},
                "latency_s": {
                    "/footprint": {"count": total, "mean_s": mean_s, "max_s": 2 * mean_s}
                },
            },
            "response_cache": {
                "hits": hits,
                "misses": misses,
                "evictions": 1,
                "size": misses,
                "maxsize": 256,
            },
            "batching": {"executions": misses, "coalesced": 3, "failures": 0, "in_flight": 0},
            "substrate_cache": {"per_substrate": {"grid": {"hits": hits, "misses": misses}}},
            "sweeps": {"submitted": 1, "completed": 1},
            "ledger": {"errors": 0},
        }

    def test_counters_sum_and_rates_recompute(self):
        merged = merge_replica_metrics([self._doc(10, 8, 2, 0.001), self._doc(30, 15, 15, 0.003)])
        assert merged["service"]["replicas"] == 2
        assert merged["service"]["workers"] == 4
        assert merged["requests"]["total"] == 40
        assert merged["requests"]["by_status"] == {"200": 40}
        # The rate comes from summed counters, not a mean of per-replica
        # rates: (8+15)/(10+30) — the busy replica dominates.
        assert merged["requests"]["answered_from_cache_rate"] == pytest.approx(23 / 40)
        assert merged["response_cache"]["hit_rate"] == pytest.approx(23 / 40)
        assert merged["response_cache"]["maxsize"] == 512
        assert merged["batching"]["coalesced"] == 6
        assert merged["sweeps"] == {"completed": 2, "submitted": 2}

    def test_latency_mean_is_count_weighted_and_percentiles_drop(self):
        merged = merge_replica_metrics([self._doc(10, 0, 10, 0.001), self._doc(30, 0, 30, 0.003)])
        latency = merged["requests"]["latency_s"]["/footprint"]
        assert latency["count"] == 40
        assert latency["mean_s"] == pytest.approx((10 * 0.001 + 30 * 0.003) / 40)
        assert latency["max_s"] == pytest.approx(0.006)
        assert "p99_s" not in latency

    def test_query_memo_blocks_sum(self):
        docs = [self._doc(10, 8, 2, 0.001), self._doc(30, 15, 15, 0.003)]
        docs[0]["query_memo"] = {"hits": 5, "misses": 2, "size": 2, "maxsize": 256}
        docs[1]["query_memo"] = {"hits": 1, "misses": 9, "size": 9, "maxsize": 256}
        merged = merge_replica_metrics(docs)
        assert merged["query_memo"] == {"hits": 6, "maxsize": 512, "misses": 11, "size": 11}

    def test_empty_fleet_merges_to_zeroes(self):
        merged = merge_replica_metrics([])
        assert merged["service"]["replicas"] == 0
        assert merged["requests"]["total"] == 0
        assert merged["requests"]["answered_from_cache_rate"] is None
        assert merged["response_cache"]["hit_rate"] is None


@pytest.fixture()
def router() -> CarbonQueryRouter:
    return CarbonQueryRouter(
        RouterConfig(port=0, replicas=0, backends=("http://127.0.0.1:9001",))
    )


class TestRoutingKey:
    def test_experiment_requests_key_on_canonical_cache_key(self, router):
        endpoint, key = router.routing_key(make_request(path="/experiments/fig7"))
        assert endpoint == "/experiments/{id}"
        expected = queries.parse_query("experiment", {"experiment_id": "fig7"})
        assert key == expected.cache_key()

    def test_get_and_post_schedule_share_a_key(self, router):
        get = router.routing_key(
            make_request(
                path="/schedule/carbon-aware",
                params={"n_jobs": "25", "grid_seed": "1"},
            )
        )
        post = router.routing_key(
            make_request(
                method="POST",
                path="/schedule/carbon-aware",
                body=b'{"n_jobs": 25, "grid_seed": 1}',
            )
        )
        assert get == post
        assert get[0] == "/schedule/carbon-aware"

    def test_equivalent_footprint_spellings_collapse(self, router):
        a = router.routing_key(
            make_request(path="/footprint", params={"busy_device_hours": "1000"})
        )
        b = router.routing_key(
            make_request(path="/footprint", params={"busy_device_hours": "1000.0"})
        )
        assert a == b

    def test_malformed_query_falls_back_to_raw_line(self, router):
        endpoint, key = router.routing_key(
            make_request(
                path="/footprint",
                params={"busy_device_hours": "not-a-number"},
                raw_target="/footprint?busy_device_hours=not-a-number",
            )
        )
        assert endpoint == "/footprint"
        assert key == "GET /footprint?busy_device_hours=not-a-number"

    def test_unknown_paths_route_stably(self, router):
        first = router.routing_key(make_request(path="/nope", raw_target="/nope?x=1"))
        second = router.routing_key(make_request(path="/nope", raw_target="/nope?x=1"))
        assert first == second == ("(unknown)", "GET /nope?x=1")

    def test_ledger_paths_group_under_one_endpoint_label(self, router):
        endpoint, _key = router.routing_key(make_request(path="/ledger/diff"))
        assert endpoint == "/ledger/diff"

    def test_stream_cursors_share_the_spec_key(self, router):
        # Every poll of one stream must pin to one replica — the one
        # holding the live frontier state — so the ring key strips the
        # transport params (cursor/wait_s/max_ticks) before parsing.
        first = router.routing_key(
            make_request(
                path="/stream",
                params={"hours": "48", "grid_seed": "1", "cursor": "0", "wait_s": "0"},
            )
        )
        later = router.routing_key(
            make_request(
                path="/stream",
                params={
                    "hours": "48",
                    "grid_seed": "1",
                    "cursor": "40",
                    "wait_s": "5",
                    "max_ticks": "8",
                },
            )
        )
        assert first == later
        assert first[0] == "/stream"
        expected = queries.parse_query("stream", {"hours": "48", "grid_seed": "1"})
        assert first[1] == expected.cache_key()

    def test_distinct_stream_specs_key_apart(self, router):
        a = router.routing_key(
            make_request(path="/stream", params={"hours": "48", "grid_seed": "1"})
        )
        b = router.routing_key(
            make_request(path="/stream", params={"hours": "48", "grid_seed": "2"})
        )
        assert a != b

    def test_malformed_stream_query_falls_back_to_raw_line(self, router):
        endpoint, key = router.routing_key(
            make_request(
                path="/stream",
                params={"hours": "not-a-number"},
                raw_target="/stream?hours=not-a-number",
            )
        )
        assert endpoint == "/stream"
        assert key == "GET /stream?hours=not-a-number"

    def test_a_sweep_jobs_submission_and_polls_key_on_its_id(self, router):
        # A job lives on its id's ring owner, so the router keeps no job table.
        spec = {
            "busy_device_hours": 1000.0,
            "ranges": [{"name": "pue", "lo": 1.1, "hi": 1.5, "points": 3}],
        }
        sweep_id = queries.parse_query("sweep", dict(spec)).sweep_id
        submit = make_request(method="POST", path="/sweep", body=json.dumps(spec).encode())
        poll = make_request(path=f"/sweep/{sweep_id}")
        result = make_request(path=f"/sweep/{sweep_id}/result")
        assert [router.routing_key(r) for r in (submit, poll, result)] == [
            ("/sweep", sweep_id),
            ("/sweep/{id}", sweep_id),
            ("/sweep/{id}/result", sweep_id),
        ]


class TestRoutingKeyMemo:
    def test_the_memo_holds_256_entries_per_ring_node(self):
        backends = ("http://127.0.0.1:9001", "http://127.0.0.1:9002", "http://127.0.0.1:9003")
        router = CarbonQueryRouter(RouterConfig(port=0, backends=backends))
        assert router.query_memo.maxsize == 3 * 256

    def test_a_repeated_request_is_parsed_once(self, router, monkeypatch):
        calls = []
        parse_query = queries.parse_query

        def counted(kind, params):
            calls.append(kind)
            return parse_query(kind, params)

        monkeypatch.setattr(queries, "parse_query", counted)
        request = make_request(path="/schedule/carbon-aware", params={"n_jobs": "25"})
        keys = {router.routing_key(request) for _ in range(3)}
        assert calls == ["schedule"]
        expected = parse_query("schedule", {"n_jobs": "25"}).cache_key()
        assert keys == {("/schedule/carbon-aware", expected)}
        assert router.query_memo.stats()["hits"] == 2

    def test_one_raw_target_with_different_params_keys_apart(self, router):
        # The memo keys on what parsing reads, not on the raw target: two
        # requests spelled alike on the wire but parsed apart stay apart.
        keys = [
            router.routing_key(
                make_request(path="/footprint", params=params, raw_target="/footprint")
            )[1]
            for params in ({"busy_device_hours": "10"}, {"busy_device_hours": "20"})
        ]
        assert keys == [
            queries.parse_query("footprint", {"busy_device_hours": hours}).cache_key()
            for hours in ("10", "20")
        ]
        assert keys[0] != keys[1]


class TestFabricFlags:
    def _parse(self, argv: list[str]):
        parser = argparse.ArgumentParser()
        add_fabric_flags(parser)
        return parser.parse_args(argv)

    def test_defaults_round_trip(self):
        config = router_config_from_args(self._parse([]))
        assert config == RouterConfig()

    def test_workers_and_lru_map_into_replica_args(self):
        config = router_config_from_args(
            self._parse(["--workers", "0", "--lru-size", "64", "--replica-arg=--max-queue=8"])
        )
        assert config.replica_args == (
            "--workers",
            "0",
            "--lru-size",
            "64",
            "--max-queue=8",
        )

    def test_backends_and_drain_knobs(self):
        config = router_config_from_args(
            self._parse(
                [
                    "--backend",
                    "http://127.0.0.1:9001",
                    "--backend",
                    "http://127.0.0.1:9002",
                    "--proxy-timeout",
                    "0",
                    "--no-restart",
                ]
            )
        )
        assert config.backends == ("http://127.0.0.1:9001", "http://127.0.0.1:9002")
        assert config.proxy_timeout_s is None
        assert config.restart_replicas is False

    def test_nan_proxy_timeout_flag_is_rejected(self):
        """``--proxy-timeout nan`` is an error, not "no timeout"."""
        with pytest.raises(ServiceError, match="proxy timeout"):
            router_config_from_args(self._parse(["--proxy-timeout", "nan"]))

    def test_ledger_gc_and_stream_knobs_pass_through_to_replicas(self):
        config = router_config_from_args(
            self._parse(
                [
                    "--ledger-gc-interval",
                    "30",
                    "--max-streams",
                    "8",
                    "--stream-tick-hz",
                    "16",
                ]
            )
        )
        assert config.replica_args == (
            "--ledger-gc-interval",
            "30.0",
            "--max-streams",
            "8",
            "--stream-tick-hz",
            "16.0",
        )
