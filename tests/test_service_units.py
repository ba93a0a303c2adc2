"""Unit tests for the carbon-query service building blocks.

Covers the pieces below the HTTP surface: query parsing/normalization
(:mod:`repro.service.queries`), the bounded response LRU, the service
telemetry counters, and the regression pinning the ``/metrics``
substrate-cache block against direct :mod:`repro.core.memo` accounting
(the worker ``stats_delta`` ride-back).
"""

from __future__ import annotations

import json

import pytest

from repro.core import memo
from repro.errors import QueryError, TelemetryError
from repro.service.cache import ResponseCache
from repro.service.queries import (
    ExperimentQuery,
    FootprintQuery,
    ScheduleQuery,
    execute_query_task,
    parse_query,
    payload_to_result,
    render_payload,
)
from repro.telemetry.counters import LatencyReservoir, ServiceCounters
from tests.serviceutil import running_service


class TestQueryParsing:
    def test_experiment_query_round_trip(self):
        query = parse_query("experiment", {"experiment_id": "fig7"})
        assert isinstance(query, ExperimentQuery)
        assert query.fault_target() == "fig7"
        assert query.cache_key() == 'experiment?{"experiment_id":"fig7"}'

    def test_unknown_experiment_rejected_with_hint(self):
        with pytest.raises(QueryError, match="GET /experiments"):
            parse_query("experiment", {"experiment_id": "fig999"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError, match="unknown query kind"):
            parse_query("teleportation", {})

    def test_footprint_string_and_number_forms_share_a_key(self):
        """GET delivers strings, POST numbers; both normalize identically."""
        via_strings = parse_query(
            "footprint", {"busy_device_hours": "1000", "pue": "1.5"}
        )
        via_numbers = parse_query("footprint", {"busy_device_hours": 1000, "pue": 1.5})
        assert isinstance(via_strings, FootprintQuery)
        assert via_strings.cache_key() == via_numbers.cache_key()

    def test_footprint_defaults_mirror_scenario_defaults(self):
        query = parse_query("footprint", {"busy_device_hours": 1})
        assert query.utilization == 0.45
        assert query.pue == 1.10
        assert query.lifetime_years == 4.0
        assert query.devices_per_server == 2
        assert query.intensity_label == "us-average"

    @pytest.mark.parametrize(
        "params",
        [
            {},  # busy_device_hours is required
            {"busy_device_hours": "ten"},
            {"busy_device_hours": float("inf")},
            {"busy_device_hours": True},  # booleans are not numbers
            {"busy_device_hours": 1, "utilization": 0},
            {"busy_device_hours": 1, "pue": 0.5},
            {"busy_device_hours": 1, "devices_per_server": 2.5},
            {"busy_device_hours": 1, "region": "narnia"},
            {"busy_device_hours": 1, "region": "us-average", "intensity_kg_per_kwh": 0.1},
            {"busy_device_hours": 1, "typo_knob": 2},
        ],
    )
    def test_footprint_rejects_bad_parameters(self, params):
        with pytest.raises(QueryError):
            parse_query("footprint", params)

    def test_schedule_horizon_must_fit_grid(self):
        with pytest.raises(QueryError, match="must not exceed 'grid_hours'"):
            parse_query("schedule", {"horizon_hours": 169, "grid_hours": 168})

    def test_schedule_defaults_and_key_stability(self):
        query = parse_query("schedule", {})
        assert isinstance(query, ScheduleQuery)
        assert query.n_jobs == 60
        assert query.capacity_kw is None
        # The key is a pure function of the normalized parameters.
        assert query.cache_key() == parse_query("schedule", {"n_jobs": "60"}).cache_key()

    def test_render_payload_is_canonical(self):
        body = render_payload({"b": 1, "a": {"z": 2, "y": 3}})
        assert body == b'{\n  "a": {\n    "y": 3,\n    "z": 2\n  },\n  "b": 1\n}\n'


class TestExecuteQueryTask:
    def test_ships_payload_and_stats_delta(self):
        params = json.dumps({"n_jobs": 6, "grid_seed": 87650})
        outcome = execute_query_task("schedule", params, in_worker=False)
        assert "headline" in outcome["payload"]
        # A cold grid seed means at least one substrate miss rode back.
        assert memo.totals(outcome["stats_delta"])["misses"] >= 1

    def test_payload_to_result_bridges_all_payload_shapes(self, all_results):
        direct = all_results["fig7"]
        assert payload_to_result(direct.to_payload()).headline == direct.headline
        footprint = parse_query("footprint", {"busy_device_hours": 10}).execute()
        bridged = payload_to_result(footprint)
        assert bridged.experiment_id == "service-footprint"
        assert bridged.headline == footprint["headline"]


class TestResponseCache:
    def test_lru_eviction_order_and_counters(self):
        cache = ResponseCache(maxsize=2)
        cache.put("a", b"1")
        cache.put("b", b"2")
        assert cache.get("a") == b"1"  # refreshes a's recency
        cache.put("c", b"3")  # evicts b, the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == b"1"
        assert cache.get("c") == b"3"
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 3
        assert stats["misses"] == 1
        assert stats["size"] == 2
        assert stats["hit_rate"] == pytest.approx(0.75)

    def test_zero_size_disables_caching(self):
        cache = ResponseCache(maxsize=0)
        cache.put("a", b"1")
        assert cache.get("a") is None
        assert len(cache) == 0


class TestLatencyReservoir:
    def test_percentiles_nearest_rank(self):
        reservoir = LatencyReservoir(capacity=100)
        for ms in range(1, 101):  # 0.001 .. 0.100
            reservoir.observe(ms / 1000)
        snap = reservoir.snapshot()
        assert snap["count"] == 100
        assert snap["p50_s"] == pytest.approx(0.050)
        assert snap["p90_s"] == pytest.approx(0.090)
        assert snap["p99_s"] == pytest.approx(0.099)
        assert snap["max_s"] == pytest.approx(0.100)

    def test_sliding_window_keeps_lifetime_count(self):
        reservoir = LatencyReservoir(capacity=4)
        for _ in range(10):
            reservoir.observe(0.5)
        reservoir.observe(0.1)
        snap = reservoir.snapshot()
        assert snap["count"] == 11
        assert snap["p50_s"] == pytest.approx(0.5)  # window holds 3x0.5 + 0.1

    def test_rejects_negative_latency(self):
        with pytest.raises(TelemetryError):
            LatencyReservoir().observe(-0.001)
        with pytest.raises(TelemetryError):
            LatencyReservoir(capacity=0)


class TestServiceCounters:
    def test_snapshot_aggregates_by_endpoint_and_status(self):
        counters = ServiceCounters()
        counters.record("/footprint", 200, 0.01, cache_state="miss")
        counters.record("/footprint", 200, 0.002, cache_state="hit")
        counters.record("/footprint", 429, 0.0001)
        counters.record("/metrics", 200, 0.001)
        counters.record("/footprint", 504, 0.3)
        snap = counters.snapshot()
        assert snap["total"] == 5
        assert snap["by_endpoint"] == {"/footprint": 4, "/metrics": 1}
        assert snap["by_status"] == {"200": 3, "429": 1, "504": 1}
        assert snap["rejected_429"] == 1
        assert snap["timeouts_504"] == 1
        assert snap["server_errors_5xx"] == 1
        assert snap["answered_from_cache_rate"] == pytest.approx(0.5)
        assert snap["latency_s"]["/footprint"]["count"] == 4


class TestLoadgen:
    def test_mix_is_deterministic_and_valid(self):
        from repro.experiments.registry import experiment_ids
        from repro.service.loadgen import DEFAULT_EXPERIMENTS, build_mix

        assert build_mix(7) == build_mix(7)
        assert build_mix(7) != build_mix(8)
        assert set(DEFAULT_EXPERIMENTS) <= set(experiment_ids())

    def test_run_load_reports_and_gates(self, capsys):
        from repro.service.loadgen import run_load

        with running_service(workers=0, lru_size=128) as (handle, _client):
            report = run_load(
                handle.server.config.host,
                handle.port,
                clients=2,
                duration_s=30.0,
                requests_per_client=5,
                seed=1,
            )
        assert report.requests == 10
        assert report.errors_5xx == 0
        assert report.transport_errors == 0
        assert report.by_status == {"200": 10}
        assert report.latency_s["count"] == 10
        assert report.server_metrics is not None
        rendered = report.render()
        assert "10 requests from 2 client(s)" in rendered
        assert "p99" in rendered

    def test_main_gates_on_p99_bound(self, tmp_path, capsys):
        """An absurd p99 bound turns the report into a failing gate."""
        from repro.service.loadgen import main

        with running_service(workers=0, lru_size=128) as (handle, _client):
            url = f"http://{handle.server.config.host}:{handle.port}"
            report_path = tmp_path / "load.json"
            status = main(
                [
                    "--url",
                    url,
                    "--clients",
                    "1",
                    "--duration",
                    "5",
                    "--requests",
                    "4",
                    "--fail-on-5xx",
                    "--max-p99",
                    "0.0",
                    "--json",
                    str(report_path),
                ]
            )
        assert status == 1
        captured = capsys.readouterr()
        assert "exceeds bound" in captured.err
        written = json.loads(report_path.read_text())
        assert written["requests"] == 4
        assert written["errors_5xx"] == 0


class TestMetricsStatsRideBack:
    """Regression: worker substrate stats merge into ``/metrics`` exactly.

    The worker task ships ``memo.stats_delta`` back to the service
    process; the ``/metrics`` ``substrate_cache`` block must equal the
    delta a direct in-process run of the same queries measures — the
    service adds no phantom traffic and loses none.
    """

    QUERIES = [{"n_jobs": 7, "grid_seed": 90000 + i} for i in range(3)]

    def _direct_delta(self):
        before = memo.stats_snapshot()
        for spec in self.QUERIES:
            # Distinct seed namespace, same shape of work as the service side.
            parse_query("schedule", {**spec, "grid_seed": spec["grid_seed"] + 500}).execute()
        return memo.stats_delta(before, memo.stats_snapshot())

    def test_metrics_substrate_block_matches_direct_accounting(self):
        direct_delta = self._direct_delta()
        with running_service(workers=1, lru_size=16) as (_handle, client):
            for spec in self.QUERIES:
                query_string = "&".join(f"{k}={v}" for k, v in spec.items())
                assert client.get(f"/schedule/carbon-aware?{query_string}").status == 200
            served = client.get("/metrics").json()["substrate_cache"]
            # Repeats are served by the LRU: substrate traffic must not move.
            for spec in self.QUERIES:
                query_string = "&".join(f"{k}={v}" for k, v in spec.items())
                assert client.get(f"/schedule/carbon-aware?{query_string}").status == 200
            after_repeats = client.get("/metrics").json()["substrate_cache"]

        assert served["totals"] == memo.totals(direct_delta)
        assert served["per_substrate"] == {
            name: dict(row) for name, row in sorted(direct_delta.items())
        }
        assert after_repeats == served
        assert served["totals"]["misses"] >= len(self.QUERIES)
