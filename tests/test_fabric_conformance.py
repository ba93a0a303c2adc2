"""Router-level conformance: the fabric changes no bytes.

A 3-replica fabric (in-process router in attached mode fronting three
inline services) must be indistinguishable — byte for byte — from one
single-node service and from the direct library path, for the full
45-experiment registry (cold and warm), the footprint/schedule
endpoints, and the sweep submit/poll/result lifecycle.  The module also
pins the fabric-only surfaces: sweep-to-owner pinning, the aggregated
``/metrics`` rollup, and the router's own ``/healthz``.

Everything runs inline (``workers=0``) and requests are driven
sequentially: experiment execution seeds the global RNG, so two
services in one process must never execute concurrently.
"""

from __future__ import annotations

import contextlib
import time

import pytest

from repro.experiments.registry import experiment_ids
from repro.service.queries import parse_query, render_payload
from repro.service.router import RouterConfig, start_router
from tests.serviceutil import ServiceClient, running_service

pytestmark = pytest.mark.slow

FABRIC_REPLICAS = 3


@pytest.fixture(scope="module")
def fabric():
    """(fabric client, single-node client, router handle), torn down last-in."""
    with contextlib.ExitStack() as stack:
        backends = []
        for _ in range(FABRIC_REPLICAS):
            handle, _client = stack.enter_context(
                running_service(workers=0, lru_size=256)
            )
            backends.append(f"http://{handle.server.config.host}:{handle.port}")
        _single_handle, single_client = stack.enter_context(
            running_service(workers=0, lru_size=256)
        )
        config = RouterConfig(port=0, replicas=0, backends=tuple(backends))
        router_handle = start_router(config)
        stack.callback(router_handle.stop)
        fabric_client = ServiceClient(config.host, router_handle.port)
        stack.callback(fabric_client.close)
        yield fabric_client, single_client, router_handle


class TestExperimentConformance:
    @pytest.mark.parametrize("exp_id", experiment_ids())
    def test_fabric_bytes_match_single_node_and_direct(
        self, fabric, all_results, exp_id
    ):
        fabric_client, single_client, _router = fabric
        expected = render_payload(all_results[exp_id].to_payload())
        cold = fabric_client.get(f"/experiments/{exp_id}")
        assert cold.status == 200
        assert cold.body == expected
        warm = fabric_client.get(f"/experiments/{exp_id}")
        assert warm.status == 200
        assert warm.body == expected
        single = single_client.get(f"/experiments/{exp_id}")
        assert single.status == 200
        assert single.body == expected

    def test_listing_matches_registry_through_the_fabric(self, fabric):
        fabric_client, _single, _router = fabric
        reply = fabric_client.get("/experiments")
        assert reply.status == 200
        assert tuple(reply.json()["experiments"]) == experiment_ids()

    def test_load_actually_sharded_across_all_replicas(self, fabric):
        """After the 45-experiment sweep every replica proxied traffic —
        the conformance above went through the ring, not one backend."""
        fabric_client, _single, _router = fabric
        doc = fabric_client.get("/metrics").json()
        replicas = doc["router"]["replicas"]
        assert len(replicas) == FABRIC_REPLICAS
        assert all(replica["proxied"] > 0 for replica in replicas)
        assert all(replica["healthy"] for replica in replicas)


class TestQueryConformance:
    FOOTPRINT = {
        "busy_device_hours": 5000,
        "utilization": 0.6,
        "pue": 1.5,
        "region": "us-average",
    }
    SCHEDULE = {"n_jobs": 25, "seed": 3, "horizon_hours": 96, "grid_seed": 11}

    def test_footprint_get_post_and_single_node_agree(self, fabric):
        fabric_client, single_client, _router = fabric
        expected = render_payload(parse_query("footprint", dict(self.FOOTPRINT)).execute())
        query_string = "&".join(f"{k}={v}" for k, v in self.FOOTPRINT.items())
        via_get = fabric_client.get(f"/footprint?{query_string}")
        via_post = fabric_client.post("/footprint", dict(self.FOOTPRINT))
        assert via_get.status == via_post.status == 200
        assert via_get.body == via_post.body == expected
        assert single_client.get(f"/footprint?{query_string}").body == expected

    def test_schedule_get_post_and_single_node_agree(self, fabric):
        fabric_client, single_client, _router = fabric
        expected = render_payload(parse_query("schedule", dict(self.SCHEDULE)).execute())
        query_string = "&".join(f"{k}={v}" for k, v in self.SCHEDULE.items())
        via_get = fabric_client.get(f"/schedule/carbon-aware?{query_string}")
        via_post = fabric_client.post("/schedule/carbon-aware", dict(self.SCHEDULE))
        assert via_get.status == via_post.status == 200
        assert via_get.body == via_post.body == expected
        assert single_client.get(f"/schedule/carbon-aware?{query_string}").body == expected

    @pytest.mark.parametrize(
        "params",
        [
            {"workload": "llm-training", "model": "llm-7b", "region": "us-average"},
            {"workload": "llm-serving", "peak_qps": 250, "hours": 72},
        ],
        ids=["training", "serving"],
    )
    def test_genai_get_post_and_single_node_agree(self, fabric, params):
        """GenAI ``/footprint`` queries shard on the genai cache key and
        stay byte-identical through the 3-replica fabric."""
        fabric_client, single_client, _router = fabric
        expected = render_payload(parse_query("genai", dict(params)).execute())
        query_string = "&".join(f"{k}={v}" for k, v in params.items())
        via_get = fabric_client.get(f"/footprint?{query_string}")
        via_post = fabric_client.post("/footprint", dict(params))
        assert via_get.status == via_post.status == 200
        assert via_get.body == via_post.body == expected
        assert single_client.get(f"/footprint?{query_string}").body == expected


SWEEP_SPEC = {
    "busy_device_hours": 1000.0,
    "ranges": [{"name": "utilization", "lo": 0.3, "hi": 0.8, "points": 1}],
    "sampling": "sobol",
    "n_points": 64,
    "seed": 7,
}


def _wait_sweep(client, sweep_id, deadline_s=60.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        poll = client.get(f"/sweep/{sweep_id}")
        assert poll.status == 200
        doc = poll.json()
        if doc["status"] != "running":
            return doc
        time.sleep(0.02)
    raise AssertionError("sweep did not finish within the deadline")


class TestSweepConformance:
    def test_sweep_lifecycle_is_pinned_and_byte_identical(self, fabric):
        fabric_client, _single, router_handle = fabric
        submitted = fabric_client.post("/sweep", dict(SWEEP_SPEC))
        assert submitted.status in (200, 202)
        sweep_id = submitted.json()["sweep_id"]
        # Polls for a submitted sweep are pinned to the owning replica.
        assert router_handle.server._sweep_owners.get(sweep_id)
        final = _wait_sweep(fabric_client, sweep_id)
        assert final["status"] == "done"
        result = fabric_client.get(f"/sweep/{sweep_id}/result")
        assert result.status == 200
        expected = render_payload(parse_query("sweep", dict(SWEEP_SPEC)).execute())
        assert result.body == expected

    def test_resubmission_rejoins_the_same_job(self, fabric):
        fabric_client, _single, _router = fabric
        first = fabric_client.post("/sweep", dict(SWEEP_SPEC)).json()["sweep_id"]
        again = fabric_client.post("/sweep", dict(SWEEP_SPEC))
        assert again.status in (200, 202)
        assert again.json()["sweep_id"] == first

    def test_sweep_listing_merges_the_fleet(self, fabric):
        fabric_client, _single, _router = fabric
        listing = fabric_client.get("/sweep")
        assert listing.status == 200
        ids = {job["sweep_id"] for job in listing.json()["sweeps"]}
        first = fabric_client.post("/sweep", dict(SWEEP_SPEC)).json()["sweep_id"]
        assert first in ids or first in {
            job["sweep_id"] for job in fabric_client.get("/sweep").json()["sweeps"]
        }

    def test_unknown_sweep_id_is_404_through_the_fabric(self, fabric):
        fabric_client, _single, _router = fabric
        assert fabric_client.get("/sweep/does-not-exist").status == 404
        assert fabric_client.get("/sweep/does-not-exist/result").status == 404


class TestFabricSurfaces:
    def test_router_healthz_reports_fleet_state(self, fabric):
        fabric_client, _single, _router = fabric
        doc = fabric_client.get("/healthz").json()
        assert doc["status"] == "ok"
        assert doc["role"] == "router"
        assert doc["replicas"] == {"healthy": FABRIC_REPLICAS, "total": FABRIC_REPLICAS}

    def test_aggregated_metrics_roll_up_the_fleet(self, fabric):
        fabric_client, _single, _router = fabric
        doc = fabric_client.get("/metrics").json()
        assert doc["service"]["replicas"] == FABRIC_REPLICAS
        # The fleet saw at least the full experiment sweep (cold + warm).
        assert doc["requests"]["total"] >= 2 * len(experiment_ids())
        assert doc["response_cache"]["hits"] >= len(experiment_ids())
        ring = doc["router"]["ring"]
        assert len(ring["nodes"]) == FABRIC_REPLICAS
        assert sum(ring["shares"].values()) == pytest.approx(1.0)
        assert doc["router"]["failovers"] == 0

    def test_unknown_path_is_a_clean_404(self, fabric):
        fabric_client, _single, _router = fabric
        reply = fabric_client.get("/not-an-endpoint")
        assert reply.status == 404
        assert reply.json()["error"]["kind"] == "not-found"
