"""End-to-end conformance: service responses are byte-identical to the library.

The contract of :mod:`repro.service` is that putting HTTP, batching,
caching, and worker pools in front of the accounting engine changes *no
bytes*: ``GET /experiments/{id}`` returns exactly
``render_payload(run_experiment(id).to_payload())``, cold and warm, at
any client concurrency.  These tests pin that contract over the full
45-experiment registry (riding the session-scoped ``all_results``
fixture so the direct side runs once) and over the footprint/schedule
endpoints against direct ``Query.execute()`` calls.
"""

from __future__ import annotations

import concurrent.futures

import pytest

from repro.experiments.registry import experiment_ids
from repro.service.queries import parse_query, render_payload
from tests.serviceutil import ServiceClient, running_service

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def service():
    """One shared inline-mode service for the whole conformance module."""
    with running_service(workers=0, lru_size=256) as (handle, client):
        yield handle, client


class TestExperimentConformance:
    @pytest.mark.parametrize("exp_id", experiment_ids())
    def test_cold_and_warm_bytes_match_direct(self, service, all_results, exp_id):
        _handle, client = service
        expected = render_payload(all_results[exp_id].to_payload())
        cold = client.get(f"/experiments/{exp_id}")
        assert cold.status == 200
        assert cold.body == expected
        warm = client.get(f"/experiments/{exp_id}")
        assert warm.status == 200
        assert warm.body == expected

    def test_warm_responses_were_cache_hits(self, service, all_results):
        """After the parametrized sweep the LRU served every second read."""
        handle, client = service
        metrics = client.get("/metrics").json()
        states = metrics["requests"]["cache_states"]
        assert states.get("hit", 0) >= len(experiment_ids())
        assert metrics["response_cache"]["hits"] >= len(experiment_ids())

    def test_experiment_listing_matches_registry(self, service):
        _handle, client = service
        reply = client.get("/experiments")
        assert reply.status == 200
        assert tuple(reply.json()["experiments"]) == experiment_ids()


class TestQueryEndpointConformance:
    FOOTPRINT_PARAMS = {
        "busy_device_hours": 5000,
        "utilization": 0.6,
        "pue": 1.5,
        "region": "us-average",
    }
    SCHEDULE_PARAMS = {"n_jobs": 25, "seed": 3, "horizon_hours": 96, "grid_seed": 11}

    def test_footprint_matches_direct_execute(self, service):
        _handle, client = service
        expected = render_payload(
            parse_query("footprint", dict(self.FOOTPRINT_PARAMS)).execute()
        )
        query_string = "&".join(f"{k}={v}" for k, v in self.FOOTPRINT_PARAMS.items())
        reply = client.get(f"/footprint?{query_string}")
        assert reply.status == 200
        assert reply.body == expected

    def test_footprint_get_and_post_normalize_identically(self, service):
        """String (GET) and number (POST) parameter forms share one key."""
        _handle, client = service
        query_string = "&".join(f"{k}={v}" for k, v in self.FOOTPRINT_PARAMS.items())
        via_get = client.get(f"/footprint?{query_string}")
        via_post = client.post("/footprint", dict(self.FOOTPRINT_PARAMS))
        assert via_get.status == via_post.status == 200
        assert via_get.body == via_post.body

    def test_schedule_matches_direct_execute(self, service):
        _handle, client = service
        expected = render_payload(
            parse_query("schedule", dict(self.SCHEDULE_PARAMS)).execute()
        )
        query_string = "&".join(f"{k}={v}" for k, v in self.SCHEDULE_PARAMS.items())
        reply = client.get(f"/schedule/carbon-aware?{query_string}")
        assert reply.status == 200
        assert reply.body == expected
        assert client.post("/schedule/carbon-aware", dict(self.SCHEDULE_PARAMS)).body == expected


class TestGenAIQueryConformance:
    """``/footprint?workload=...`` rides the same cache/batcher paths."""

    TRAINING_PARAMS = {
        "workload": "llm-training",
        "model": "llm-7b",
        "region": "us-average",
    }
    SERVING_PARAMS = {
        "workload": "llm-serving",
        "peak_qps": 250,
        "hours": 72,
        "intensity_kg_per_kwh": 0.25,
    }

    @staticmethod
    def _query_string(params):
        return "&".join(f"{k}={v}" for k, v in params.items())

    @pytest.mark.parametrize("params", [TRAINING_PARAMS, SERVING_PARAMS])
    def test_cold_and_warm_bytes_match_direct(self, service, params):
        _handle, client = service
        expected = render_payload(parse_query("genai", dict(params)).execute())
        cold = client.get(f"/footprint?{self._query_string(params)}")
        assert cold.status == 200
        assert cold.body == expected
        warm = client.get(f"/footprint?{self._query_string(params)}")
        assert warm.status == 200
        assert warm.body == expected

    @pytest.mark.parametrize("params", [TRAINING_PARAMS, SERVING_PARAMS])
    def test_get_and_post_normalize_identically(self, service, params):
        _handle, client = service
        via_get = client.get(f"/footprint?{self._query_string(params)}")
        via_post = client.post("/footprint", dict(params))
        assert via_get.status == via_post.status == 200
        assert via_get.body == via_post.body

    def test_model_name_and_expansion_share_one_cache_entry(self, service):
        """``model=llm-7b`` normalizes to its explicit-knob expansion."""
        from repro.workloads.genai import inventory_spec

        _handle, client = service
        spec = inventory_spec("llm-7b")
        explicit = {
            "workload": "llm-training",
            "n_params": spec.n_params,
            "n_tokens": spec.n_tokens,
            "mfu": spec.mfu,
            "n_accelerators": spec.n_accelerators,
            "region": "us-average",
        }
        by_model = client.get(f"/footprint?{self._query_string(self.TRAINING_PARAMS)}")
        by_knobs = client.post("/footprint", explicit)
        assert by_model.status == by_knobs.status == 200
        assert by_model.body == by_knobs.body

    def test_bad_genai_query_is_structured_400(self, service):
        _handle, client = service
        reply = client.get("/footprint?workload=llm-cooking")
        assert reply.status == 400
        assert reply.json()["error"]["kind"] == "bad-request"
        assert "workload" in reply.json()["error"]["message"]


class TestConcurrentConformance:
    def test_16_clients_get_identical_bytes(self, all_results):
        """16-way client concurrency over a worker pool changes no bytes.

        Every client hammers a rotating window of experiments plus the
        query endpoints; every response must equal the direct call.
        """
        targets = experiment_ids()[:8]
        with running_service(workers=2, lru_size=64) as (
            _handle,
            client0,
        ):
            expected = {
                exp_id: render_payload(all_results[exp_id].to_payload())
                for exp_id in targets
            }
            footprint_expected = render_payload(
                parse_query("footprint", {"busy_device_hours": 777}).execute()
            )
            host, port = client0.host, client0.port

            def one_client(worker_index: int) -> None:
                client = ServiceClient(host, port)
                try:
                    for step in range(6):
                        exp_id = targets[(worker_index + step) % len(targets)]
                        reply = client.get(f"/experiments/{exp_id}")
                        assert reply.status == 200, reply.body
                        assert reply.body == expected[exp_id]
                    reply = client.get("/footprint?busy_device_hours=777")
                    assert reply.status == 200
                    assert reply.body == footprint_expected
                finally:
                    client.close()

            with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
                for future in [pool.submit(one_client, i) for i in range(16)]:
                    future.result(timeout=600)


class TestSweepConformance:
    SWEEP_PARAMS = {
        "busy_device_hours": 1000.0,
        "ranges": [
            {"name": "utilization", "lo": 0.3, "hi": 0.8, "points": 6},
            {"name": "pue", "lo": 1.05, "hi": 1.6, "points": 4},
            {"name": "intensity_scale", "lo": 0.25, "hi": 1.5, "points": 4},
        ],
        "sampling": "grid",
    }

    @staticmethod
    def _finish(client, sweep_id, deadline_s=30.0):
        import time

        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            poll = client.get(f"/sweep/{sweep_id}")
            assert poll.status == 200
            if poll.json()["status"] != "running":
                return poll.json()
            time.sleep(0.02)
        raise AssertionError("sweep did not finish within the deadline")

    def test_sweep_result_bytes_match_direct_execute(self, service):
        """Submit -> poll -> result equals the one-shot library payload."""
        _handle, client = service
        expected = render_payload(parse_query("sweep", dict(self.SWEEP_PARAMS)).execute())
        submitted = client.post("/sweep", dict(self.SWEEP_PARAMS))
        assert submitted.status in (200, 202)
        sweep_id = submitted.json()["sweep_id"]
        final = self._finish(client, sweep_id)
        assert final["status"] == "done"
        assert final["completed_points"] == final["total_points"] == 96
        result = client.get(f"/sweep/{sweep_id}/result")
        assert result.status == 200
        assert result.body == expected

    def test_resubmission_is_idempotent_and_warm(self, service):
        """Re-POSTing a finished spec rejoins the job: 200, same bytes."""
        _handle, client = service
        first = client.post("/sweep", dict(self.SWEEP_PARAMS))
        sweep_id = first.json()["sweep_id"]
        self._finish(client, sweep_id)
        again = client.post("/sweep", dict(self.SWEEP_PARAMS))
        assert again.status == 200
        assert again.json()["status"] == "done"
        assert again.json()["sweep_id"] == sweep_id
        assert (
            client.get(f"/sweep/{sweep_id}/result").body
            == client.get(f"/sweep/{sweep_id}/result").body
        )

    def test_sweep_listing_includes_job(self, service):
        _handle, client = service
        listing = client.get("/sweep")
        assert listing.status == 200
        assert any(
            job["status"] in ("running", "done")
            for job in listing.json()["sweeps"]
        )

    def test_bad_spec_is_structured_400(self, service):
        _handle, client = service
        bad = dict(self.SWEEP_PARAMS, ranges=[{"name": "tdp", "lo": 1, "hi": 2, "points": 2}])
        reply = client.post("/sweep", bad)
        assert reply.status == 400
        assert reply.json()["error"]["kind"] == "bad-request"

    def test_oversized_sweep_is_rejected(self, service):
        _handle, client = service
        huge = dict(self.SWEEP_PARAMS, sampling="sobol", n_points=50_000)
        reply = client.post("/sweep", huge)
        assert reply.status == 400
        assert "cap" in reply.json()["error"]["message"]
