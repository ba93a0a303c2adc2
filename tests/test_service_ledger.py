"""The service's ledger surface: record-on-execute and /ledger endpoints.

Inline workers (``workers=0``) keep these fast; the service records every
executed query as a claim bundle in the run ``"service"``, auto-imports
the golden baselines as epoch "0", and answers ``/ledger``,
``/ledger/diff``, and ``/ledger/trace``.
"""

import pytest

from repro.core.ledger import GOLDEN_EPOCH, Ledger
from repro.core.series import CHECK_ENV_VAR
from repro.experiments.runner import main

from tests.serviceutil import running_service


@pytest.fixture(scope="module")
def service():
    with running_service() as (handle, client):
        yield handle, client


class TestLedgerSummary:
    def test_epoch_zero_is_imported_on_startup(self, service):
        _handle, client = service
        reply = client.get("/ledger")
        assert reply.status == 200
        doc = reply.json()
        assert GOLDEN_EPOCH in doc["epochs"]
        assert doc["bundles"] >= 45
        assert doc["errors"] == 0

    def test_metrics_carries_the_ledger_block(self, service):
        _handle, client = service
        doc = client.get("/metrics").json()
        assert doc["ledger"]["bundles"] >= 45
        assert doc["ledger"]["errors"] == 0

    def test_post_is_method_not_allowed(self, service):
        _handle, client = service
        assert client.post("/ledger", {}).status == 405

    def test_unknown_route_names_the_ledger_endpoints(self, service):
        _handle, client = service
        reply = client.get("/nope")
        assert reply.status == 404
        assert "/ledger/trace" in reply.json()["error"]["message"]
        # Ledger subpaths follow the service's prefix convention: wrong
        # method/path combinations under a known prefix get a 405.
        assert client.post("/ledger/diff", {}).status == 405


class TestRecordOnExecute:
    def test_experiment_queries_land_in_the_service_run(self, service):
        handle, client = service
        assert client.get("/experiments/fig7").status == 200
        led = handle.service.ledger
        assert "service" in led.runs
        bundle = led.resolve("service")["fig7"]
        assert bundle.status == "ok"
        assert bundle.provenance.source == "service"
        assert bundle.provenance.recorded_at is not None

    def test_cache_hits_do_not_rerecord(self, service):
        handle, client = service
        assert client.get("/experiments/fig8").status == 200
        before = len(handle.service.ledger.bundles)
        assert client.get("/experiments/fig8").status == 200  # LRU hit
        assert len(handle.service.ledger.bundles) == before

    def test_parameterized_queries_record_their_config(self, service):
        handle, client = service
        assert client.get("/footprint?busy_device_hours=123.5").status == 200
        led = handle.service.ledger
        eids = [e for e in led.resolve("service") if e.startswith("footprint:")]
        assert eids
        bundle = led.resolve("service")[eids[0]]
        config = bundle.provenance.config["query"]
        assert config["busy_device_hours"] == 123.5

    def test_recorded_payload_reconstructs_the_response_bytes(self, service):
        handle, client = service
        reply = client.get("/experiments/fig7")
        bundle = handle.service.ledger.resolve("service")["fig7"]
        assert bundle.reconstruct() == reply.body


class TestDiffEndpoint:
    def test_service_run_diffs_clean_against_the_golden_epoch(self, service):
        _handle, client = service
        client.get("/experiments/fig7")
        reply = client.get(f"/ledger/diff?a={GOLDEN_EPOCH}&b=service&strict=false")
        assert reply.status == 200
        doc = reply.json()
        # The experiment queries match their golden claims; ad-hoc
        # footprint queries have no baseline and are only flagged there.
        assert all(d["kind"] == "missing-baseline" for d in doc["drifts"])
        assert all(not d["experiment_id"].startswith("fig") for d in doc["drifts"])

    def test_self_diff_of_the_epoch_is_clean(self, service):
        _handle, client = service
        doc = client.get(f"/ledger/diff?a={GOLDEN_EPOCH}&b={GOLDEN_EPOCH}").json()
        assert doc["ok"] is True
        assert doc["n_experiments"] == 49
        assert doc["n_metrics"] == 164

    def test_missing_refs_are_bad_requests(self, service):
        _handle, client = service
        reply = client.get("/ledger/diff?a=0")
        assert reply.status == 400
        assert reply.json()["error"]["kind"] == "bad-request"

    def test_unknown_refs_are_bad_requests(self, service):
        _handle, client = service
        reply = client.get("/ledger/diff?a=0&b=never-recorded")
        assert reply.status == 400
        assert reply.json()["error"]["kind"] == "unknown-ref"


class TestTraceEndpoint:
    def test_traces_a_recorded_claim(self, service):
        handle, client = service
        client.get("/experiments/fig7")
        bundle = handle.service.ledger.resolve("service")["fig7"]
        metric = bundle.claims[0].metric
        reply = client.get(f"/ledger/trace?experiment_id=fig7&metric={metric}")
        assert reply.status == 200
        doc = reply.json()
        assert doc["ref"] == "service"
        assert doc["bundle_id"] == bundle.bundle_id
        assert doc["provenance"]["source"] == "service"

    def test_epoch_claims_are_traceable_without_execution(self, service):
        _handle, client = service
        reply = client.get(
            "/ledger/trace?experiment_id=ext-geo"
            f"&metric=geo_vs_single_region_saving&ref={GOLDEN_EPOCH}"
        )
        assert reply.status == 200
        assert reply.json()["provenance"]["source"] == "golden-import"

    def test_unknown_claims_are_404(self, service):
        _handle, client = service
        reply = client.get("/ledger/trace?experiment_id=fig7&metric=nope")
        assert reply.status == 404
        assert reply.json()["error"]["kind"] == "unknown-claim"

    def test_missing_params_are_bad_requests(self, service):
        _handle, client = service
        assert client.get("/ledger/trace?experiment_id=fig7").status == 400


class TestPersistentLedger:
    def test_ledger_dir_survives_the_service(self, tmp_path):
        ledger_dir = tmp_path / "led"
        with running_service(ledger_dir=str(ledger_dir)) as (_handle, client):
            assert client.get("/experiments/fig7").status == 200
        led = Ledger.open(ledger_dir)
        assert GOLDEN_EPOCH in led.epochs
        assert led.resolve("service")["fig7"].status == "ok"

    def test_the_runner_and_the_service_record_one_bundle(self, tmp_path, monkeypatch):
        # Both build a result's bundle with ledger.bundle_from_payload, so
        # `ledger record` and `GET /experiments/{id}` agree on everything
        # but who recorded it (and when).  Neither checks invariants here,
        # whatever an earlier test left in the environment.
        monkeypatch.delenv(CHECK_ENV_VAR, raising=False)
        argv = ["ledger", "record", "fig7", "--ledger-dir", str(tmp_path / "cli")]
        assert main([*argv, "--recorded-at", "0", "--jobs", "1", "--quiet"]) == 0
        with running_service(ledger_dir=str(tmp_path / "svc")) as (_handle, client):
            assert client.get("/experiments/fig7").status == 200
        _run, by_runner = Ledger.open(tmp_path / "cli").latest_bundle("fig7")
        by_service = Ledger.open(tmp_path / "svc").resolve("service")["fig7"]
        assert by_runner.claims == by_service.claims
        assert by_runner.provenance.config == by_service.provenance.config
        assert by_runner.payload == by_service.payload
        bodies = [by_runner.to_payload(), by_service.to_payload()]
        sources = [body["provenance"].pop("source") for body in bodies]
        assert sources == ["runner", "service"]
        for body in bodies:
            del body["provenance"]["recorded_at"]
        assert bodies[0] == bodies[1]
