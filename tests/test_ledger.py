"""The claim ledger: content addressing, the store, diffs, and traces.

Covers the provenance-carrying bundle model end to end — stable bundle
ids, the append-only store (runs, epochs, corruption tolerance), the
claim-by-claim diff that backs ``sustainable-ai verify``, and the
``fold_failures`` edge cases of runs with failed experiments.
"""

import gc
import hashlib
import re
import shutil
import tracemalloc
from pathlib import Path

import pytest

from repro.core import ledger
from repro.core.canonical import canonical_bytes
from repro.core.ledger import (
    DEFAULT_REL_TOL,
    GOLDEN_EPOCH,
    LOCK_FILE,
    Bundle,
    Claim,
    Ledger,
    LedgerError,
    Provenance,
    SubstrateRef,
    bundle_from_payload,
    default_provenance,
    diff_bundles,
    fold_failures,
    run_id_for,
    units_for_metric,
)
from repro.experiments import golden
from repro.experiments.base import RunRecord


def make_bundle(
    experiment_id="fig-x",
    metrics=(("total_kg", 10.0),),
    status="ok",
    recorded_at=None,
    error=None,
    payload=None,
    shape=None,
    tolerance=DEFAULT_REL_TOL,
):
    claims = tuple(
        Claim(metric, value, units_for_metric(metric), tolerance)
        for metric, value in metrics
    )
    config = {} if shape is None else {"shape": shape}
    return Bundle(
        experiment_id=experiment_id,
        title=f"bundle {experiment_id}",
        status=status,
        claims=claims,
        provenance=default_provenance(config=config, recorded_at=recorded_at),
        payload=payload,
        error=error,
    )


class TestUnits:
    @pytest.mark.parametrize(
        "metric, unit",
        [
            ("total_kg", "kgCO2e"),
            ("facility_energy_kwh", "kWh"),
            ("intensity_kg_per_kwh", "kgCO2e/kWh"),
            ("embodied_tco2e", "tCO2e"),
            ("busy_device_hours", "h"),
            ("lifetime_years", "yr"),
            ("clean_region_energy_share", "ratio"),
            ("idle_fraction", "ratio"),
            ("best_region_saving_pct", "%"),
            ("total_gain", ""),
            ("deadline_misses", ""),
        ],
    )
    def test_suffix_convention(self, metric, unit):
        assert units_for_metric(metric) == unit


class TestContentAddressing:
    def test_bundle_id_ignores_the_timestamp(self):
        # Two identical results recorded at different times must share
        # one bundle — the ledger's dedup hinges on it.
        a = make_bundle(recorded_at=1000.0)
        b = make_bundle(recorded_at=2000.0)
        assert a.bundle_id == b.bundle_id

    def test_bundle_id_tracks_the_claims(self):
        assert (
            make_bundle(metrics=(("total_kg", 10.0),)).bundle_id
            != make_bundle(metrics=(("total_kg", 10.5),)).bundle_id
        )

    def test_bundle_id_tracks_the_config(self):
        assert (
            make_bundle(shape={"headers": ["a"], "n_rows": 3}).bundle_id
            != make_bundle(shape={"headers": ["b"], "n_rows": 3}).bundle_id
        )

    def test_payload_roundtrip_preserves_the_id(self):
        bundle = make_bundle(
            payload={"experiment_id": "fig-x", "headline": {"total_kg": 10.0}},
            recorded_at=123.0,
        )
        again = Bundle.from_payload(bundle.to_payload())
        assert again.bundle_id == bundle.bundle_id
        assert again.provenance.recorded_at == 123.0

    def test_schema_mismatch_is_rejected(self):
        payload = make_bundle().to_payload()
        payload["schema"] = 99
        with pytest.raises(LedgerError, match="schema"):
            Bundle.from_payload(payload)

    def test_reconstruct_replays_canonical_bytes(self):
        payload = {"experiment_id": "fig-x", "headline": {"total_kg": 10.0}}
        bundle = make_bundle(payload=payload)
        assert bundle.reconstruct() == canonical_bytes(payload)

    def test_reconstruct_requires_a_payload(self):
        with pytest.raises(LedgerError, match="no payload"):
            make_bundle(payload=None).reconstruct()


class TestBundleFromPayload:
    def test_runner_envelope(self):
        payload = {
            "experiment_id": "fig7",
            "title": "Figure 7",
            "headline": {"total_gain": 2.5, "total_kg": 1.0},
            "tolerances": {"total_kg": 1e-3},
            "headers": ["phase", "kg"],
            "rows": [[1, 2], [3, 4]],
        }
        bundle = bundle_from_payload(payload, substrates=[("gen", "abc")])
        assert bundle.experiment_id == "fig7"
        assert bundle.headline() == {"total_gain": 2.5, "total_kg": 1.0}
        assert bundle.claim("total_kg").tolerance == 1e-3
        assert bundle.claim("total_gain").tolerance == DEFAULT_REL_TOL
        assert bundle.shape() == {"headers": ["phase", "kg"], "n_rows": 2}
        assert bundle.provenance.substrates == (SubstrateRef("gen", "abc"),)

    def test_service_query_payload(self):
        payload = {"query": {"busy_device_hours": 10.0}, "headline": {"total_kg": 3.0}}
        bundle = bundle_from_payload(payload, kind="footprint")
        assert bundle.experiment_id.startswith("footprint:")
        assert bundle.claim("total_kg").units == "kgCO2e"

    def test_sweep_document(self):
        payload = {"spec": {"axes": []}, "headline": {"min_total_kg": 1.0}}
        bundle = bundle_from_payload(payload)
        assert bundle.experiment_id.startswith("sweep:")

    def test_headline_free_payloads_record_nothing(self):
        assert bundle_from_payload({"error": {"kind": "bad-request"}}) is None
        assert bundle_from_payload({"query": {}, "headline": {}}) is None


class TestDiffBundles:
    def test_identical_sets_are_clean(self):
        base = {"fig-x": make_bundle()}
        report = diff_bundles(base, {"fig-x": make_bundle()})
        assert report.ok
        assert report.n_experiments == 1
        assert report.n_metrics == 1
        assert "OK — no drift beyond tolerance" in report.render()

    def test_drift_beyond_tolerance_is_flagged(self):
        base = {"fig-x": make_bundle(metrics=(("total_kg", 10.0),))}
        cur = {"fig-x": make_bundle(metrics=(("total_kg", 10.1),))}
        report = diff_bundles(base, cur)
        (drift,) = report.drifts
        assert drift.kind == "metric-drift"
        assert drift.expected == 10.0 and drift.actual == 10.1
        assert drift.rel_error == pytest.approx(0.01)
        assert "DRIFT — 1 violation(s)" in report.render()

    def test_informational_claims_never_fail(self):
        base = {"fig-x": make_bundle(metrics=(("total_kg", 10.0),), tolerance=None)}
        cur = {"fig-x": make_bundle(metrics=(("total_kg", 99.0),), tolerance=None)}
        assert diff_bundles(base, cur).ok

    def test_metric_set_changes(self):
        base = {"fig-x": make_bundle(metrics=(("a_kg", 1.0), ("b_kg", 2.0)))}
        cur = {"fig-x": make_bundle(metrics=(("b_kg", 2.0), ("c_kg", 3.0)))}
        kinds = {(d.kind, d.metric) for d in diff_bundles(base, cur).drifts}
        assert kinds == {("missing-metric", "a_kg"), ("new-metric", "c_kg")}

    def test_shape_changes(self):
        base = {"fig-x": make_bundle(shape={"headers": ["a"], "n_rows": 3})}
        cur = {"fig-x": make_bundle(shape={"headers": ["a"], "n_rows": 4})}
        (drift,) = diff_bundles(base, cur).drifts
        assert drift.kind == "shape"
        assert "3 -> 4" in drift.detail

    def test_strictness_controls_stale_baselines(self):
        base = {"fig-x": make_bundle(), "fig-y": make_bundle("fig-y")}
        cur = {"fig-x": make_bundle()}
        strict = diff_bundles(base, cur, strict=True)
        assert [(d.experiment_id, d.kind) for d in strict.drifts] == [
            ("fig-y", "stale-baseline")
        ]
        assert diff_bundles(base, cur, strict=False).ok

    def test_unknown_experiment_needs_an_update(self):
        report = diff_bundles({}, {"fig-new": make_bundle("fig-new")})
        (drift,) = report.drifts
        assert drift.kind == "missing-baseline"
        assert "--update" in drift.detail


class TestFoldFailures:
    """`fold_failures` edge cases: failed runs folded into a diff."""

    def _failed_record(self, experiment_id, kind="crash", attempts=2):
        return RunRecord(
            experiment_id=experiment_id,
            status="failed",
            attempts=attempts,
            error_kind=kind,
            error_message=f"{experiment_id} died",
        )

    def test_all_failed_run(self):
        # Every experiment crashed: the diff sees an empty current set
        # (all baselines stale) and the fold must convert every stale
        # entry into an honest run-failure — no stale noise, no claims.
        base = {"fig-x": make_bundle(), "fig-y": make_bundle("fig-y")}
        failed = [
            golden.bundle_from_record(self._failed_record(eid)) for eid in base
        ]
        report = fold_failures(diff_bundles(base, {}), failed)
        assert {(d.experiment_id, d.kind) for d in report.drifts} == {
            ("fig-x", "run-failure"),
            ("fig-y", "run-failure"),
        }
        assert report.n_experiments == 0 and report.n_metrics == 0
        assert "crash after 2 attempt(s)" in report.render()

    def test_failure_replaces_previously_passing_metric(self):
        # fig-x passed in the baseline epoch but failed this run: its
        # stale-baseline entry is replaced, while the sibling's clean
        # claims keep counting toward the metric total.
        base = {"fig-x": make_bundle(), "fig-y": make_bundle("fig-y")}
        cur = {"fig-y": make_bundle("fig-y")}
        failed = [golden.bundle_from_record(self._failed_record("fig-x", "timeout"))]
        report = fold_failures(diff_bundles(base, cur), failed)
        kinds = {(d.experiment_id, d.kind) for d in report.drifts}
        assert kinds == {("fig-x", "run-failure")}
        assert report.n_metrics == 1
        assert "timeout after 2 attempt(s)" in report.render()

    def test_failed_bundles_carry_no_claims(self):
        bundle = golden.bundle_from_record(self._failed_record("fig-x"))
        assert bundle.status == "failed"
        assert bundle.claims == ()
        assert bundle.error["kind"] == "crash"


class TestGoldenImport:
    def test_baselines_import_pins_every_claim(self):
        doc = golden.load_baselines(golden.DEFAULT_BASELINES_PATH)
        bundles = golden.bundles_from_baselines(doc)
        assert len(bundles) == 49
        assert sum(len(b.claims) for b in bundles.values()) == 164
        sample = bundles["fig7"]
        assert sample.provenance.source == "golden-import"
        assert sample.payload is None
        assert sample.shape() is not None

    def test_import_diffs_clean_against_itself(self):
        doc = golden.load_baselines(golden.DEFAULT_BASELINES_PATH)
        bundles = golden.bundles_from_baselines(doc)
        report = diff_bundles(bundles, golden.bundles_from_baselines(doc))
        assert report.ok
        assert report.n_metrics == 164


class TestLedgerStore:
    def test_roundtrip_through_disk(self, tmp_path):
        led = Ledger.open(tmp_path)
        run_id = led.record_run(
            [make_bundle(), make_bundle("fig-y")], run_id="r1", recorded_at=5.0
        )
        led.pin_epoch("base", run_id="r1")
        again = Ledger.open(tmp_path)
        assert set(again.refs()) == {"base", "r1"}
        assert again.resolve("r1")["fig-x"].bundle_id == make_bundle().bundle_id
        assert again.runs[run_id].recorded_at == 5.0
        assert again.corrupt_lines == 0

    def test_recording_is_idempotent(self, tmp_path):
        led = Ledger.open(tmp_path)
        led.record_run([make_bundle()], run_id="r1")
        led.record_run([make_bundle()], run_id="r1")
        again = Ledger.open(tmp_path)
        assert len(again.bundles) == 1
        assert list(again.runs) == ["r1"]

    def test_update_run_appends_deltas(self, tmp_path):
        led = Ledger.open(tmp_path)
        led.update_run("service", make_bundle())
        led.update_run("service", make_bundle("fig-y"))
        again = Ledger.open(tmp_path)
        assert set(again.resolve("service")) == {"fig-x", "fig-y"}

    def test_corrupt_lines_are_counted_not_fatal(self, tmp_path):
        led = Ledger.open(tmp_path)
        led.record_run([make_bundle()], run_id="r1")
        with open(tmp_path / "bundles.jsonl", "a") as handle:
            handle.write('{"torn":\n')
        again = Ledger.open(tmp_path)
        assert again.corrupt_lines == 1
        assert again.resolve("r1")["fig-x"].headline() == {"total_kg": 10.0}

    def test_run_id_prefix_resolution(self):
        led = Ledger.in_memory()
        rid = led.record_run([make_bundle()])
        assert rid == run_id_for([make_bundle().bundle_id])
        assert led.resolve(rid[:6]) == led.resolve(rid)
        with pytest.raises(LedgerError, match="unknown ledger ref"):
            led.resolve("xyz")  # too short for prefix matching

    def test_pin_epoch_needs_exactly_one_source(self):
        led = Ledger.in_memory()
        with pytest.raises(LedgerError, match="exactly one"):
            led.pin_epoch("e")
        with pytest.raises(LedgerError, match="unknown run"):
            led.pin_epoch("e", run_id="nope")

    def test_latest_bundle_prefers_recent_runs(self):
        led = Ledger.in_memory()
        led.pin_epoch(GOLDEN_EPOCH, {"fig-x": make_bundle(metrics=(("total_kg", 1.0),))})
        led.record_run([make_bundle(metrics=(("total_kg", 2.0),))], run_id="r1")
        ref, bundle = led.latest_bundle("fig-x")
        assert ref == "r1" and bundle.claim("total_kg").value == 2.0
        ref, bundle = led.latest_bundle("fig-x", GOLDEN_EPOCH)
        assert ref == GOLDEN_EPOCH and bundle.claim("total_kg").value == 1.0

    def test_trace_names_the_substrate_digests(self):
        led = Ledger.in_memory()
        bundle = Bundle(
            experiment_id="fig-x",
            title="t",
            status="ok",
            claims=(Claim("total_kg", 1.0, "kgCO2e"),),
            provenance=default_provenance(
                substrates=[("synthesize_grid_trace", "a" * 64), ("gen", None)],
                invariant_status="ok",
            ),
        )
        led.record_run([bundle], run_id="r1")
        doc = led.trace("fig-x", "total_kg")
        assert doc["ref"] == "r1"
        assert doc["units"] == "kgCO2e"
        assert doc["provenance"]["invariant_status"] == "ok"
        assert doc["provenance"]["substrates"][0] == {
            "substrate": "synthesize_grid_trace",
            "digest": "a" * 64,
        }

    def test_trace_errors_are_actionable(self):
        led = Ledger.in_memory()
        led.record_run([make_bundle()], run_id="r1")
        with pytest.raises(LedgerError, match="no recorded bundle"):
            led.trace("fig-missing", "total_kg")
        with pytest.raises(LedgerError, match="claims: total_kg"):
            led.trace("fig-x", "nope")

    def test_diff_payload_document(self):
        led = Ledger.in_memory()
        led.pin_epoch("base", {"fig-x": make_bundle()})
        led.record_run([make_bundle(metrics=(("total_kg", 20.0),))], run_id="r1")
        doc = led.diff_payload("base", "r1")
        assert doc["a"] == "base" and doc["b"] == "r1"
        assert doc["ok"] is False
        assert doc["drifts"][0]["kind"] == "metric-drift"
        assert set(doc["code_versions"]) == {"a", "b"}

    def test_stats_summary(self, tmp_path):
        led = Ledger.open(tmp_path)
        led.record_run([make_bundle()], run_id="r1")
        stats = led.stats()
        assert stats["bundles"] == 1
        assert stats["runs"] == ["r1"]
        assert stats["directory"] == str(tmp_path)
        assert Ledger.in_memory().stats()["directory"] is None

    def test_journal_bytes_and_ids_are_pinned(self, tmp_path):
        """Fixed calls with fixed timestamps write fixed journal bytes.

        The code version is spelled out so the pin holds on every
        interpreter and numpy release.
        """

        def pinned(experiment_id, value, recorded_at):
            return Bundle(
                experiment_id=experiment_id,
                title=f"pinned {experiment_id}",
                status="ok",
                claims=(Claim("total_kg", value, "kgCO2e"),),
                provenance=Provenance(
                    code_version={"repro": "1.0", "numpy": "1.26", "python": "3.11"},
                    config={"query": {"busy_device_hours": value}},
                    substrates=(SubstrateRef("synthesize_grid_trace", "ab" * 32),),
                    invariant_status="ok",
                    recorded_at=recorded_at,
                    source="service",
                ),
                payload={"headline": {"total_kg": value}},
            )

        led = Ledger.open(tmp_path / "ledger")
        ids = [
            led.record_run(
                [pinned("fig-x", 1.5, 10.0), pinned("fig-y", 2.5, 11.0)],
                run_id="r1",
                recorded_at=12.0,
                meta={"jobs": 1},
            ),
            led.update_run("service", pinned("fig-z", 3.5, 20.0), recorded_at=21.0),
            # The same content re-recorded later: a runs delta, no new bundle line.
            led.update_run("service", pinned("fig-z", 3.5, 30.0), recorded_at=31.0),
        ]
        assert ids == [
            "r1",
            "dfe6f736147dba167b828180e39c935c323db1be72d9f6ea1683cc02cfcd951b",
            "dfe6f736147dba167b828180e39c935c323db1be72d9f6ea1683cc02cfcd951b",
        ]
        digests = {
            name: hashlib.sha256((tmp_path / "ledger" / name).read_bytes()).hexdigest()
            for name in ("bundles.jsonl", "runs.jsonl")
        }
        assert digests == {
            "bundles.jsonl": "a9d9c8bb76f874d33afdfe7f6198bacd280920c3373ccec4b09be4023864a63d",
            "runs.jsonl": "677ecdb833e2748c5aa4a9edb713af14b08b2a84511d295a48b510c8494f84b7",
        }
        assert ids[1] == pinned("fig-z", 3.5, 99.0).bundle_id

    def test_missing_directory_is_created_on_append(self, tmp_path):
        root = tmp_path / "absent" / "ledger"
        led = Ledger.open(root)
        assert not root.exists()
        first = led.update_run("service", make_bundle(), recorded_at=1.0)
        again = Ledger.open(root)
        assert again.corrupt_lines == 0
        assert again.resolve("service")["fig-x"].bundle_id == first
        # Removed between two appends: the next append creates it again.
        shutil.rmtree(tmp_path / "absent")
        second = led.update_run("service", make_bundle("fig-y"), recorded_at=2.0)
        again = Ledger.open(root)
        assert again.corrupt_lines == 0
        assert {eid: b.bundle_id for eid, b in again.resolve("service").items()} == {
            "fig-y": second
        }


def service_payload(index):
    """A footprint-shaped service payload of about 700 bytes."""
    return {
        "query": {"kind": "footprint", "busy_device_hours": 100.0 + index, "region": "us-east"},
        "headline": {"total_kg": 1.5 * index + 0.1, "embodied_kg": 0.5 * index + 0.7},
        "rows": [[f"phase-{row}", index * 0.1 + row / 7, row * 1.5] for row in range(17)],
    }


def service_bundle(index):
    return bundle_from_payload(
        service_payload(index),
        kind="footprint",
        substrates=[("synthesize_grid_trace", "ab" * 32)],
        invariant_status="ok",
        recorded_at=float(index),
    )


class TestLedgerIndex:
    @pytest.mark.parametrize("directory", [False, True], ids=["in-memory", "directory"])
    def test_a_bundle_reads_back_equal_to_the_one_recorded(self, tmp_path, directory):
        led = Ledger.open(tmp_path / "ledger") if directory else Ledger.in_memory()
        recorded = service_bundle(7)
        bundle_id = led.update_run("service", recorded, recorded_at=7.0)
        read = led.resolve("service")[recorded.experiment_id]
        assert read == recorded
        assert read.bundle_id == bundle_id
        assert read.reconstruct() == canonical_bytes(service_payload(7))
        assert led.bundles[bundle_id] == recorded
        assert led.latest_bundle(recorded.experiment_id) == ("service", recorded)

    def test_a_directory_ledger_retains_under_1_kib_per_bundle(self, tmp_path):
        led = Ledger.open(tmp_path / "ledger")
        # The first record opens the journals and fills one-time caches.
        led.update_run("service", service_bundle(-1), recorded_at=0.0)
        tracemalloc.start()
        try:
            for index in range(2000):
                led.update_run("service", service_bundle(index), recorded_at=float(index))
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained / 2000 <= 1024, f"{retained / 2000:.0f} bytes retained per bundle"
        assert len(Ledger.open(tmp_path / "ledger").resolve("service")) == 2001

    def test_opening_and_reading_create_nothing(self, tmp_path):
        missing = tmp_path / "absent"
        led = Ledger.open(missing)
        assert led.stats()["bundles"] == 0 and led.refs() == ()
        assert not missing.exists()
        root = tmp_path / "ledger"
        with Ledger.open(root) as writer:
            writer.record_run([make_bundle()], run_id="r1")
            writer.pin_epoch("base", run_id="r1")
        (root / LOCK_FILE).unlink()
        reader = Ledger.open(root)
        reader.resolve("r1")
        reader.diff("base", "r1")
        reader.trace("fig-x", "total_kg")
        reader.stats()
        assert not (root / LOCK_FILE).exists()


class TestLedgerDirResolution:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV_VAR, "/env/path")
        assert ledger.resolve_ledger_dir("/flag/path").name == "path"
        assert str(ledger.resolve_ledger_dir("/flag/path")) == "/flag/path"

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV_VAR, "/env/path")
        assert str(ledger.resolve_ledger_dir(None)) == "/env/path"
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV_VAR, "  ")
        assert ledger.resolve_ledger_dir(None) is None
        monkeypatch.delenv(ledger.LEDGER_DIR_ENV_VAR)
        assert ledger.resolve_ledger_dir(None) is None


CLAIM_PATTERN = re.compile(r"\bClaim\(")


def test_claims_are_built_only_in_the_ledger():
    """One helper in repro/core/ledger.py constructs every ``Claim``.

    A result, a service payload and a baselines entry all become claims
    through :func:`repro.core.ledger.claims_from_headline`, so a unit or
    default-tolerance rule cannot differ between the runner's bundles,
    the service's and the golden epoch's.
    """
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    sites = [
        f"{path.relative_to(src)}:{lineno}: {line.strip()}"
        for path in sorted(src.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if CLAIM_PATTERN.search(line)
    ]
    assert len(sites) == 1 and sites[0].startswith("core/ledger.py:"), (
        "Claim( constructed outside repro.core.ledger.claims_from_headline:\n"
        + "\n".join(sites)
    )
