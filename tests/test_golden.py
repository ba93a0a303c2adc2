"""Golden-baseline subsystem tests: snapshot, the run diff, drift detection.

The integration test diffs the checked-in ``golden/baselines.json``
against a real full run (shared session fixture), which is what
``sustainable-ai verify`` does in CI.
"""

import json

import pytest

import repro
from repro.core.ledger import DEFAULT_REL_TOL
from repro.experiments import golden, registry
from repro.experiments.base import ExperimentResult, RunRecord


def _result(headline, experiment_id="fig7", rows=((1, 2),), tolerances=None):
    return ExperimentResult(
        experiment_id=experiment_id,
        title="t",
        headline=headline,
        headers=("a", "b"),
        rows=rows,
        tolerances=tolerances or {},
    )


def _bundle(result):
    """The claim bundle ``verify`` builds for a successful result."""
    record = RunRecord(result.experiment_id, "ok", 1, payload=result.to_payload())
    return golden.bundle_from_record(record)


def _diff(baselines, results, strict=True):
    """A run of ``results`` diffed against a baselines document, as ``verify`` does."""
    bundles = [_bundle(result) for result in results.values()]
    return golden.diff_run(golden.bundles_from_baselines(baselines), bundles, strict=strict)


class TestSnapshot:
    def test_snapshot_shape(self):
        snap = golden.snapshot(_bundle(_result({"x": 1.0, "a": 2.0})))
        assert list(snap["headline"]) == ["a", "x"]  # sorted for stable diffs
        assert snap["tolerances"] == {"a": DEFAULT_REL_TOL, "x": DEFAULT_REL_TOL}
        assert snap["headers"] == ["a", "b"]
        assert snap["n_rows"] == 1

    def test_result_tolerances_flow_into_snapshot(self):
        snap = golden.snapshot(_bundle(_result({"x": 1.0}, tolerances={"x": None})))
        assert snap["tolerances"] == {"x": None}


class TestCompare:
    def _baselines(self, result):
        return golden.build_baselines([_bundle(result)])

    def test_identical_run_is_ok(self):
        result = _result({"x": 1.0})
        report = _diff(self._baselines(result), {"fig7": result})
        assert report.ok
        assert report.n_experiments == 1
        assert report.n_metrics == 1
        assert "OK" in report.render()

    def test_metric_drift_detected(self):
        base = self._baselines(_result({"x": 1.0}))
        report = _diff(base, {"fig7": _result({"x": 1.0001})})
        assert not report.ok
        (drift,) = report.drifts
        assert drift.kind == "metric-drift"
        assert drift.metric == "x"
        assert drift.rel_error == pytest.approx(1e-4)
        assert "DRIFT" in report.render()

    def test_within_tolerance_passes(self):
        base = self._baselines(_result({"x": 1.0}, tolerances={"x": 0.01}))
        report = _diff(base, {"fig7": _result({"x": 1.0001})})
        assert report.ok

    def test_informational_metric_never_fails(self):
        base = self._baselines(_result({"x": 1.0}, tolerances={"x": None}))
        report = _diff(base, {"fig7": _result({"x": 99.0})})
        assert report.ok

    def test_zero_expected_uses_absolute_error(self):
        base = self._baselines(_result({"x": 0.0}, tolerances={"x": 0.5}))
        assert _diff(base, {"fig7": _result({"x": 0.4})}).ok
        assert not _diff(base, {"fig7": _result({"x": 0.6})}).ok

    def test_missing_and_new_metrics_flagged(self):
        base = self._baselines(_result({"x": 1.0, "y": 2.0}))
        report = _diff(base, {"fig7": _result({"x": 1.0, "z": 3.0})})
        kinds = sorted(d.kind for d in report.drifts)
        assert kinds == ["missing-metric", "new-metric"]

    def test_shape_changes_flagged(self):
        base = self._baselines(_result({"x": 1.0}, rows=((1, 2), (3, 4))))
        report = _diff(base, {"fig7": _result({"x": 1.0}, rows=((1, 2),))})
        assert [d.kind for d in report.drifts] == ["shape"]

    def test_missing_and_stale_baselines(self):
        base = self._baselines(_result({"x": 1.0}))
        other = _result({"x": 1.0}, experiment_id="fig8")
        report = _diff(base, {"fig8": other})
        kinds = sorted(d.kind for d in report.drifts)
        assert kinds == ["missing-baseline", "stale-baseline"]
        lenient = _diff(base, {"fig8": other}, strict=False)
        assert [d.kind for d in lenient.drifts] == ["missing-baseline"]


class TestBaselineIO:
    def test_roundtrip(self, tmp_path):
        doc = golden.build_baselines([_bundle(_result({"x": 1.0}))])
        path = tmp_path / "b.json"
        golden.write_baselines(path, doc)
        assert golden.load_baselines(path) == json.loads(json.dumps(doc))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(golden.BaselineError, match="not found"):
            golden.load_baselines(tmp_path / "nope.json")

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(golden.BaselineError, match="not valid JSON"):
            golden.load_baselines(path)
        path.write_text(json.dumps({"schema": 99, "experiments": {}}))
        with pytest.raises(golden.BaselineError, match="schema"):
            golden.load_baselines(path)


class TestCheckedInBaselines:
    """The repository's own golden file pins the full suite."""

    def test_full_suite_matches_checked_in_baselines(self, all_results):
        doc = golden.load_baselines(golden.DEFAULT_BASELINES_PATH)
        report = _diff(doc, all_results)
        assert report.ok, "\n" + report.render()
        assert report.n_experiments == len(all_results)
        assert report.n_metrics > 100

    def test_injected_perturbation_is_caught(self, all_results):
        doc = golden.load_baselines(golden.DEFAULT_BASELINES_PATH)
        doc["experiments"]["fig7"]["headline"]["total_gain"] *= 1.02
        report = _diff(doc, all_results)
        assert not report.ok
        assert any(
            d.experiment_id == "fig7" and d.metric == "total_gain"
            for d in report.drifts
        )


class TestVerifyExperiments:
    """``repro.verify_experiments``, narrowed to two experiments."""

    IDS = ("fig7", "fig9")

    @pytest.fixture
    def baselines(self, monkeypatch, tmp_path):
        monkeypatch.setattr(registry, "experiment_ids", lambda: self.IDS)
        doc = golden.load_baselines(golden.DEFAULT_BASELINES_PATH)
        doc["experiments"] = {exp_id: doc["experiments"][exp_id] for exp_id in self.IDS}
        path = tmp_path / "baselines.json"
        path.write_text(json.dumps(doc))
        return path

    def test_a_clean_run_is_ok(self, baselines):
        report = repro.verify_experiments(baselines, jobs=1)
        assert report.ok, "\n" + report.render()
        assert report.n_experiments == len(self.IDS)

    def test_a_failed_experiment_is_a_run_failure(self, baselines, monkeypatch):
        from repro.testing import faults

        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "raise:fig9")
        report = repro.verify_experiments(baselines, jobs=1)
        assert not report.ok
        assert [(d.experiment_id, d.kind) for d in report.drifts] == [("fig9", "run-failure")]
