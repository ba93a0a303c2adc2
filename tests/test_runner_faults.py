"""Fault-injection tests: the runner degrades gracefully under failure.

Faults are declared through the ``SUSTAINABLE_AI_FAULTS`` environment
variable (inherited by pool workers), so these tests exercise the real
production retry/timeout/degradation paths of
:mod:`repro.experiments.runner` — no runner code is stubbed out.
"""

import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.experiments.runner as runner_mod
from repro.core import ledger
from repro.errors import InjectedFault
from repro.experiments import golden
from repro.experiments.base import RunRecord
from repro.experiments.registry import run_experiment, stable_seed
from repro.experiments.runner import main
from repro.testing import faults
from repro.testing.faults import Fault, FaultPlan
from tests.serviceutil import group_members


@pytest.fixture
def small_registry(monkeypatch):
    """Patch the runner down to two fast experiments."""
    monkeypatch.setattr(runner_mod, "experiment_ids", lambda: ("fig7", "fig8"))


class TestFaultPlanParsing:
    def test_full_directive(self):
        plan = FaultPlan.from_spec("timeout:fig7:2.5@0,2")
        assert plan.faults == (
            Fault(mode="timeout", target="fig7", param=2.5, attempts=(0, 2)),
        )

    def test_default_params(self):
        assert FaultPlan.from_spec("timeout:fig7").faults[0].param == 30.0
        assert FaultPlan.from_spec("corrupt-memo:*").faults[0].param == 0.01
        assert FaultPlan.from_spec("raise:fig7").faults[0].param == 0.0

    def test_wildcards(self):
        fault = FaultPlan.from_spec("raise:*@*").faults[0]
        assert fault.matches("anything", 0)
        assert fault.matches("anything", 7)

    def test_attempt_scoping(self):
        fault = FaultPlan.from_spec("crash:fig7@0").faults[0]
        assert fault.matches("fig7", 0)
        assert not fault.matches("fig7", 1)
        assert not fault.matches("fig8", 0)

    def test_multiple_directives(self):
        plan = FaultPlan.from_spec("crash:fig7@0; timeout:fig8:1.0")
        assert len(plan.faults) == 2
        assert plan.first_match("timeout", "fig8", 3).param == 1.0
        assert plan.first_match("timeout", "fig7", 0) is None

    def test_empty_spec_is_falsy(self, monkeypatch):
        assert not FaultPlan.from_spec("")
        monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
        assert not FaultPlan.from_env()

    @pytest.mark.parametrize(
        "spec",
        ["explode:fig7", "raise:", "raise", "timeout:fig7:abc", "raise:fig7@x"],
    )
    def test_malformed_directives_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(spec)


class TestInject:
    def test_noop_without_plan(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
        faults.inject("fig7", 0)  # must not raise

    def test_raise_fires_only_on_matching_attempt(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "raise:fig7@1")
        faults.inject("fig7", 0)
        with pytest.raises(InjectedFault):
            faults.inject("fig7", 1)

    def test_crash_downgrades_in_process(self, monkeypatch):
        # hard_exit=False is the sequential path: the CLI process itself
        # must survive, so the crash becomes a catchable exception.
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "crash:fig7")
        with pytest.raises(InjectedFault):
            faults.inject("fig7", 0, hard_exit=False)


class TestRetryReseeding:
    def test_retry_attempts_reseed_deterministically(self):
        assert stable_seed("fig7", attempt=0) == stable_seed("fig7")
        assert stable_seed("fig7", attempt=1) != stable_seed("fig7", attempt=0)
        assert stable_seed("fig7", attempt=1) == stable_seed("fig7", attempt=1)


class TestRunWithFaults:
    def test_raise_fault_produces_structured_failure(self, capsys, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "raise:fig7")
        assert main(["run", "fig7", "--retries", "0"]) == 1
        out = capsys.readouterr().out
        assert "FAILED (exception after 1 attempt(s))" in out
        assert "injected failure for fig7" in out

    def test_fault_on_other_experiment_does_not_fire(self, capsys, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "raise:fig9")
        assert main(["run", "fig7", "--quiet"]) == 0

    def test_retry_with_reseed_recovers_transient_fault(self, capsys, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "raise:fig7@0")
        assert main(["run", "fig7", "--quiet"]) == 0  # default --retries 1
        assert "total_gain" in capsys.readouterr().out

    def test_worker_crash_degrades_not_aborts(
        self, tmp_path, capsys, monkeypatch, small_registry
    ):
        target = tmp_path / "out.json"
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "crash:fig7")
        code = main(
            ["run", "all", "--jobs", "2", "--retries", "0", "--quiet",
             "--json", str(target)]
        )
        assert code == 1
        payloads = {p["experiment_id"]: p for p in json.loads(target.read_text())}
        assert payloads["fig7"]["status"] == "failed"
        assert payloads["fig7"]["error"]["kind"] == "crash"
        assert payloads["fig7"]["attempts"] == 1
        # The sibling experiment still completed normally.
        assert "headline" in payloads["fig8"]

    def test_worker_crash_recovered_by_retry(
        self, capsys, monkeypatch, small_registry
    ):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "crash:fig7@0")
        assert main(["run", "all", "--jobs", "2", "--quiet"]) == 0

    def test_a_crash_is_charged_only_to_the_experiment_that_crashed(self, monkeypatch):
        # fig7 is still running in the other worker when fig8's worker dies.
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "crash:fig8;timeout:fig7:1.0")
        records = runner_mod._run_many(["fig7", "fig8"], jobs=2, retries=0)
        assert [(r.experiment_id, r.status, r.error_kind, r.attempts) for r in records] == [
            ("fig7", "ok", None, 1),
            ("fig8", "failed", "crash", 1),
        ]

    def test_a_lone_retry_stays_in_a_worker(self, monkeypatch):
        # Only fig8 is retried; its retry still runs, and crashes, in a worker.
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "raise:fig8@0;crash:fig8@1")
        records = runner_mod._run_many(["fig7", "fig8"], jobs=2, retries=1)
        assert [(r.experiment_id, r.status, r.error_kind, r.attempts) for r in records] == [
            ("fig7", "ok", None, 1),
            ("fig8", "failed", "crash", 2),
        ]

    def test_an_in_process_run_retries_each_experiment_back_to_back(self, monkeypatch):
        # The --jobs 1 lane, like a pooled one, finishes fig7's attempts
        # before fig8 starts, and calls _execute through the module.
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "raise:fig7@0")
        calls = []
        execute = runner_mod._execute

        def spy(exp_id, attempt, *args, **kwargs):
            calls.append((exp_id, attempt))
            return execute(exp_id, attempt, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "_execute", spy)
        records = runner_mod._run_many(["fig7", "fig8"], jobs=1, retries=1)
        assert [(r.experiment_id, r.status, r.attempts) for r in records] == [
            ("fig7", "ok", 2),
            ("fig8", "ok", 1),
        ]
        assert calls == [("fig7", 0), ("fig7", 1), ("fig8", 0)]

    def test_a_timed_out_worker_is_killed(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "timeout:fig7:15")
        started = time.monotonic()
        records = runner_mod._run_many(["fig7", "fig8"], jobs=2, retries=0, timeout=2.0)
        assert time.monotonic() - started < 10
        # Nothing is left for interpreter exit to join.
        assert multiprocessing.active_children() == []
        assert [(r.experiment_id, r.status, r.error_kind) for r in records] == [
            ("fig7", "failed", "timeout"),
            ("fig8", "ok", None),
        ]

    def test_timeout_fault_produces_timeout_record(
        self, capsys, monkeypatch, small_registry
    ):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "timeout:fig7:20.0")
        code = main(
            ["run", "all", "--jobs", "2", "--retries", "0", "--timeout", "2.0",
             "--quiet"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED (timeout after 1 attempt(s))" in out
        assert "exceeded the per-experiment --timeout" in out

    def test_report_renders_failed_sections(
        self, tmp_path, capsys, monkeypatch, small_registry
    ):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "raise:fig7")
        target = tmp_path / "report.md"
        assert main(["report", str(target), "--jobs", "1", "--retries", "0"]) == 1
        text = target.read_text()
        assert "## fig7 — FAILED" in text
        assert "exception after 1 attempt(s)" in text
        assert "## fig8 —" in text  # the healthy section still renders


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs Linux /proc")
class TestKilledRun:
    def test_sigterm_leaves_no_worker(self):
        """A pooled run killed mid-suite leaves no worker behind.

        Each worker holds only its own pipe end, so once the runner is gone
        it reads EOF after the experiment it is running, and exits.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "run", "all",
             "--jobs", "2", "--quiet"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while len(group_members(proc.pid)) < 3 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert len(group_members(proc.pid)) >= 3  # the runner and two workers

            os.kill(proc.pid, signal.SIGTERM)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while group_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert group_members(proc.pid) == []
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)


class TestVerifyWithFaults:
    def _write_baselines(self, path):
        assert (
            main(
                ["verify", "--update", "--check-invariants", "--quiet",
                 "--jobs", "1", "--baselines", str(path)]
            )
            == 0
        )

    def test_crash_surfaces_as_run_failure_drift(
        self, tmp_path, capsys, monkeypatch, small_registry
    ):
        baselines = tmp_path / "baselines.json"
        self._write_baselines(baselines)
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "crash:fig7")
        code = main(
            ["verify", "--quiet", "--jobs", "2", "--retries", "0",
             "--baselines", str(baselines)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "run-failure" in out
        assert "fig7" in out
        # No stale-baseline noise: the failure replaced it.
        assert "stale-baseline" not in out

    def test_update_refuses_to_snapshot_a_failing_run(
        self, tmp_path, capsys, monkeypatch, small_registry
    ):
        baselines = tmp_path / "baselines.json"
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "raise:fig7")
        code = main(
            ["verify", "--update", "--check-invariants", "--quiet", "--jobs", "1",
             "--retries", "0", "--baselines", str(baselines)]
        )
        assert code == 1
        assert "refusing to update" in capsys.readouterr().err
        assert not baselines.exists()

    def test_corrupt_memo_is_caught_by_golden_compare(self, monkeypatch):
        # Silent numeric corruption of a memoized substrate must surface
        # as metric drift.  The perturbation is non-uniform on purpose:
        # ratio headlines are invariant under uniform intensity scaling
        # (the saving-invariant-under-intensity-scaling law), so a uniform
        # corruption would cancel instead of drifting.
        from repro.core import memo

        monkeypatch.setenv(
            faults.FAULTS_ENV_VAR, "corrupt-memo:synthesize_grid_trace:0.05"
        )
        try:
            assert faults.install_memo_corruption()
            result = run_experiment("ablation-sched")
        finally:
            memo.set_substrate_corruptor(None)
        baselines = golden.load_baselines(golden.DEFAULT_BASELINES_PATH)
        record = RunRecord("ablation-sched", "ok", 1, payload=result.to_payload())
        report = golden.diff_run(
            golden.bundles_from_baselines(baselines),
            [golden.bundle_from_record(record)],
            strict=False,
        )
        assert any(d.kind == "metric-drift" for d in report.drifts)

    def test_no_corruptor_installed_without_directive(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
        assert not faults.install_memo_corruption()


class TestExitCodeContract:
    def test_bad_retries_is_usage_error(self, capsys):
        assert main(["run", "fig7", "--retries", "-1"]) == 2
        assert "--retries" in capsys.readouterr().err

    def test_bad_timeout_is_usage_error(self, capsys):
        assert main(["run", "fig7", "--timeout", "0"]) == 2
        assert "--timeout" in capsys.readouterr().err

    def test_success_failure_usage_triple(self, capsys, monkeypatch):
        assert main(["run", "fig7", "--quiet"]) == 0
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "raise:fig7")
        assert main(["run", "fig7", "--quiet", "--retries", "0"]) == 1
        assert main(["run", "fig99"]) == 2


class TestRunRecord:
    def test_ok_record_payload_is_plain_result_schema(self):
        result = run_experiment("fig7")
        record = RunRecord(
            experiment_id="fig7",
            status="ok",
            attempts=1,
            payload=result.to_payload(),
            rendered=result.render(),
        )
        assert record.ok
        assert record.to_payload() == result.to_payload()  # no envelope
        assert record.result().headline == result.headline

    def test_failed_record_envelope_and_rendering(self):
        record = RunRecord(
            experiment_id="fig7",
            status="failed",
            attempts=2,
            error_kind="crash",
            error_message="worker process died before returning a result",
        )
        assert not record.ok
        payload = record.to_payload()
        assert payload["status"] == "failed"
        assert payload["error"]["kind"] == "crash"
        with pytest.raises(ValueError):
            record.result()
        text = record.describe_failure()
        assert "FAILED (crash after 2 attempt(s))" in text

    def test_merge_failures_replaces_stale_with_run_failure(self):
        report = ledger.VerifyReport(
            drifts=(
                ledger.Drift("fig7", "stale-baseline", detail="no matching result"),
                ledger.Drift("fig8", "metric-drift", "total_gain", 1.0, 2.0, 1.0, 1e-6),
            ),
            n_experiments=1,
            n_metrics=5,
        )
        failed = [
            RunRecord(
                experiment_id="fig7",
                status="failed",
                attempts=2,
                error_kind="timeout",
                error_message="experiment exceeded the per-experiment --timeout",
            )
        ]
        merged = ledger.fold_failures(report, [golden.bundle_from_record(r) for r in failed])
        kinds = {(d.experiment_id, d.kind) for d in merged.drifts}
        assert ("fig7", "run-failure") in kinds
        assert ("fig7", "stale-baseline") not in kinds
        assert ("fig8", "metric-drift") in kinds
        assert "timeout after 2 attempt(s)" in merged.render()
