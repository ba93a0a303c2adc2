"""The ``sustainable-ai ledger`` CLI: record, show, diff, trace.

Runs against a temp ledger directory with the runner patched down to
fast experiments, exercising the full in-process CLI path (parse ->
execute -> record -> reload), including the byte-identity contract of
``ledger show --payload``.
"""

import json

import pytest

import repro.experiments.runner as runner_mod
from repro.core import ledger
from repro.core.canonical import canonical_bytes
from repro.core.ledger import GOLDEN_EPOCH, Ledger
from repro.experiments import golden
from repro.experiments.registry import run_experiment
from repro.experiments.runner import main
from repro.testing import faults


@pytest.fixture
def small_registry(monkeypatch):
    monkeypatch.setattr(runner_mod, "experiment_ids", lambda: ("fig7", "fig8"))


@pytest.fixture
def ledger_dir(tmp_path, monkeypatch):
    monkeypatch.delenv(ledger.LEDGER_DIR_ENV_VAR, raising=False)
    return tmp_path / "ledger"


def record(ledger_dir, *extra):
    return main(
        ["ledger", "record", "all", "--ledger-dir", str(ledger_dir),
         "--run-id", "r1", "--recorded-at", "1000.0", "--quiet", "--jobs", "1",
         *extra]
    )


class TestRecord:
    def test_records_a_run_and_pins_the_golden_epoch(
        self, ledger_dir, capsys, small_registry
    ):
        assert record(ledger_dir) == 0
        out = capsys.readouterr().out
        assert "recorded 2 bundle(s) (0 failed) as run 'r1'" in out
        assert "imported golden baselines as epoch '0'" in out
        led = Ledger.open(ledger_dir)
        assert set(led.resolve("r1")) == {"fig7", "fig8"}
        # golden/baselines.json auto-imports as epoch "0" on first record.
        assert GOLDEN_EPOCH in led.epochs
        assert len(led.resolve(GOLDEN_EPOCH)) == 49
        bundle = led.resolve("r1")["fig7"]
        assert bundle.provenance.recorded_at == 1000.0
        assert bundle.provenance.invariant_status == "not-checked"

    def test_check_invariants_stamps_provenance(
        self, ledger_dir, capsys, small_registry
    ):
        assert record(ledger_dir, "--check-invariants") == 0
        led = Ledger.open(ledger_dir)
        assert led.resolve("r1")["fig7"].provenance.invariant_status == "ok"

    def test_failed_experiments_are_recorded_and_exit_nonzero(
        self, ledger_dir, capsys, small_registry, monkeypatch
    ):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "raise:fig7")
        assert record(ledger_dir, "--retries", "0") == 1
        led = Ledger.open(ledger_dir)
        bundle = led.resolve("r1")["fig7"]
        assert bundle.status == "failed"
        assert bundle.error["kind"] == "exception"
        assert led.resolve("r1")["fig8"].status == "ok"

    def test_a_malformed_baselines_file_is_refused_before_anything_runs(
        self, ledger_dir, tmp_path, capsys, small_registry, monkeypatch
    ):
        baselines = tmp_path / "baselines.json"
        baselines.write_text("{not json")
        monkeypatch.setattr(golden, "DEFAULT_BASELINES_PATH", baselines)

        def run_many(*args, **kwargs):
            raise AssertionError("experiments ran before the baselines were read")

        monkeypatch.setattr(runner_mod, "_run_many", run_many)
        assert record(ledger_dir) == 2
        assert f"baselines file {baselines} is not valid JSON" in capsys.readouterr().err
        assert not ledger_dir.exists()

    def test_missing_ledger_dir_is_a_usage_error(self, capsys, small_registry):
        assert main(["ledger", "show"]) == 2
        err = capsys.readouterr().err
        assert "--ledger-dir" in err
        assert ledger.LEDGER_DIR_ENV_VAR in err

    def test_env_var_names_the_directory(
        self, tmp_path, capsys, small_registry, monkeypatch
    ):
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV_VAR, str(tmp_path / "env-led"))
        assert main(
            ["ledger", "record", "fig7", "--run-id", "r-env", "--quiet", "--jobs", "1"]
        ) == 0
        assert "r-env" in Ledger.open(tmp_path / "env-led").runs


class TestShow:
    def test_bare_show_lists_refs(self, ledger_dir, capsys, small_registry):
        record(ledger_dir)
        capsys.readouterr()
        assert main(["ledger", "show", "--ledger-dir", str(ledger_dir)]) == 0
        out = capsys.readouterr().out
        assert "r1" in out and GOLDEN_EPOCH in out

    def test_ref_table_lists_bundles(self, ledger_dir, capsys, small_registry):
        record(ledger_dir)
        capsys.readouterr()
        assert main(["ledger", "show", "r1", "--ledger-dir", str(ledger_dir)]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "fig8" in out

    def test_experiment_bundle_is_canonical_json(
        self, ledger_dir, capsys, small_registry
    ):
        record(ledger_dir)
        capsys.readouterr()
        assert main(
            ["ledger", "show", "r1", "--experiment", "fig7",
             "--ledger-dir", str(ledger_dir)]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["experiment_id"] == "fig7"
        assert doc["bundle_id"] == Ledger.open(ledger_dir).resolve("r1")["fig7"].bundle_id

    def test_payload_bytes_reconstruct_the_original_record(
        self, ledger_dir, capsys, small_registry
    ):
        # The acceptance contract: any historical report reconstructs
        # byte-identically from the ledger alone.
        record(ledger_dir)
        capsys.readouterr()
        assert main(
            ["ledger", "show", "r1", "--experiment", "fig7", "--payload",
             "--ledger-dir", str(ledger_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == canonical_bytes(run_experiment("fig7").to_payload())

    def test_payload_requires_an_experiment(self, ledger_dir, capsys, small_registry):
        record(ledger_dir)
        assert main(
            ["ledger", "show", "r1", "--payload", "--ledger-dir", str(ledger_dir)]
        ) == 2
        assert "--experiment" in capsys.readouterr().err


class TestDiff:
    def test_partial_diff_against_the_golden_epoch_is_clean(
        self, ledger_dir, capsys, small_registry
    ):
        record(ledger_dir)
        capsys.readouterr()
        assert main(
            ["ledger", "diff", GOLDEN_EPOCH, "r1", "--partial",
             "--ledger-dir", str(ledger_dir)]
        ) == 0
        assert "OK — no drift beyond tolerance" in capsys.readouterr().out

    def test_strict_diff_flags_the_unrun_experiments(
        self, ledger_dir, capsys, small_registry
    ):
        record(ledger_dir)
        capsys.readouterr()
        assert main(
            ["ledger", "diff", GOLDEN_EPOCH, "r1", "--ledger-dir", str(ledger_dir)]
        ) == 1
        assert "stale-baseline" in capsys.readouterr().out

    def test_unknown_ref_is_a_usage_error(self, ledger_dir, capsys, small_registry):
        record(ledger_dir)
        assert main(
            ["ledger", "diff", "nope", "r1", "--ledger-dir", str(ledger_dir)]
        ) == 2
        assert "unknown ledger ref" in capsys.readouterr().err


class TestTrace:
    def test_trace_resolves_provenance(self, ledger_dir, capsys, small_registry):
        record(ledger_dir, "--check-invariants")
        capsys.readouterr()
        metric = next(iter(run_experiment("fig7").headline))
        assert main(
            ["ledger", "trace", "fig7", metric, "--ledger-dir", str(ledger_dir)]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["experiment_id"] == "fig7"
        assert doc["metric"] == metric
        assert doc["ref"] == "r1"
        assert doc["provenance"]["invariant_status"] == "ok"
        assert doc["provenance"]["code_version"]["python"]

    def test_trace_names_substrate_digests_for_memoized_experiments(
        self, ledger_dir, capsys, monkeypatch
    ):
        monkeypatch.setattr(runner_mod, "experiment_ids", lambda: ("ablation-sched",))
        record(ledger_dir)
        capsys.readouterr()
        assert main(
            ["ledger", "trace", "ablation-sched", "shifting_saving",
             "--ledger-dir", str(ledger_dir)]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        substrates = doc["provenance"]["substrates"]
        assert any(
            ref["substrate"] == "synthesize_grid_trace" and ref["digest"]
            for ref in substrates
        )

    def test_unknown_claim_is_a_usage_error(self, ledger_dir, capsys, small_registry):
        record(ledger_dir)
        assert main(
            ["ledger", "trace", "fig7", "nope", "--ledger-dir", str(ledger_dir)]
        ) == 2
        assert "no claim 'nope'" in capsys.readouterr().err
