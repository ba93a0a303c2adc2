"""CLI runner tests: run/report/verify commands, exit codes, parallelism."""

import json

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments import golden
from repro.experiments.runner import main


@pytest.fixture
def small_registry(monkeypatch):
    """Patch the runner down to two fast experiments."""
    monkeypatch.setattr(runner_mod, "experiment_ids", lambda: ("fig7", "fig8"))


class TestCLI:
    def test_list_prints_all_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert "fig1" in out
        assert "fig12" in out
        assert "ext-moe" in out
        assert len(out) >= 30
        assert out[0] == "fig1"  # figures first, deterministically

    def test_run_single_experiment(self, capsys):
        assert main(["run", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "812" in out

    def test_run_quiet_headlines_only(self, capsys):
        assert main(["run", "fig7", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "total_gain" in out
        assert "cumulative gain" not in out  # the table column is suppressed

    def test_json_export(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["run", "fig8", "--json", str(target)]) == 0
        data = json.loads(target.read_text())
        assert len(data) == 1
        assert data[0]["experiment_id"] == "fig8"
        assert data[0]["headline"]["net_two_year_reduction"] == pytest.approx(0.285)
        assert data[0]["rows"]

    def test_unknown_experiment_exit_code_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "fig9" in err  # closest-match suggestion

    def test_bad_jobs_exit_code_2(self, capsys):
        assert main(["run", "fig7", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_argparse_usage_error_returns_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_report_writes_markdown(self, tmp_path, capsys, small_registry):
        target = tmp_path / "report.md"
        assert main(["report", str(target), "--jobs", "1"]) == 0
        text = target.read_text()
        assert "# Live reproduction report" in text
        assert "## fig7" in text
        assert "## fig8" in text
        assert "total_gain" in text
        # Every section carries its headline bullets.
        assert text.count("## ") == 2
        assert "- **total_gain**:" in text

    def test_run_all_json_roundtrip(self, tmp_path, capsys, small_registry):
        target = tmp_path / "all.json"
        assert main(["run", "all", "--quiet", "--jobs", "1", "--json", str(target)]) == 0
        data = json.loads(target.read_text())
        assert [p["experiment_id"] for p in data] == ["fig7", "fig8"]
        from repro.experiments.registry import run_experiment
        from repro.experiments.runner import _result_payload

        for payload in data:
            assert payload == _result_payload(run_experiment(payload["experiment_id"]))

    def test_parallel_json_identical_to_sequential(self, tmp_path, capsys, small_registry):
        seq = tmp_path / "seq.json"
        par = tmp_path / "par.json"
        assert main(["run", "all", "--quiet", "--jobs", "1", "--json", str(seq)]) == 0
        assert main(["run", "all", "--quiet", "--jobs", "2", "--json", str(par)]) == 0
        assert seq.read_bytes() == par.read_bytes()


class TestProfileFlag:
    def test_profile_prints_report_and_embeds_json(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["run", "fig7", "--quiet", "--profile", "--json", str(target)]) == 0
        out = capsys.readouterr().out
        assert "profile: slowest experiments" in out
        assert "profile: substrate cache" in out
        data = json.loads(target.read_text())
        profile = data[0]["profile"]
        assert profile["wall_s"] >= 0.0
        assert profile["cpu_s"] >= 0.0
        assert profile["peak_rss_kb"] > 0
        assert isinstance(profile["cache"], dict)

    def test_without_flag_json_has_no_profile_key(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["run", "fig7", "--quiet", "--json", str(target)]) == 0
        data = json.loads(target.read_text())
        assert "profile" not in data[0]
        assert "profile:" not in capsys.readouterr().out

    def test_profiled_json_matches_unprofiled_modulo_profile_key(
        self, tmp_path, capsys
    ):
        plain = tmp_path / "plain.json"
        profiled = tmp_path / "profiled.json"
        assert main(["run", "fig8", "--quiet", "--json", str(plain)]) == 0
        assert main(["run", "fig8", "--quiet", "--profile", "--json", str(profiled)]) == 0
        a = json.loads(plain.read_text())[0]
        b = json.loads(profiled.read_text())[0]
        b.pop("profile")
        assert a == b


class TestCacheCommand:
    # ``ext-autoscale`` is a cheap experiment that builds a memoized
    # substrate (``diurnal_demand``), so a cold run with the disk tier on
    # writes at least one entry.  The in-process tier is cleared first —
    # a warm memory tier would never consult the disk.
    @pytest.fixture(autouse=True)
    def _cold_memory_tier(self):
        from repro.core.memo import clear_substrate_caches

        clear_substrate_caches()

    def test_stats_on_populated_directory(self, tmp_path, monkeypatch, capsys):
        from repro.core.diskcache import CACHE_DIR_ENV_VAR

        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        assert main(["run", "ext-autoscale", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "entr" in out  # entry/entries rows
        assert "registered substrates" in out

    def test_clear_removes_entries(self, tmp_path, monkeypatch, capsys):
        from repro.core.diskcache import CACHE_DIR_ENV_VAR

        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        assert main(["run", "ext-autoscale", "--quiet"]) == 0
        assert list(tmp_path.rglob("*.pkl"))
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert not list(tmp_path.rglob("*.pkl"))

    def test_explicit_cache_dir_flag(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "empty")]) == 0
        out = capsys.readouterr().out
        assert "(no entries)" in out

    def test_run_cache_dir_flag_exports_env(self, tmp_path, monkeypatch, capsys):
        import os

        from repro.core.diskcache import CACHE_DIR_ENV_VAR

        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        assert main(
            ["run", "ext-autoscale", "--quiet", "--cache-dir", str(tmp_path)]
        ) == 0
        assert os.environ[CACHE_DIR_ENV_VAR] == str(tmp_path)
        assert list(tmp_path.rglob("*.pkl"))

    def test_no_disk_cache_flag_disables_tier(self, tmp_path, monkeypatch, capsys):
        from repro.core.diskcache import CACHE_DIR_ENV_VAR

        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        assert main(["run", "ext-autoscale", "--quiet", "--no-disk-cache"]) == 0
        assert not list(tmp_path.rglob("*.pkl"))

    def test_cache_dir_and_no_disk_cache_conflict(self, tmp_path, capsys):
        code = main(
            ["run", "fig7", "--cache-dir", str(tmp_path), "--no-disk-cache"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestSweepCommand:
    SMALL = ["--param", "utilization=0.3:0.9:8", "--param", "pue=1.1:1.6:4"]

    def test_default_grid_runs_and_reports(self, capsys):
        assert main(["sweep"]) == 0
        out = capsys.readouterr().out
        assert "stacked sweep: 288 scenario(s)" in out
        assert "sensitivity (one-at-a-time swing, descending):" in out
        assert "pareto frontier" in out
        assert "utilization" in out

    def test_json_bytes_match_service_serializer(self, tmp_path, capsys):
        """The CLI --json file is the canonical service/library bytes."""
        from repro.service import parse_query, render_payload

        target = tmp_path / "sweep.json"
        assert main(["sweep", *self.SMALL, "--quiet", "--json", str(target)]) == 0
        params = {
            "busy_device_hours": 1000.0,
            "ranges": [
                {"name": "utilization", "lo": 0.3, "hi": 0.9, "points": 8},
                {"name": "pue", "lo": 1.1, "hi": 1.6, "points": 4},
            ],
            "sampling": "grid",
        }
        assert target.read_bytes() == render_payload(
            parse_query("sweep", params).execute()
        )

    def test_scalar_check_passes_bit_for_bit(self, capsys):
        assert main(["sweep", *self.SMALL, "--scalar-check", "8"]) == 0
        assert "bit-equal to the scalar path" in capsys.readouterr().out

    def test_sobol_runs_are_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["--sampling", "sobol", "--points", "64", "--seed", "7", "--quiet"]
        assert main(["sweep", *flags, "--json", str(a)]) == 0
        assert main(["sweep", *flags, "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["headline"]["n_points"] == 64.0

    def test_quiet_suppresses_report(self, capsys):
        assert main(["sweep", *self.SMALL, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--param", "tdp=1:2"],
            ["sweep", "--param", "utilization"],
            ["sweep", "--param", "utilization=0.3"],
            ["sweep", "--param", "utilization=lo:0.9"],
            ["sweep", "--param", "utilization=0.3:0.9:2:9"],
            ["sweep", "--param", "utilization=0.9:0.3"],
            ["sweep", "--chunk-points", "0"],
            ["sweep", "--scalar-check", "-1"],
            ["sweep", "--cache-dir", "/tmp/x", "--no-disk-cache"],
        ],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--sampling", "sobol", "--points", "8", "--seed", "-1", "--param", "pue=1:2:2"],
                "parameter 'seed' must be in [0, 4294967295], got -1",
            ),
            (["--param", "pue=1:2:2.9"], "parameter 'points' must be an integer, got 2.9"),
            (["--param", "pue=0.5:2"], "parameter 'pue' must be in [1.0, 10.0], got 0.5"),
        ],
    )
    def test_a_sweep_the_library_cannot_run_exits_2(self, flags, message, capsys):
        """Sweep knobs go through the library's knob rows: a usage error, not a traceback."""
        assert main(["sweep", *flags, "--quiet"]) == 2
        assert message in capsys.readouterr().err

    def test_cache_dir_resumes_from_completed_chunks(self, tmp_path, monkeypatch, capsys):
        """A re-run with the same --cache-dir replays chunks from disk."""
        from repro.core.diskcache import CACHE_DIR_ENV_VAR
        from repro.core.sweep import sweep_chunk

        monkeypatch.setenv(CACHE_DIR_ENV_VAR, "off")
        flags = [*self.SMALL, "--chunk-points", "8", "--quiet"]
        assert main(["sweep", *flags, "--cache-dir", str(tmp_path)]) == 0
        assert list(tmp_path.rglob("*.pkl"))
        # Simulate a fresh process: the in-memory tier is gone, the disk
        # tier survives, so the second run is pure disk hits.
        sweep_chunk.cache_clear()
        assert main(["sweep", *flags, "--cache-dir", str(tmp_path)]) == 0
        # Every chunk misses the (cleared) memory tier but is served from
        # disk — no chunk is recomputed.
        info = sweep_chunk.cache_info()
        assert info.disk_hits == 4
        assert info.disk_misses == 0


class TestVerifyCommand:
    def test_update_then_verify_ok(self, tmp_path, capsys, small_registry):
        baselines = tmp_path / "baselines.json"
        assert main([
            "verify", "--update", "--check-invariants", "--quiet",
            "--jobs", "1", "--baselines", str(baselines),
        ]) == 0
        assert baselines.exists()
        assert main(["verify", "--quiet", "--jobs", "1", "--baselines", str(baselines)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_update_refuses_without_check_invariants(self, tmp_path, capsys, small_registry):
        baselines = tmp_path / "baselines.json"
        assert main([
            "verify", "--update", "--quiet", "--jobs", "1", "--baselines", str(baselines),
        ]) == 2
        assert "requires --check-invariants" in capsys.readouterr().err
        assert not baselines.exists()

    def test_drift_exit_code_1(self, tmp_path, capsys, small_registry):
        baselines = tmp_path / "baselines.json"
        assert main([
            "verify", "--update", "--check-invariants", "--quiet",
            "--jobs", "1", "--baselines", str(baselines),
        ]) == 0
        doc = json.loads(baselines.read_text())
        doc["experiments"]["fig7"]["headline"]["total_gain"] *= 1.05
        baselines.write_text(json.dumps(doc))
        assert main(["verify", "--quiet", "--jobs", "1", "--baselines", str(baselines)]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out
        assert "total_gain" in out

    def test_missing_baselines_exit_code_2(self, tmp_path, capsys, small_registry):
        missing = tmp_path / "nope.json"
        assert main(["verify", "--quiet", "--jobs", "1", "--baselines", str(missing)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_checked_in_baselines_cover_all_experiments(self):
        from repro.experiments.registry import experiment_ids

        doc = golden.load_baselines(golden.DEFAULT_BASELINES_PATH)
        assert set(doc["experiments"]) == set(experiment_ids())
