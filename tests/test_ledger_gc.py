"""``Ledger.gc`` and the ``sustainable-ai ledger gc`` CLI.

The retention contract under test: epochs are the pins — every bundle
any epoch references (the golden epoch ``"0"`` included) survives every
gc pass no matter how old — while unpinned runs older than the cutoff
are pruned with their now-unreferenced bundles, and surviving journals
compact to one line per run/bundle (a long-lived service run's N delta
lines become 1).  Handles that share a directory, in one process or
several, lose nothing to another's gc, and a rewritten file keeps the
mode it had (or a plain new file's).
"""

import multiprocessing
import os
import stat
import time

import pytest

from repro.core import diskcache, ledger
from repro.core.ledger import GOLDEN_EPOCH, Ledger
from repro.experiments.runner import main
from tests.test_ledger import make_bundle


@pytest.fixture
def store(tmp_path):
    return Ledger.open(tmp_path / "ledger")


def bundle_for(exp_id, value=1.0):
    return make_bundle(experiment_id=exp_id, metrics=(("total_kg", value),))


class TestRetention:
    def test_old_runs_prune_and_their_bundles_go(self, store):
        store.record_run([bundle_for("fig-a")], run_id="old", recorded_at=1000.0)
        store.record_run([bundle_for("fig-b", 2.0)], run_id="new", recorded_at=9000.0)
        report = store.gc(older_than=5000.0)
        assert report.runs_pruned == ("old",)
        assert report.runs_kept == 1
        assert report.bundles_removed == 1
        reloaded = Ledger.open(store.directory)
        assert set(reloaded.runs) == {"new"}
        assert len(reloaded.bundles) == 1

    def test_runs_without_timestamps_are_never_pruned(self, store):
        store.record_run([bundle_for("fig-a")], run_id="undated")
        report = store.gc(older_than=1e12)
        assert report.runs_pruned == ()
        assert set(Ledger.open(store.directory).runs) == {"undated"}

    def test_no_cutoff_means_compaction_only(self, store):
        store.record_run([bundle_for("fig-a")], run_id="old", recorded_at=1.0)
        report = store.gc()
        assert report.runs_pruned == ()
        assert report.runs_kept == 1

    def test_epoch_pinned_bundles_survive_any_cutoff(self, store):
        pinned = bundle_for("fig-a")
        store.record_run([pinned], run_id="old", recorded_at=1000.0)
        store.pin_epoch("base", run_id="old")
        report = store.gc(older_than=1e12)
        # The run is pruned but its epoch-pinned bundle is not.
        assert report.runs_pruned == ("old",)
        assert report.bundles_removed == 0
        reloaded = Ledger.open(store.directory)
        assert pinned.bundle_id in reloaded.bundles
        assert reloaded.epochs["base"]["experiments"] == {"fig-a": pinned.bundle_id}

    def test_golden_epoch_zero_is_never_collected(self, store):
        golden = bundle_for("fig-g", 3.0)
        store.pin_epoch(GOLDEN_EPOCH, {"fig-g": golden})
        store.record_run([bundle_for("fig-a")], run_id="old", recorded_at=1000.0)
        report = store.gc(older_than=1e12)
        assert report.epochs_pinned == 1
        reloaded = Ledger.open(store.directory)
        assert golden.bundle_id in reloaded.bundles
        assert GOLDEN_EPOCH in reloaded.epochs


class TestCompaction:
    def test_service_delta_lines_consolidate_to_one_run_line(self, store):
        # The service's record-on-execute path appends one runs.jsonl
        # delta line per executed query; gc rewrites them as one line.
        for index in range(10):
            store.update_run(
                "service", bundle_for(f"fig-{index}"), recorded_at=9000.0
            )
        report = store.gc()
        assert report.lines_before == 10 + 10  # 10 bundle + 10 run deltas
        assert report.lines_after == 10 + 1
        assert report.bytes_after < report.bytes_before
        reloaded = Ledger.open(store.directory)
        assert len(reloaded.runs["service"].experiments) == 10

    def test_duplicate_bundle_lines_dedupe(self, store):
        bundle = bundle_for("fig-a")
        store.record_run([bundle], run_id="r1", recorded_at=9000.0)
        store.record_run([bundle], run_id="r2", recorded_at=9000.0)
        report = store.gc()
        assert report.bundles_kept == 1
        text = (store.directory / "bundles.jsonl").read_text()
        assert text.count(bundle.bundle_id) == 1

    def test_dry_run_reports_without_modifying(self, store):
        store.record_run([bundle_for("fig-a")], run_id="old", recorded_at=1000.0)
        before = (store.directory / "runs.jsonl").read_bytes()
        report = store.gc(older_than=5000.0, dry_run=True)
        assert report.dry_run
        assert report.runs_pruned == ("old",)
        assert (store.directory / "runs.jsonl").read_bytes() == before
        assert "old" in store.runs
        assert "would prune" in report.render()

    def test_in_memory_ledger_compacts_dicts_only(self):
        store = Ledger()
        store.record_run([bundle_for("fig-a")], run_id="old", recorded_at=1000.0)
        report = store.gc(older_than=5000.0)
        assert report.runs_pruned == ("old",)
        assert store.runs == {}
        assert report.lines_before == 0


def append_many(root, name, count, barrier):
    led = Ledger.open(root)
    barrier.wait(timeout=60)
    for index in range(count):
        led.update_run("service", bundle_for(f"{name}-{index}"), recorded_at=float(index))


def gc_until(root, done, barrier):
    led = Ledger.open(root)
    barrier.wait(timeout=60)
    deadline = time.monotonic() + 60
    while not done.exists() and time.monotonic() < deadline:
        led.gc()


class TestSharedDirectory:
    def test_gc_keeps_the_appends_of_another_handle(self, tmp_path):
        root = tmp_path / "ledger"
        first, second = Ledger.open(root), Ledger.open(root)
        first.update_run("service", bundle_for("fig-a"), recorded_at=1.0)
        first.update_run("service", bundle_for("fig-b", 2.0), recorded_at=2.0)
        second.update_run("service", bundle_for("fig-c", 3.0), recorded_at=3.0)
        second.gc()
        reloaded = Ledger.open(root)
        assert len(reloaded.bundles) == 3
        assert len(reloaded.runs["service"].experiments) == 3
        # The first handle's next append lands in the journals gc wrote.
        first.update_run("service", bundle_for("fig-d", 4.0), recorded_at=4.0)
        everything = {"fig-a", "fig-b", "fig-c", "fig-d"}
        assert set(Ledger.open(root).resolve("service")) == everything
        assert set(first.resolve("service")) == everything

    def test_writers_and_gc_in_several_processes_lose_nothing(self, tmp_path):
        root, done = tmp_path / "ledger", tmp_path / "writers-done"
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(4)
        writers = [
            context.Process(target=append_many, args=(root, f"w{n}", 150, barrier))
            for n in range(3)
        ]
        compactor = context.Process(target=gc_until, args=(root, done, barrier))
        for process in writers + [compactor]:
            process.start()
        for process in writers:
            process.join(timeout=120)
        done.touch()
        compactor.join(timeout=120)
        assert [p.exitcode for p in writers + [compactor]] == [0, 0, 0, 0]
        reloaded = Ledger.open(root)
        assert reloaded.corrupt_lines == 0
        assert len(reloaded.runs["service"].experiments) == 450
        assert len(reloaded.resolve("service")) == 450


class TestInterruptedGc:
    def test_a_failure_between_the_two_replaces_leaves_a_consistent_ledger(
        self, store, monkeypatch
    ):
        store.record_run([bundle_for("fig-a")], run_id="old", recorded_at=1000.0)
        store.record_run([bundle_for("fig-b", 2.0)], run_id="new", recorded_at=9000.0)
        store.pin_epoch("base", run_id="new")
        write_atomic = ledger.write_atomic
        calls = []

        def fail_second(path, *chunks):
            calls.append(path.name)
            if len(calls) == 2:
                raise OSError("disk full")
            write_atomic(path, *chunks)

        monkeypatch.setattr(ledger, "write_atomic", fail_second)
        with pytest.raises(OSError, match="disk full"):
            store.gc(older_than=5000.0)
        monkeypatch.undo()
        for handle in (Ledger.open(store.directory), store):
            assert set(handle.refs()) == {"base", "new"}
            for ref in handle.refs():
                assert set(handle.resolve(ref)) == {"fig-b"}
        # The next pass drops the bundle no run names any more.
        assert store.gc(older_than=5000.0).bundles_removed == 1


@pytest.fixture
def umask_022():
    previous = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(previous)


def mode_of(path):
    return stat.S_IMODE(path.stat().st_mode)


def plain_mode(directory):
    """The mode a plain new file in ``directory`` gets."""
    probe = directory / "probe"
    probe.write_bytes(b"")
    try:
        return mode_of(probe)
    finally:
        probe.unlink()


@pytest.mark.usefixtures("umask_022")
class TestFileModes:
    def test_modes_survive_gc_and_a_pin(self, tmp_path):
        store = Ledger.open(tmp_path / "ledger")
        store.record_run([bundle_for("fig-a")], run_id="a", recorded_at=1.0)
        store.pin_epoch("base", run_id="a")
        store.gc()
        expected = plain_mode(store.directory)
        for name in ("bundles.jsonl", "runs.jsonl", "epochs.json", "ledger.lock"):
            assert oct(mode_of(store.directory / name)) == oct(expected), name

    def test_a_chmod_of_a_journal_survives_gc_and_a_pin(self, tmp_path):
        store = Ledger.open(tmp_path / "ledger")
        store.record_run([bundle_for("fig-a")], run_id="a", recorded_at=1.0)
        store.pin_epoch("base", run_id="a")
        for name in ("bundles.jsonl", "epochs.json"):
            (store.directory / name).chmod(0o640)
        store.pin_epoch("again", run_id="a")
        store.gc()
        for name in ("bundles.jsonl", "epochs.json"):
            assert oct(mode_of(store.directory / name)) == oct(0o640), name

    def test_a_cache_entry_gets_a_plain_new_files_mode(self, tmp_path):
        entry = tmp_path / "entry.pkl"
        assert diskcache.store(entry, (1.0, 2.0))
        assert oct(mode_of(entry)) == oct(plain_mode(tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["entry.pkl"]


class TestCli:
    def test_gc_via_cutoff(self, store, capsys):
        store.record_run([bundle_for("fig-a")], run_id="old", recorded_at=1000.0)
        store.record_run([bundle_for("fig-b", 2.0)], run_id="new", recorded_at=9000.0)
        code = main(
            ["ledger", "gc", "--ledger-dir", str(store.directory), "--cutoff", "5000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pruned 1 run(s)" in out
        assert set(Ledger.open(store.directory).runs) == {"new"}

    def test_gc_dry_run_flag(self, store, capsys):
        store.record_run([bundle_for("fig-a")], run_id="old", recorded_at=1000.0)
        code = main(
            [
                "ledger",
                "gc",
                "--ledger-dir",
                str(store.directory),
                "--cutoff",
                "5000",
                "--dry-run",
            ]
        )
        assert code == 0
        assert "would prune 1 run(s)" in capsys.readouterr().out
        assert "old" in Ledger.open(store.directory).runs

    def test_gc_rejects_negative_age(self, store, capsys):
        code = main(
            [
                "ledger",
                "gc",
                "--ledger-dir",
                str(store.directory),
                "--older-than-days",
                "-1",
            ]
        )
        assert code == 2

    def test_gc_compact_only_default(self, store, capsys):
        for index in range(3):
            store.update_run("service", bundle_for(f"fig-{index}"), recorded_at=1.0)
        code = main(["ledger", "gc", "--ledger-dir", str(store.directory)])
        assert code == 0
        assert "pruned 0 run(s)" in capsys.readouterr().out
        assert len(Ledger.open(store.directory).runs["service"].experiments) == 3
