"""Command-line experiment runner.

Usage::

    sustainable-ai list
    sustainable-ai run fig7
    sustainable-ai run all --jobs 4 --json results.json
    sustainable-ai run all --profile --cache-dir ~/.cache/sustainable-ai
    sustainable-ai report results.md
    sustainable-ai verify              # diff against golden/baselines.json
    sustainable-ai verify --update     # re-snapshot the baselines
    sustainable-ai verify --check-invariants --jobs 4
    sustainable-ai cache stats         # both substrate-cache tiers
    sustainable-ai cache clear
    sustainable-ai serve --port 8151 --workers 2   # carbon-query service
    sustainable-ai sweep --param utilization=0.3:0.9:16 --json sweep.json
    sustainable-ai sweep --sampling sobol --points 4096 --scalar-check 32

``run all``, ``report``, and ``verify`` fan experiments out across
``--jobs`` forked workers (default ``os.cpu_count()``), the pool of
:mod:`repro.service.pool`; ``--jobs 1`` or a single experiment runs
in-process.  Each experiment is deterministically seeded from its id, and
results are collected in registry order, so parallel runs produce payloads
byte-identical to sequential ones.

The fan-out degrades gracefully: an experiment that raises, kills its
worker, or exceeds ``--timeout`` never aborts the whole run, and its
failure is charged to it alone.  The ``--timeout`` clock starts when a
worker takes the experiment, and the worker is killed at the bound, so a
hung experiment cannot outlive the command.  Failed experiments are
retried up to ``--retries`` times with a reseeded RNG stream, and an
experiment that exhausts its budget resolves to a structured error record
(see :class:`~repro.experiments.base.RunRecord`) while the rest of the
suite completes.  ``--check-invariants`` additionally sweeps the
result-invariant registry (:mod:`repro.testing.invariants`) over every
completed result and enables the runtime accounting self-checks inside the
workers.

``sweep`` evaluates a what-if parameter sweep through the stacked kernel
(:mod:`repro.core.sweep`) and prints the tornado-sensitivity and
Pareto-frontier reports; ``--json`` writes the canonical payload with
bytes identical to the ``/sweep`` service endpoint, and ``--scalar-check
N`` spot-checks N points bit-for-bit against the retained scalar path.
Sweep chunks flow through the substrate cache, so an interrupted sweep
re-run with the same ``--cache-dir`` resumes from the completed chunks.

``--cache-dir PATH`` enables the content-addressed disk tier of the
substrate cache (:mod:`repro.core.diskcache`) for the run and exports it
to pool workers; ``--no-disk-cache`` forces it off.  ``run --profile``
times every experiment (wall/CPU/peak-RSS plus substrate-cache traffic),
prints a slowest-experiments report, and embeds the measurements in the
``--json`` envelope — without the flag the JSON output is byte-identical
to previous releases.

Exit codes: 0 success, 1 baseline drift / experiment failure / invariant
violation, 2 usage error (unknown experiment id, bad flag, missing
baselines file).
"""

from __future__ import annotations

import argparse
import difflib
import os
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.core import diskcache, ledger, memo
from repro.core.canonical import canonical_bytes, canonical_dumps
from repro.core.series import CHECK_ENV_VAR
from repro.experiments import golden, profiling
from repro.experiments.base import ExperimentResult, RunRecord
from repro.experiments.registry import experiment_ids, run_experiment

#: Default retry budget: one reseeded retry per failed experiment.
DEFAULT_RETRIES = 1

Echo = Callable[[str], None]


def _result_payload(result: ExperimentResult) -> dict[str, object]:
    """Stable JSON schema of one result (delegates to the result itself)."""
    return result.to_payload()


def _execute(
    exp_id: str,
    attempt: int = 0,
    in_worker: bool = True,
    profile: bool = False,
) -> dict[str, object]:
    """Worker body: run one experiment, return its payload + rendering.

    Fault-injection hooks (:mod:`repro.testing.faults`) fire here, before
    dispatch, so the production retry/degradation path is what gets
    exercised; with no faults declared in the environment both calls are
    no-ops.  With ``profile`` set, the execution is timed inside this
    process (the worker, for pooled runs) and the measurements ride back
    to the parent in the output dict.
    """
    from repro.testing import faults

    faults.install_memo_corruption()
    faults.inject(exp_id, attempt, hard_exit=in_worker)
    if not profile:
        with memo.collect_substrates() as collector:
            result = run_experiment(exp_id, attempt=attempt)
        return {
            "payload": _result_payload(result),
            "rendered": result.render(),
            "substrates": collector.pairs,
        }
    with profiling.ProfileTimer() as timer:
        with memo.collect_substrates() as collector:
            result = run_experiment(exp_id, attempt=attempt)
    assert timer.profile is not None
    return {
        "payload": _result_payload(result),
        "rendered": result.render(),
        "substrates": collector.pairs,
        "profile": timer.profile.to_payload(),
    }


def _failure(exc: BaseException) -> tuple[str, str]:
    """(error_kind, message) of an experiment that raised."""
    return "exception", f"{type(exc).__name__}: {exc}"


def _run_round_sequential(
    pending: Sequence[str],
    attempts: dict[str, int],
    outputs: dict[str, dict[str, object]],
    failures: dict[str, tuple[str, str]],
    profile: bool = False,
) -> list[str]:
    """One in-process attempt per pending experiment; returns retry list."""
    needs_retry = []
    for exp_id in pending:
        try:
            outputs[exp_id] = _execute(
                exp_id, attempts[exp_id], in_worker=False, profile=profile
            )
            failures.pop(exp_id, None)
        except Exception as exc:
            failures[exp_id] = _failure(exc)
            needs_retry.append(exp_id)
        attempts[exp_id] += 1
    return needs_retry


async def _run_pooled(
    exp_ids: Sequence[str],
    jobs: int,
    attempts: dict[str, int],
    outputs: dict[str, dict[str, object]],
    failures: dict[str, tuple[str, str]],
    retries: int,
    timeout: float | None,
    profile: bool = False,
) -> None:
    """Every attempt of every experiment on ``jobs`` worker processes.

    ``jobs`` lanes take the experiments in order and each runs one
    experiment's attempts back to back, so every attempt finds an idle
    worker and ``timeout`` starts when a worker takes it.  A worker that
    dies fails only its own attempt, and one still running at ``timeout``
    is killed.
    """
    import asyncio

    from repro.service.pool import WorkerCrash, WorkerPool

    pool = WorkerPool(jobs)
    queue = iter(exp_ids)

    async def lane() -> None:
        for exp_id in queue:
            for attempt in range(retries + 1):
                attempts[exp_id] = attempt + 1
                try:
                    outputs[exp_id] = await asyncio.wait_for(
                        pool.run(_execute, exp_id, attempt, True, profile), timeout
                    )
                    break
                except WorkerCrash:
                    failures[exp_id] = "crash", "worker process died before returning a result"
                except asyncio.TimeoutError:
                    failures[exp_id] = "timeout", "experiment exceeded the per-experiment --timeout"
                except Exception as exc:
                    failures[exp_id] = _failure(exc)

    try:
        await asyncio.gather(*(lane() for _ in range(jobs)))
    finally:
        pool.close()


def _run_many(
    exp_ids: Sequence[str],
    jobs: int,
    echo: Echo | None = None,
    retries: int = DEFAULT_RETRIES,
    timeout: float | None = None,
    profile: bool = False,
) -> list[RunRecord]:
    """Run experiments, fanning out across processes when ``jobs > 1``.

    Records always come back in ``exp_ids`` order regardless of ``jobs``,
    so parallel output is byte-identical to a sequential run.  Every
    experiment resolves to a :class:`RunRecord`; failures are retried with
    a reseeded RNG stream up to ``retries`` times before a structured
    error record is emitted in place of the result.
    """
    exp_ids = list(exp_ids)
    attempts = {exp_id: 0 for exp_id in exp_ids}
    outputs: dict[str, dict[str, object]] = {}
    failures: dict[str, tuple[str, str]] = {}

    if jobs > 1 and len(exp_ids) > 1:
        import asyncio

        asyncio.run(
            _run_pooled(exp_ids, jobs, attempts, outputs, failures, retries, timeout, profile)
        )
    else:
        pending = list(exp_ids)
        while pending:
            needs_retry = _run_round_sequential(
                pending, attempts, outputs, failures, profile
            )
            pending = [
                exp_id for exp_id in needs_retry if attempts[exp_id] <= retries
            ]

    records = []
    for exp_id in exp_ids:
        if exp_id in outputs:
            output = outputs[exp_id]
            measured = output.get("profile")
            record = RunRecord(
                experiment_id=exp_id,
                status="ok",
                attempts=max(1, attempts[exp_id]),
                payload=output["payload"],  # type: ignore[arg-type]
                rendered=output["rendered"],  # type: ignore[arg-type]
                profile=(
                    profiling.ExperimentProfile.from_payload(measured)  # type: ignore[arg-type]
                    if measured is not None
                    else None
                ),
                substrates=tuple(
                    (str(q), d) for q, d in output.get("substrates", ())  # type: ignore[union-attr]
                ),
            )
        else:
            kind, message = failures[exp_id]
            record = RunRecord(
                experiment_id=exp_id,
                status="failed",
                attempts=max(1, attempts[exp_id]),
                error_kind=kind,
                error_message=message,
            )
        if echo is not None:
            echo(
                f"ran {exp_id}"
                if record.ok
                else f"FAILED {exp_id} ({record.error_kind})"
            )
        records.append(record)
    return records


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _resolve_targets(experiment: str) -> tuple[str, ...] | None:
    """Expand an ``experiment`` argument to ids, or None if unknown."""
    ids = experiment_ids()
    if experiment == "all":
        return ids
    if experiment in ids:
        return (experiment,)
    return None


def _unknown_experiment(experiment: str) -> int:
    matches = difflib.get_close_matches(experiment, experiment_ids(), n=3, cutoff=0.4)
    hint = f"; did you mean: {', '.join(matches)}?" if matches else ""
    return _usage_error(
        f"unknown experiment {experiment!r}{hint} "
        "(run `sustainable-ai list` for all ids)"
    )


def _add_fanout_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="worker processes for fan-out (default: os.cpu_count())",
    )
    subparser.add_argument(
        "--retries",
        type=int,
        metavar="N",
        default=DEFAULT_RETRIES,
        help="reseeded retries per failed experiment (default: %(default)s)",
    )
    subparser.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "per-experiment bound in pooled runs, counted from when a worker "
            "takes the experiment; the worker is killed at it (default: none)"
        ),
    )
    subparser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help=(
            "enable the disk substrate cache at PATH (exported as "
            f"{diskcache.CACHE_DIR_ENV_VAR} so pool workers warm-start)"
        ),
    )
    subparser.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="disable the disk substrate cache even if the env var is set",
    )


class _CommandParser(argparse.ArgumentParser):
    """A subcommand parser that installs its flags when its command is parsed.

    The ``serve`` and ``fabric`` flags come from the service modules, which
    import asyncio and the whole service stack; installing them on first
    use keeps that import out of every other command.
    """

    def __init__(self, *args, install_flags: Callable | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._install_flags = install_flags

    def parse_known_args(self, args=None, namespace=None):
        if self._install_flags is not None:
            install, self._install_flags = self._install_flags, None
            install(self)
        return super().parse_known_args(args, namespace)


def _add_serve_flags(parser: argparse.ArgumentParser) -> None:
    from repro.service.app import add_serve_flags

    add_serve_flags(parser)
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help=(
            "enable the disk substrate cache at PATH (exported as "
            f"{diskcache.CACHE_DIR_ENV_VAR} so service workers warm-start)"
        ),
    )
    parser.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="disable the disk substrate cache even if the env var is set",
    )


def _add_fabric_flags(parser: argparse.ArgumentParser) -> None:
    from repro.service.router import add_fabric_flags

    add_fabric_flags(parser)


def _successful_results(records: Sequence[RunRecord]) -> dict[str, ExperimentResult]:
    return {r.experiment_id: r.result() for r in records if r.ok}


def _check_invariants(records: Sequence[RunRecord]) -> int:
    """Sweep result invariants over completed results; 0 if all hold."""
    from repro.testing.invariants import check_results

    report = check_results(_successful_results(records))
    print(report.render())
    return 0 if report.ok else 1


def _bundles_from_records(
    records: Sequence[RunRecord], *, invariant_status: str, recorded_at: float
) -> list[ledger.Bundle]:
    """One claim bundle per record — successes and structured failures."""
    return [
        golden.bundle_from_record(
            record, invariant_status=invariant_status, recorded_at=recorded_at
        )
        for record in records
    ]


def _ledger_command(
    args: argparse.Namespace, jobs: int, retries: int, timeout: float | None
) -> int:
    """``sustainable-ai ledger record|show|diff|trace|gc``."""
    directory = ledger.resolve_ledger_dir(getattr(args, "ledger_dir", None))
    if directory is None:
        return _usage_error(
            "no ledger directory: pass --ledger-dir PATH or set "
            f"{ledger.LEDGER_DIR_ENV_VAR}"
        )
    with ledger.Ledger.open(directory) as led:
        return _ledger_action(args, led, directory, jobs, retries, timeout)


def _ledger_action(
    args: argparse.Namespace,
    led: ledger.Ledger,
    directory: Path,
    jobs: int,
    retries: int,
    timeout: float | None,
) -> int:
    from repro.core.report import format_table

    if args.action == "record":
        targets = _resolve_targets(args.experiment)
        if targets is None:
            return _unknown_experiment(args.experiment)
        # A missing baselines file pins no epoch; a malformed one is a
        # usage error before anything runs, as it is for verify.
        baselines = golden.DEFAULT_BASELINES_PATH
        pin = baselines.exists()
        if pin:
            try:
                golden.load_baselines(baselines)
            except golden.BaselineError as exc:
                return _usage_error(str(exc.args[0] if exc.args else exc))
        echo = None if args.quiet else print
        records = _run_many(targets, jobs, echo=echo, retries=retries, timeout=timeout)
        failed = [r for r in records if not r.ok]
        invariant_status = "not-checked"
        invariant_exit = 0
        if args.check_invariants:
            invariant_exit = _check_invariants(records)
            invariant_status = "ok" if invariant_exit == 0 else "violated"
        recorded_at = args.recorded_at if args.recorded_at is not None else time.time()
        bundles = _bundles_from_records(
            records, invariant_status=invariant_status, recorded_at=recorded_at
        )
        if pin and golden.pin_golden_epoch(led, baselines):
            print(f"imported golden baselines as epoch {ledger.GOLDEN_EPOCH!r}")
        run_id = led.record_run(
            bundles,
            run_id=args.run_id,
            recorded_at=recorded_at,
            meta={"command": "ledger record", "targets": args.experiment},
        )
        print(
            f"recorded {len(bundles)} bundle(s) "
            f"({len(failed)} failed) as run {run_id!r} in {directory}"
        )
        return 1 if (failed or invariant_exit) else 0

    if args.action == "show":
        if args.payload and not args.experiment:
            return _usage_error("ledger show --payload requires --experiment")
        if args.ref is None:
            print(f"ledger at {directory}: {len(led.bundles)} bundle(s)")
            print(f"epochs ({len(led.epochs)}):")
            for name, entry in led.epochs.items():
                mapping = entry.get("experiments", {})
                print(f"  {name}: {len(mapping)} experiment(s)")  # type: ignore[arg-type]
            print(f"runs ({len(led.runs)}):")
            for run_id, run in led.runs.items():
                print(f"  {run_id}: {len(run.experiments)} experiment(s)")
            return 0
        try:
            bundles = led.resolve(args.ref)
        except ledger.LedgerError as exc:
            return _usage_error(str(exc))
        if args.experiment:
            bundle = bundles.get(args.experiment)
            if bundle is None:
                return _usage_error(
                    f"ref {args.ref!r} records no bundle for {args.experiment!r}"
                )
            if args.payload:
                try:
                    sys.stdout.write(bundle.reconstruct().decode("utf-8"))
                except ledger.LedgerError as exc:
                    return _usage_error(str(exc))
                return 0
            print(canonical_dumps({"bundle_id": bundle.bundle_id, **bundle.to_payload()}))
            return 0
        rows = [
            [eid, bundle.status, len(bundle.claims), bundle.bundle_id[:12]]
            for eid, bundle in bundles.items()
        ]
        print(f"ref {args.ref!r}: {len(bundles)} bundle(s)")
        print(format_table(("experiment", "status", "claims", "bundle"), rows))
        return 0

    if args.action == "diff":
        try:
            report = led.diff(args.a, args.b, strict=not args.partial)
        except ledger.LedgerError as exc:
            return _usage_error(str(exc))
        print(report.render())
        return 0 if report.ok else 1

    if args.action == "gc":
        older_than = args.cutoff
        if older_than is None and args.older_than_days is not None:
            if args.older_than_days < 0:
                return _usage_error(
                    f"--older-than-days must be >= 0, got {args.older_than_days}"
                )
            older_than = time.time() - args.older_than_days * 86_400.0
        gc_report = led.gc(older_than=older_than, dry_run=args.dry_run)
        print(f"ledger at {directory}:")
        print(gc_report.render())
        return 0

    # -- trace --------------------------------------------------------------
    try:
        doc = led.trace(args.experiment, args.metric, ref=args.ref)
    except ledger.LedgerError as exc:
        return _usage_error(str(exc))
    print(canonical_dumps(doc))
    return 0


def _cache_command(args: argparse.Namespace) -> int:
    """``sustainable-ai cache stats|clear`` over both cache tiers."""
    if args.cache_dir is not None:
        directory = Path(args.cache_dir)
    else:
        directory = diskcache.resolve_cache_dir() or diskcache.default_cache_dir()

    if args.action == "stats":
        print(f"disk cache directory: {directory}")
        stats = diskcache.disk_stats(directory)
        if not stats:
            print("  (no entries)")
        else:
            total_entries = 0
            total_bytes = 0
            for name in sorted(stats):
                row = stats[name]
                total_entries += row["entries"]
                total_bytes += row["bytes"]
                print(
                    f"  {name}: {row['entries']} entr"
                    f"{'y' if row['entries'] == 1 else 'ies'}, "
                    f"{row['bytes'] / 1024:.1f} KiB"
                )
            print(f"  total: {total_entries} entries, {total_bytes / 1024:.1f} KiB")
        names = sorted(memo.substrate_cache_info())
        print(f"registered substrates ({len(names)}):")
        for name in names:
            print(f"  {name}")
        return 0

    removed = diskcache.clear_disk(directory)
    memo.clear_substrate_caches()
    print(
        f"removed {removed} disk entr{'y' if removed == 1 else 'ies'} "
        f"from {directory} (and emptied the in-process caches)"
    )
    return 0


def _parse_sweep_ranges(entries: Sequence[str]) -> tuple:
    """``--param NAME=LO:HI[:POINTS]`` flags as ``ParameterRange`` objects."""
    from repro.core.sweep import read_range
    from repro.errors import UnitError

    ranges = []
    for entry in entries:
        name, sep, rest = entry.partition("=")
        parts = rest.split(":")
        if not sep or not name or len(parts) not in (2, 3):
            raise UnitError(
                "--param must look like NAME=LO:HI or NAME=LO:HI:POINTS, "
                f"got {entry!r}"
            )
        lo, hi, points = parts if len(parts) == 3 else (*parts, 5)
        ranges.append(read_range(name, lo, hi, points))
    return tuple(ranges)


def _sweep_command(args: argparse.Namespace) -> int:
    """``sustainable-ai sweep``: stacked what-if sweep plus its reports."""
    import time

    import numpy as np

    from repro.core.report import format_table
    from repro.core.scenario import evaluate_work
    from repro.core.sweep import DEFAULT_RANGES, SweepSpec, run_sweep, scenario_at
    from repro.errors import UnitError

    try:
        ranges = _parse_sweep_ranges(args.param or [])
        spec = SweepSpec(
            busy_device_hours=args.busy_hours,
            ranges=ranges or DEFAULT_RANGES,
            sampling=args.sampling,
            n_points=args.points,
            seed=args.seed,
            devices_per_server=args.devices_per_server,
        )
    except UnitError as exc:
        return _usage_error(str(exc))
    if args.chunk_points < 1:
        return _usage_error(f"--chunk-points must be >= 1, got {args.chunk_points}")
    if args.scalar_check < 0:
        return _usage_error(f"--scalar-check must be >= 0, got {args.scalar_check}")

    echo: Echo = (lambda _line: None) if args.quiet else print
    progress = None
    if not args.quiet:
        progress = lambda done, total: print(f"  evaluated {done}/{total} points")
    started = time.perf_counter()
    outcome = run_sweep(spec, chunk_points=args.chunk_points, progress=progress)
    elapsed = time.perf_counter() - started
    payload = outcome.to_payload(include_points=args.include_points)

    if args.scalar_check:
        n = len(outcome.results)
        picks = np.unique(np.linspace(0, n - 1, min(args.scalar_check, n)).astype(int))
        base = spec.base_scenario()
        diverged = []
        for i in picks:
            point = {name: float(axis[i]) for name, axis in outcome.params.items()}
            ref = evaluate_work(spec.busy_device_hours, scenario_at(base, point))
            stacked = (
                outcome.results.energy_kwh[i],
                outcome.results.operational_kg[i],
                outcome.results.embodied_kg[i],
            )
            if (ref.energy.kwh, ref.operational.kg, ref.embodied.kg) != stacked:
                diverged.append(int(i))
        if diverged:
            print(
                "error: stacked kernel diverged from the scalar path at "
                f"point(s) {diverged[:5]}",
                file=sys.stderr,
            )
            return 1
        echo(f"scalar spot-check: {len(picks)} point(s) bit-equal to the scalar path")

    headline = payload["headline"]
    rate = len(outcome.results) / elapsed if elapsed > 0 else float("inf")
    echo("")
    echo(
        f"=== stacked sweep: {len(outcome.results):,} scenario(s) "
        f"in {elapsed:.3f}s ({rate:,.0f}/s) ==="
    )
    for key, value in headline.items():  # type: ignore[union-attr]
        echo(f"  {key}: {value:,.4g}")
    echo("")
    echo("sensitivity (one-at-a-time swing, descending):")
    echo(
        format_table(
            ("parameter", "low_kg", "high_kg", "swing_kg"),
            [
                (b["parameter"], b["low_total_kg"], b["high_total_kg"], b["swing_kg"])
                for b in payload["sensitivity"]  # type: ignore[union-attr]
            ],
        )
    )
    echo("")
    pareto = payload["pareto"]  # type: ignore[assignment]
    echo(
        f"pareto frontier (top {min(len(pareto), 10)} "  # type: ignore[arg-type]
        f"of {headline['pareto_points']:.0f}):"  # type: ignore[index]
    )
    echo(
        format_table(
            ("index", "throughput", "total_kg"),
            [
                (row["index"], row["throughput"], row["total_kg"])
                for row in pareto[:10]  # type: ignore[index]
            ],
        )
    )

    if args.json:
        # The canonical serializer — the same bytes the /sweep service
        # endpoint and a direct library call produce for this spec.
        path = Path(args.json)
        path.write_bytes(canonical_bytes(payload))
        print(f"wrote sweep payload to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    checks = os.environ.get(CHECK_ENV_VAR)
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream consumer closed the pipe early (`... run all | head`).
        # Point stdout at /dev/null so interpreter shutdown doesn't raise
        # again while flushing, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        # --check-invariants switches the checks on for its command only;
        # a later command in this process runs as the environment says.
        if checks is None:
            os.environ.pop(CHECK_ENV_VAR, None)
        else:
            os.environ[CHECK_ENV_VAR] = checks


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(
        prog="sustainable-ai",
        description=(
            "Reproduce the figures and in-text experiments of 'Sustainable "
            "AI: Environmental Implications, Challenges and Opportunities' "
            "(MLSys 2022)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    sub.add_parser("list", help="list all experiment ids")

    report_parser = sub.add_parser(
        "report", help="run everything and write a markdown summary"
    )
    report_parser.add_argument(
        "output", nargs="?", default="results.md", help="markdown file to write"
    )
    _add_fanout_flags(report_parser)

    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id or 'all'")
    run_parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write structured results as a JSON file",
    )
    run_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the rendered tables (headlines only)",
    )
    run_parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="sweep the physical-invariant registry over the results",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "record per-experiment wall/CPU time, peak RSS and substrate "
            "cache traffic; prints a slowest-experiments report and adds a "
            "'profile' key to each --json record"
        ),
    )
    _add_fanout_flags(run_parser)

    verify_parser = sub.add_parser(
        "verify", help="re-run all experiments and diff against golden baselines"
    )
    verify_parser.add_argument(
        "--update",
        action="store_true",
        help="overwrite the baselines with this run instead of diffing",
    )
    verify_parser.add_argument(
        "--baselines",
        metavar="PATH",
        default=None,
        help=f"baselines file (default: {golden.DEFAULT_BASELINES_PATH})",
    )
    verify_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-experiment progress lines",
    )
    verify_parser.add_argument(
        "--check-invariants",
        action="store_true",
        help=(
            "also sweep the physical-invariant registry over the results "
            "(required with --update so epoch pins record a checked status)"
        ),
    )
    verify_parser.add_argument(
        "--ledger-dir",
        metavar="PATH",
        default=None,
        help=(
            "record this verify run's claim bundles in the ledger at PATH "
            f"(default: the {ledger.LEDGER_DIR_ENV_VAR} env var, if set)"
        ),
    )
    _add_fanout_flags(verify_parser)

    ledger_parser = sub.add_parser(
        "ledger",
        help="record, inspect, diff, and trace claim bundles (see docs/LEDGER.md)",
    )
    ledger_sub = ledger_parser.add_subparsers(dest="action", required=True)

    def _add_ledger_dir(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--ledger-dir",
            metavar="PATH",
            default=None,
            help=f"ledger directory (default: the {ledger.LEDGER_DIR_ENV_VAR} env var)",
        )

    ledger_record = ledger_sub.add_parser(
        "record", help="run experiments and record their claim bundles as a run"
    )
    ledger_record.add_argument(
        "experiment", nargs="?", default="all", help="experiment id or 'all'"
    )
    _add_ledger_dir(ledger_record)
    ledger_record.add_argument(
        "--run-id",
        metavar="ID",
        default=None,
        help="name the recorded run (default: a content hash of its bundles)",
    )
    ledger_record.add_argument(
        "--recorded-at",
        type=float,
        metavar="POSIX",
        default=None,
        help="timestamp stored in bundle provenance (default: now)",
    )
    ledger_record.add_argument(
        "--check-invariants",
        action="store_true",
        help="sweep the invariant registry; records ok/violated in provenance",
    )
    ledger_record.add_argument(
        "--quiet", action="store_true", help="suppress per-experiment progress lines"
    )
    _add_fanout_flags(ledger_record)

    ledger_show = ledger_sub.add_parser(
        "show", help="list refs, or the bundles/payload of one ref"
    )
    ledger_show.add_argument(
        "ref", nargs="?", default=None, help="epoch name or run id (omit to list all)"
    )
    ledger_show.add_argument(
        "--experiment",
        metavar="ID",
        default=None,
        help="show one experiment's full bundle instead of the ref table",
    )
    ledger_show.add_argument(
        "--payload",
        action="store_true",
        help=(
            "write the recorded result payload bytes (byte-identical to the "
            "original run --json record; requires --experiment)"
        ),
    )
    _add_ledger_dir(ledger_show)

    ledger_diff = ledger_sub.add_parser(
        "diff", help="claim-by-claim diff of two refs (baseline = first)"
    )
    ledger_diff.add_argument("a", help="baseline ref (epoch name or run id)")
    ledger_diff.add_argument("b", help="current ref (epoch name or run id)")
    ledger_diff.add_argument(
        "--partial",
        action="store_true",
        help="don't flag baseline experiments missing from the current ref",
    )
    _add_ledger_dir(ledger_diff)

    ledger_trace = ledger_sub.add_parser(
        "trace", help="resolve a headline metric to its substrate content hashes"
    )
    ledger_trace.add_argument("experiment", help="experiment id")
    ledger_trace.add_argument("metric", help="headline metric name")
    ledger_trace.add_argument(
        "--ref",
        metavar="REF",
        default=None,
        help="epoch/run to trace in (default: the latest run recording it)",
    )
    _add_ledger_dir(ledger_trace)

    ledger_gc = ledger_sub.add_parser(
        "gc",
        help="compact the journals and prune unpinned runs older than a cutoff",
    )
    ledger_gc.add_argument(
        "--older-than-days",
        type=float,
        metavar="DAYS",
        default=None,
        help="prune runs recorded more than DAYS days ago "
        "(default: prune nothing, only compact)",
    )
    ledger_gc.add_argument(
        "--cutoff",
        type=float,
        metavar="POSIX",
        default=None,
        help="explicit retention cutoff timestamp (overrides --older-than-days)",
    )
    ledger_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be pruned without touching the journals",
    )
    _add_ledger_dir(ledger_gc)

    sub.add_parser(
        "serve",
        help="serve carbon-footprint queries over JSON/HTTP (see docs/SERVICE.md)",
        install_flags=_add_serve_flags,
    )
    sub.add_parser(
        "fabric",
        help="route a multi-replica carbon-query fabric (see docs/SERVICE.md)",
        install_flags=_add_fabric_flags,
    )

    from repro.core.sweep import DEFAULT_CHUNK_POINTS

    sweep_parser = sub.add_parser(
        "sweep",
        help="run a stacked what-if scenario sweep (see docs/SWEEPS.md)",
    )
    sweep_parser.add_argument(
        "--param",
        action="append",
        metavar="NAME=LO:HI[:POINTS]",
        default=None,
        help=(
            "swept knob as NAME=LO:HI[:POINTS]; repeatable "
            "(default: the built-in 288-point grid over utilization, PUE, "
            "lifetime, and intensity scale)"
        ),
    )
    sweep_parser.add_argument(
        "--sampling",
        choices=("grid", "sobol"),
        default="grid",
        help="point layout: full grid or scrambled Sobol (default: %(default)s)",
    )
    sweep_parser.add_argument(
        "--points",
        type=int,
        metavar="N",
        default=1024,
        help="sample count for --sampling sobol (default: %(default)s)",
    )
    sweep_parser.add_argument(
        "--seed",
        type=int,
        metavar="N",
        default=0,
        help="Sobol scramble seed (default: %(default)s)",
    )
    sweep_parser.add_argument(
        "--busy-hours",
        type=float,
        metavar="H",
        default=1000.0,
        help="busy device-hours of work per scenario (default: %(default)s)",
    )
    sweep_parser.add_argument(
        "--devices-per-server",
        type=int,
        metavar="N",
        default=2,
        help="accelerators per amortized server (default: %(default)s)",
    )
    sweep_parser.add_argument(
        "--chunk-points",
        type=int,
        metavar="N",
        default=DEFAULT_CHUNK_POINTS,
        help="points per substrate-cache chunk (default: %(default)s)",
    )
    sweep_parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the canonical sweep payload (service-identical bytes)",
    )
    sweep_parser.add_argument(
        "--include-points",
        action="store_true",
        help="embed the per-point arrays in the --json payload",
    )
    sweep_parser.add_argument(
        "--scalar-check",
        type=int,
        metavar="N",
        default=0,
        help=(
            "spot-check N points bit-for-bit against the retained scalar "
            "path; exit 1 on any divergence"
        ),
    )
    sweep_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress lines and the printed reports",
    )
    sweep_parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help=(
            "enable the disk substrate cache at PATH so interrupted sweeps "
            f"resume from completed chunks (exported as "
            f"{diskcache.CACHE_DIR_ENV_VAR})"
        ),
    )
    sweep_parser.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="disable the disk substrate cache even if the env var is set",
    )

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear the substrate caches"
    )
    cache_parser.add_argument(
        "action", choices=("stats", "clear"), help="what to do with the caches"
    )
    cache_parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help=(
            "disk cache directory (default: the "
            f"{diskcache.CACHE_DIR_ENV_VAR} env var if it names a "
            "directory, else the per-user default)"
        ),
    )

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors via exit(2)
        return int(exc.code or 0)

    if args.command == "cache":
        return _cache_command(args)

    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None and getattr(args, "no_disk_cache", False):
        return _usage_error("--cache-dir and --no-disk-cache are mutually exclusive")
    if getattr(args, "no_disk_cache", False):
        # Exported (not just read) so pool workers see the same decision.
        os.environ[diskcache.CACHE_DIR_ENV_VAR] = "off"
    elif cache_dir is not None:
        os.environ[diskcache.CACHE_DIR_ENV_VAR] = str(Path(cache_dir))

    if args.command == "serve":
        from repro.errors import ServiceError
        from repro.service.app import config_from_args, serve

        try:
            config = config_from_args(args)
        except ServiceError as exc:
            return _usage_error(str(exc))
        return serve(config)

    if args.command == "fabric":
        from repro.errors import ServiceError
        from repro.service.router import router_config_from_args, run_router

        try:
            config = router_config_from_args(args)
        except ServiceError as exc:
            return _usage_error(str(exc))
        return run_router(config)

    if args.command == "sweep":
        return _sweep_command(args)

    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        return _usage_error(f"--jobs must be >= 1, got {jobs}")
    if jobs is None:
        jobs = os.cpu_count() or 1
    retries = getattr(args, "retries", DEFAULT_RETRIES)
    if retries < 0:
        return _usage_error(f"--retries must be >= 0, got {retries}")
    timeout = getattr(args, "timeout", None)
    if timeout is not None and timeout <= 0:
        return _usage_error(f"--timeout must be positive, got {timeout}")
    if getattr(args, "check_invariants", False):
        # Workers inherit the environment, so the runtime self-checks in
        # repro.core fire inside every experiment as well.
        os.environ[CHECK_ENV_VAR] = "1"

    if args.command == "list":
        for exp_id in experiment_ids():
            print(exp_id)
        return 0

    if args.command == "ledger":
        return _ledger_command(args, jobs, retries, timeout)

    if args.command == "report":
        path = Path(args.output)
        lines = [
            "# Live reproduction report",
            "",
            "Generated by `sustainable-ai report`.  One section per",
            "experiment: headline metrics, then the figure's rows.",
            "",
        ]
        records = _run_many(
            experiment_ids(), jobs, echo=print, retries=retries, timeout=timeout
        )
        for record in records:
            if not record.ok:
                lines.append(f"## {record.experiment_id} — FAILED")
                lines.append("")
                lines.append(
                    f"> {record.error_kind} after {record.attempts} attempt(s): "
                    f"{record.error_message}"
                )
                lines.append("")
                continue
            payload = record.payload or {}
            lines.append(f"## {payload['experiment_id']} — {payload['title']}")
            lines.append("")
            for key, value in payload["headline"].items():  # type: ignore[union-attr]
                lines.append(f"- **{key}**: {value:,.4g}")
            if payload["notes"]:
                lines.append("")
                lines.append(f"> {payload['notes']}")
            lines.append("")
        path.write_text("\n".join(lines))
        print(f"wrote {path}")
        return 0 if all(r.ok for r in records) else 1

    if args.command == "run":
        targets = _resolve_targets(args.experiment)
        if targets is None:
            return _unknown_experiment(args.experiment)
        records = _run_many(
            targets, jobs, retries=retries, timeout=timeout, profile=args.profile
        )
        for record in records:
            if not record.ok:
                print(record.describe_failure())
            elif args.quiet:
                payload = record.payload or {}
                print(f"=== {payload['experiment_id']}: {payload['title']} ===")
                for key, value in payload["headline"].items():  # type: ignore[union-attr]
                    print(f"  {key}: {value:,.4g}")
            else:
                print(record.rendered)
            print()
        if args.profile:
            profiles = profiling.profiles_from_records(records)
            if profiles:
                print(profiling.render_profile_report(profiles))
                print()
        if args.json:
            path = Path(args.json)
            payloads = [record.to_payload() for record in records]
            path.write_text(canonical_dumps(payloads))
            print(f"wrote {len(payloads)} result(s) to {path}")
        status = 0 if all(r.ok for r in records) else 1
        if args.check_invariants:
            status = max(status, _check_invariants(records))
        return status

    # -- verify ------------------------------------------------------------
    # Drift detection is a ledger diff: the checked-in baselines import as
    # epoch "0", this run's records become claim bundles, and the report
    # is the claim-by-claim diff of the two (golden.diff_run).
    baselines_path = (
        Path(args.baselines) if args.baselines else golden.DEFAULT_BASELINES_PATH
    )
    if args.update and not args.check_invariants:
        return _usage_error(
            "verify --update requires --check-invariants: refreshed baselines "
            "(and their epoch pin) must record a checked invariant status"
        )
    echo = None if args.quiet else print
    records = _run_many(
        experiment_ids(), jobs, echo=echo, retries=retries, timeout=timeout
    )
    failed = [r for r in records if not r.ok]
    ledger_dir = ledger.resolve_ledger_dir(getattr(args, "ledger_dir", None))
    recorded_at = time.time()
    if args.update:
        if failed:
            for record in failed:
                print(record.describe_failure(), file=sys.stderr)
            print(
                f"error: refusing to update baselines: {len(failed)} "
                "experiment(s) failed",
                file=sys.stderr,
            )
            return 1
        if _check_invariants(records) != 0:
            print(
                "error: refusing to update baselines: invariant violation(s)",
                file=sys.stderr,
            )
            return 1
        bundles = _bundles_from_records(records, invariant_status="ok", recorded_at=recorded_at)
        golden.write_baselines(baselines_path, golden.build_baselines(bundles))
        print(f"wrote {len(bundles)} baseline(s) to {baselines_path}")
        if ledger_dir is not None:
            with ledger.Ledger.open(ledger_dir) as led:
                run_id = led.record_run(
                    bundles,
                    recorded_at=recorded_at,
                    meta={"command": "verify --update"},
                )
                led.pin_epoch(
                    ledger.GOLDEN_EPOCH,
                    run_id=run_id,
                    meta={"source": "verify --update", "path": str(baselines_path)},
                )
            print(
                f"pinned epoch {ledger.GOLDEN_EPOCH!r} "
                f"({len(bundles)} bundle(s)) in {ledger_dir}"
            )
        return 0

    invariant_report = None
    invariant_status = "not-checked"
    if args.check_invariants:
        from repro.testing.invariants import check_results

        invariant_report = check_results(_successful_results(records))
        invariant_status = "ok" if invariant_report.ok else "violated"

    with ledger.Ledger.open(ledger_dir) if ledger_dir else ledger.Ledger.in_memory() as led:
        try:
            golden.pin_golden_epoch(led, baselines_path, replace=bool(args.baselines))
        except golden.BaselineError as exc:
            return _usage_error(str(exc.args[0] if exc.args else exc))
        bundles = _bundles_from_records(
            records, invariant_status=invariant_status, recorded_at=recorded_at
        )
        if ledger_dir is not None:
            led.record_run(bundles, recorded_at=recorded_at, meta={"command": "verify"})
        report = golden.diff_run(led.resolve(ledger.GOLDEN_EPOCH), bundles)
    print(report.render())
    status = 0 if report.ok else 1
    if invariant_report is not None:
        print(invariant_report.render())
        status = max(status, 0 if invariant_report.ok else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
