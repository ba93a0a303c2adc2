"""The repository's end-to-end benchmark.  See perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the program started the way users start it
(``sustainable-ai verify|serve|fabric``), checks every output against the
library, prints each metric with its unit and sample count, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
workload runs untraced and then traced with the same seed, and the metrics
are the per-layer ones plus the tracing overhead.  Exits 1 when any
operation failed or a check did not hold, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("reproduce", "query-hot", "query-cold", "fabric-sharded")
#: The workloads BENCHMARK.json lists.  ``fabric-sharded`` stays runnable by
#: hand for work on the router and hash ring, but on a 2-vCPU host its
#: figures spread across seeds by up to a quarter of their median, too much
#: to judge a change by.
BENCHMARKED = WORKLOADS[:3]

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops", "op/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: Timed starts per run.  Each service start also serves one equal slice
#: of the measured phase, so per-process effects (hash seed, memory
#: layout, CPU placement) enter a run's medians three times, not once.
STARTS = 3

#: Keep-alive connections of the measured closed loop.  With one, the client
#: and the program take turns, so they share one CPU without waiting for
#: each other and the numbers do not depend on how busy the other CPU is.
CONNECTIONS = 1
#: The unmeasured warm-up pass uses two, so that filling the fabric's
#: caches (one execution per distinct key) takes half as long.
WARMUP_CONNECTIONS = 2

#: Measured-phase response-LRU hit ratio each service workload must show.
PREDICTED_HIT_RATIO = {"query-hot": 1.0, "query-cold": 0.0, "fabric-sharded": 1.0}


@dataclass
class Outcome:
    """Everything one (untraced or traced) pass of a workload measured."""

    setup_s: list[float] = field(default_factory=list)
    #: Operations completed and checked in the measured phase, and its length.
    completed: int = 0
    measured_s: float = 0.0
    latencies_ns: list[int] = field(default_factory=list)
    rss_mib: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layers: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    commands: list[list[str]] = field(default_factory=list)
    #: The CPU each measured slice ran on.
    cpus: list[int] = field(default_factory=list)
    digest: str = ""

    def count(self, phase) -> None:
        self.attempted += phase.attempted
        self.failed += phase.failed
        self.problems += phase.failures

    def e2e(self) -> dict[str, tuple[float, int, int]]:
        """(value, sample count, samples beyond) of every end-to-end metric."""
        from client import nearest_rank

        ordered = sorted(self.latencies_ns)
        p50, beyond50 = nearest_rank(ordered, 50)
        p99, beyond99 = nearest_rank(ordered, 99)
        return {
            "setup_s": (statistics.median(self.setup_s), len(self.setup_s), 0),
            "throughput_ops": (self.completed / self.measured_s, self.completed, 0),
            "latency_p50_ms": (p50 / 1e6, len(ordered), beyond50),
            "latency_p99_ms": (p99 / 1e6, len(ordered), beyond99),
            "peak_rss_mb": (statistics.median(self.rss_mib), len(self.rss_mib), 0),
        }


def hit_ratio_problem(workload: str, counters: dict[str, float]) -> str | None:
    """Why the measured phase broke the workload's cache prediction, if it did."""
    predicted = PREDICTED_HIT_RATIO[workload]
    if counters["cache.lookups"] and counters["cache.hit_ratio"] == predicted:
        return None
    return (
        f"measured-phase cache.hit_ratio {counters['cache.hit_ratio']} over "
        f"{counters['cache.lookups']:.0f} lookups, predicted {predicted}"
    )


def _launcher(*args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "launch.py"), *args]


def _program_argv(workload: str, ledger_dir: Path, trace_out: Path | None) -> list[str]:
    if workload == "fabric-sharded":
        args = ["fabric", "--replicas", "2", "--port", "0", "--ledger-dir", str(ledger_dir)]
    else:
        args = ["serve", "--port", "0", "--ledger-dir", str(ledger_dir)]
    if trace_out is None:
        return [sys.executable, "-m", "repro.experiments.runner", *args]
    return _launcher("--trace", "--out", str(trace_out), "--", *args)


def run_service(workload: str, seed: int, seconds: float, traced: bool, work: Path) -> Outcome:
    import decks
    import layers
    from client import get_json, run_phase
    from procs import Program, fastest_cpu

    out = Outcome()
    allowed = os.sched_getaffinity(0)
    deck = decks.build(workload, seed, seconds)
    expected = decks.expected_bodies(deck)
    out.digest = decks.digest(expected)

    def start(tag: str) -> tuple[Program, Path | None]:
        trace_out = work / f"{tag}.trace.json" if traced else None
        argv = _program_argv(workload, work / f"{tag}.ledger", trace_out)
        out.commands.append(argv)
        return Program(argv, work / "program.log"), trace_out

    # One untimed start compiles bytecode and fills the page cache.
    program, _ = start("warm")
    try:
        program.banner_port()
    finally:
        program.stop()

    slice_len = len(deck.measured) // STARTS
    pairs, traces = [], []
    for index in range(STARTS):
        ops = deck.measured if deck.cycle else deck.measured[index * slice_len:(index + 1) * slice_len]
        program, trace_out = start(f"start{index}")
        try:
            port = program.banner_port()
            probe = run_phase(port, decks.stream(deck.setup, expected, False), None, 1)
            out.setup_s.append((probe.end_ns - program.spawn_ns) / 1e9)
            warm = run_phase(
                port, decks.stream(deck.warmup, expected, False), None, WARMUP_CONNECTIONS
            )
            # The client and every program process share one CPU while
            # measuring, the one that is faster at this moment.
            cpu = fastest_cpu()
            out.cpus.append(cpu)
            program.pin({cpu})
            os.sched_setaffinity(0, {cpu})
            try:
                before = get_json(port, "/metrics")
                phase = run_phase(
                    port, decks.stream(ops, expected, deck.cycle), seconds / STARTS, CONNECTIONS
                )
                after = get_json(port, "/metrics")
            finally:
                os.sched_setaffinity(0, allowed)
            out.rss_mib.append(program.peak_rss_mib())
        finally:
            status = program.stop()
        if status != 0:
            out.problems.append(f"program exited {status} after SIGTERM")
        for done in (probe, warm, phase):
            out.count(done)
        out.completed += phase.ok
        out.measured_s += phase.seconds
        out.latencies_ns += phase.latencies_ns
        pairs.append((before, after))
        if phase.exhausted:
            out.notes.append(f"start {index}: deck slice exhausted after {phase.seconds:.2f}s")
        if trace_out is not None:
            traces.append((json.loads(trace_out.read_text()), (phase.start_ns, phase.end_ns)))
    counters = layers.service_counters(pairs)
    problem = hit_ratio_problem(workload, counters)
    if problem:
        out.problems.append(problem)
    if traced:
        out.layers = {
            **layers.launcher_metrics([record for record, _window in traces]),
            **layers.span_metrics([(record["spans"], window) for record, window in traces]),
        }
    out.layers.update(counters)
    return out


def run_reproduce(seed: int, seconds: float, traced: bool, work: Path) -> Outcome:
    import layers
    from launch import READY_LINE
    from procs import Program

    out = Outcome()

    def ready(program: Program) -> float:
        line = program.read_line()
        if line != READY_LINE:
            raise RuntimeError(f"unexpected ready line: {line!r}")
        return (time.perf_counter_ns() - program.spawn_ns) / 1e9

    probe = _launcher("--ready-only", "--", "verify")
    out.commands.append(probe)
    for index in range(STARTS):
        program = Program(probe, work / "program.log")
        try:
            took = ready(program)
        finally:
            program.stop()
        if index:  # the first start is the untimed one
            out.setup_s.append(took)

    verify = ["verify", "--jobs", "1", "--quiet"]
    passes = 0
    records = []
    while passes == 0 or out.measured_s < seconds:
        record_path = work / f"verify{passes}.json"
        argv = _launcher("--out", str(record_path), *(["--trace"] if traced else []), "--", *verify)
        out.commands.append(argv)
        program = Program(argv, work / "program.log")
        try:
            out.setup_s.append(ready(program))
            ready_ns = time.perf_counter_ns()
            status = program.wait(170)
            # The latency of reproduce is what a reproducer waits for: one
            # verify pass, ready line to exit.
            out.latencies_ns.append(time.perf_counter_ns() - ready_ns)
            out.measured_s += out.latencies_ns[-1] / 1e9
            report = program.rest_of_output()
        finally:
            program.stop()
        passes += 1
        record = json.loads(record_path.read_text())
        records.append(record)
        out.rss_mib.append(program.maxrss_kib / 1024.0)
        ops = record.get("ops", [])
        failed = {e for e, _s, _t, ok in ops if not ok} | set(record.get("verify", {}).get("drifted", []))
        if status != 0 or not record.get("verify", {}).get("ok") or "OK — no drift" not in report:
            out.problems.append(f"verify exited {status}: {report.strip()[-300:]}")
            failed = failed or {"verify"}
        out.attempted += len(ops)
        out.failed += len(failed)
        out.completed += len(ops) - len(failed)
    if traced:
        out.layers = layers.launcher_metrics(records)
    return out


def run(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    work = ROOT / ".perfbench_runs" / f"{workload}-{seed}-{os.getpid()}-{int(traced)}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "reproduce":
            outcome = run_reproduce(seed, seconds, traced, work)
        else:
            outcome = run_service(workload, seed, seconds, traced, work)
        if outcome.problems:
            _show_program_log(work)
        return outcome
    except Exception:
        _show_program_log(work)
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _show_program_log(work: Path, limit: int = 4000) -> None:
    """Copy the end of the programs' stderr to ours before it is removed."""
    try:
        tail = (work / "program.log").read_bytes()[-limit:]
    except OSError:
        return
    if tail:
        print("--- end of the program's stderr ---", file=sys.stderr)
        print(tail.decode("utf-8", "replace"), file=sys.stderr)


def report(workload: str, outcome: Outcome, label: str) -> None:
    print(f"[{workload}] {label}: attempted={outcome.attempted} failed={outcome.failed}")
    for name, unit in END_TO_END:
        value, samples, beyond = outcome.e2e()[name]
        extra = ""
        if name == "latency_p99_ms":
            extra = f", {beyond} beyond" + ("" if beyond >= 10 else ": fewer than 10, does not count")
        print(f"[{workload}]   {name} = {value:.6g} {unit} (n={samples}{extra})")
    if outcome.digest:
        print(f"[{workload}]   oracle digest sha256:{outcome.digest}")
    if outcome.cpus:
        print(f"[{workload}]   measured slices ran on CPUs {outcome.cpus}")
    for note in outcome.notes:
        print(f"[{workload}]   note: {note}")
    for problem in outcome.problems:
        print(f"[{workload}]   FAILED: {problem}")
        print(f"[{workload}] {label} FAILED: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "experiments" / "runner.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    from procs import bytecode_record, machine_record

    bytecode = bytecode_record()
    untraced = run(args.workload, args.seed, args.seconds, traced=False)
    outcomes = [untraced]
    report(args.workload, untraced, "untraced")
    if args.trace:
        traced = run(args.workload, args.seed, args.seconds, traced=True)
        outcomes.append(traced)
        report(args.workload, traced, "traced")
    print("config: " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "bytecode": bytecode,
        "commands": sorted({" ".join(c) for o in outcomes for c in o.commands}),
    }, sort_keys=True))

    if args.trace:
        base, with_spans = untraced.e2e(), traced.e2e()
        units = {name: unit for name, unit, _better in layers.PER_LAYER}
        values = {name: traced.layers.get(name, 0.0) for name in units}
        for name, _unit in END_TO_END:
            values[f"overhead.{name}"] = with_spans[name][0] - base[name][0]
        for name, unit in units.items():
            print(f"[{args.workload}]   {name} = {values[name]:.6g} {unit}")
    else:
        values = {name: value for name, (value, _n, _b) in untraced.e2e().items()}
        units = dict(END_TO_END)
    failed = sum(o.failed for o in outcomes)
    correct = failed == 0 and not any(o.problems for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
