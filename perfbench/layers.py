"""Per-layer metrics: span statistics from a traced run plus counter deltas.

``_us`` metrics are the median duration per call inside the measured
phase, ``_s`` metrics are totals per run.  A span's self time is its
duration minus the part of it that its child spans cover.  Counts and
ratios come from the program's own ``/metrics``, read before and after the
measured phase.  A layer that did not run on a workload reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Iterable, Mapping, Sequence

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("setup.import_s", "s", "lower"),
    ("setup.init_s", "s", "lower"),
    ("http.read_us", "us", "lower"),
    ("http.encode_us", "us", "lower"),
    ("app.handle_us", "us", "lower"),
    ("app.self_us", "us", "lower"),
    ("app.rejected", "count", "lower"),
    ("queries.parse_us", "us", "lower"),
    ("queries.key_us", "us", "lower"),
    ("queries.execute_us", "us", "lower"),
    ("queries.render_us", "us", "lower"),
    ("cache.get_us", "us", "lower"),
    ("cache.put_us", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("batching.wait_us", "us", "lower"),
    ("batching.coalesced_ratio", "ratio", "higher"),
    ("pool.roundtrip_us", "us", "lower"),
    ("pool.ipc_us", "us", "lower"),
    ("memo.hit_ratio", "ratio", "higher"),
    ("memo.builds", "count", "lower"),
    ("ledger.record_us", "us", "lower"),
    ("ledger.errors", "count", "lower"),
    ("ledger.diff_s", "s", "lower"),
    ("router.handle_us", "us", "lower"),
    ("router.key_us", "us", "lower"),
    ("hashring.lookup_us", "us", "lower"),
    ("router.upstream_us", "us", "lower"),
    ("router.self_us", "us", "lower"),
    ("router.failovers", "count", "lower"),
    ("exp.text-sampling_s", "s", "lower"),
    ("exp.text-halflife_s", "s", "lower"),
    ("exp.ablation-nas_s", "s", "lower"),
    ("exp.ext-sdc_s", "s", "lower"),
    ("exp.ext-serving_s", "s", "lower"),
    ("exp.fig11_s", "s", "lower"),
    ("exp.rest_s", "s", "lower"),
    ("runner.self_s", "s", "lower"),
    ("overhead.setup_s", "s", "lower"),
    ("overhead.throughput_ops", "op/s", "higher"),
    ("overhead.latency_p50_ms", "ms", "lower"),
    ("overhead.latency_p99_ms", "ms", "lower"),
    ("overhead.peak_rss_mb", "MiB", "lower"),
)

#: Experiments reported on their own; every other one folds into exp.rest_s.
NAMED_EXPERIMENTS = (
    "text-sampling", "text-halflife", "ablation-nas", "ext-sdc", "ext-serving", "fig11",
)

#: Spans whose median duration per call is reported.
_SPAN_US = {
    "http.read": "http.read_us",
    "http.encode": "http.encode_us",
    "app.handle": "app.handle_us",
    "queries.parse": "queries.parse_us",
    "queries.key": "queries.key_us",
    "queries.execute": "queries.execute_us",
    "queries.render": "queries.render_us",
    "cache.get": "cache.get_us",
    "cache.put": "cache.put_us",
    "batching.wait": "batching.wait_us",
    "pool.roundtrip": "pool.roundtrip_us",
    "ledger.record": "ledger.record_us",
    "router.handle": "router.handle_us",
    "router.key": "router.key_us",
    "hashring.lookup": "hashring.lookup_us",
    "router.upstream": "router.upstream_us",
}
#: Spans whose median self time is reported.  The pool roundtrip's only
#: child is the worker's execute span, so its self time is the IPC cost.
_SELF_US = {
    "app.handle": "app.self_us",
    "router.handle": "router.self_us",
    "pool.roundtrip": "pool.ipc_us",
}

Span = Sequence  # (id, parent, name, start_ns, end_ns, request_id)


def union_ns(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _median_us(values_ns: Sequence[int]) -> float:
    return statistics.median(values_ns) / 1e3 if values_ns else 0.0


def span_metrics(runs: Sequence[tuple[Sequence[Span], tuple[int, int]]]) -> dict[str, float]:
    """Median per-call times of spans that started inside each run's window.

    ``runs`` holds one ``(spans, (start_ns, end_ns))`` pair per traced
    program start; span ids are only unique within one start.
    """
    durations: dict[str, list[int]] = defaultdict(list)
    selfs: dict[str, list[int]] = defaultdict(list)
    for spans, (lo, hi) in runs:
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span in spans:
            children[span[1]].append((span[3], span[4]))
        for sid, _parent, name, start, end, _rid in spans:
            if start < lo or start > hi:
                continue
            durations[name].append(end - start)
            if name in _SELF_US:
                selfs[name].append(end - start - union_ns(children[sid], start, end))
    out = {metric: _median_us(durations[name]) for name, metric in _SPAN_US.items()}
    out.update({metric: _median_us(selfs[name]) for name, metric in _SELF_US.items()})
    return out


def service_counters(pairs: Sequence[tuple[Mapping, Mapping]]) -> dict[str, float]:
    """Measured-phase deltas of ``/metrics`` counters, summed over starts.

    ``pairs`` holds the ``(before, after)`` documents of each start.
    """

    def delta(*path: str) -> float:
        total = 0.0
        for before, after in pairs:
            a, b = after, before
            for key in path:
                a, b = a.get(key, {}), b.get(key, {})
            total += float(a or 0) - float(b or 0)
        return total

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    hits, misses = delta("response_cache", "hits"), delta("response_cache", "misses")
    executions, coalesced = delta("batching", "executions"), delta("batching", "coalesced")
    memo_hits = delta("substrate_cache", "totals", "hits")
    memo_misses = delta("substrate_cache", "totals", "misses")
    return {
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.lookups": hits + misses,
        "cache.evictions": delta("response_cache", "evictions"),
        "batching.coalesced_ratio": ratio(coalesced, executions + coalesced),
        "app.rejected": delta("requests", "by_status", "429")
        + delta("requests", "by_status", "503"),
        "memo.hit_ratio": ratio(memo_hits, memo_hits + memo_misses),
        "memo.builds": memo_misses,
        "ledger.errors": delta("ledger", "errors"),
        "router.failovers": delta("router", "failovers"),
    }


def launcher_metrics(records: Sequence[Mapping]) -> dict[str, float]:
    """Set-up split (median over starts) and, for ``verify``, the totals of
    every experiment, of the runner's own time and of the golden diff."""
    inits = []
    for record in records:
        spans = [s for s in record.get("spans", []) if s[2] == "setup.init"]
        inits.append((spans[0][4] - spans[0][3]) / 1e9 if spans else float(record["list_s"]))
    out = {
        "setup.import_s": statistics.median(float(r["import_s"]) for r in records),
        "setup.init_s": statistics.median(inits),
    }
    verify = [r for r in records if "ops" in r]
    if not verify:
        return out
    totals: dict[str, float] = defaultdict(float)
    suite = diff = memo_hits = memo_misses = 0.0
    for record in verify:
        for exp_id, start, end, _ok in record["ops"]:
            totals[exp_id] += (end - start) / 1e9
        suite += (record["suite"][1] - record["suite"][0]) / 1e9
        diff += sum(s[4] - s[3] for s in record.get("spans", []) if s[2] == "ledger.diff") / 1e9
        memo_hits += float(record.get("memo", {}).get("hits", 0))
        memo_misses += float(record.get("memo", {}).get("misses", 0))
    out["runner.self_s"] = (suite - sum(totals.values())) / len(verify)
    for exp_id in NAMED_EXPERIMENTS:
        out[f"exp.{exp_id}_s"] = totals.pop(exp_id, 0.0) / len(verify)
    out["exp.rest_s"] = sum(totals.values()) / len(verify)
    out["ledger.diff_s"] = diff / len(verify)
    out["memo.hit_ratio"] = memo_hits / (memo_hits + memo_misses) if memo_hits + memo_misses else 0.0
    out["memo.builds"] = memo_misses / len(verify)
    return out
