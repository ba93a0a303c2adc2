"""Per-experiment profiling: wall time, CPU time, peak RSS, cache traffic.

``sustainable-ai run --profile`` times every experiment where it runs and
takes its cache traffic from the task's substrate collector; the
resulting :class:`ExperimentProfile` travels back from pool workers inside
the run record payloads, so the parent can print a "slowest experiments"
section and a run-wide substrate-cache summary, and ``--json`` envelopes
carry the numbers for offline analysis.

Only the standard library is used: ``resource.getrusage`` supplies the
peak-RSS high-water mark (no psutil dependency).  Note the high-water
semantics — the kernel reports the maximum RSS *since process start*, so
an experiment that runs after a larger one in the same worker reports
the larger experiment's peak.  Wall/CPU deltas are per-experiment exact.
"""

from __future__ import annotations

import resource
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core import memo


def process_peak_rss_kb() -> int:
    """Peak RSS of this process in KiB (high-water mark since start)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KiB elsewhere
        peak //= 1024
    return int(peak)


@dataclass(frozen=True)
class ExperimentProfile:
    """Resource usage of one experiment execution."""

    wall_s: float
    cpu_s: float
    peak_rss_kb: int
    #: Per-substrate cache-counter increments during the execution
    #: (see :data:`repro.core.memo.STAT_FIELDS` for the columns).
    cache: dict[str, dict[str, int]] = field(default_factory=dict)

    def to_payload(self) -> dict[str, object]:
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_kb": self.peak_rss_kb,
            "cache": {name: dict(row) for name, row in sorted(self.cache.items())},
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ExperimentProfile":
        return cls(
            wall_s=float(payload["wall_s"]),
            cpu_s=float(payload["cpu_s"]),
            peak_rss_kb=int(payload["peak_rss_kb"]),
            cache={
                str(name): {str(k): int(v) for k, v in dict(row).items()}
                for name, row in dict(payload.get("cache", {})).items()
            },
        )


def merge_cache_stats(
    profiles: Mapping[str, ExperimentProfile],
) -> dict[str, dict[str, int]]:
    """Run-wide per-substrate cache counters across all profiles."""
    merged: dict[str, dict[str, int]] = {}
    for profile in profiles.values():
        memo.merge_stats(merged, profile.cache)
    return merged


def cache_hit_rate(stats: Mapping[str, Mapping[str, int]]) -> float | None:
    """Fraction of substrate calls served from either tier (None if no calls).

    A disk hit also counts as an in-process miss, so the rate is
    ``(hits + disk_hits) / (hits + misses + bypasses)``.
    """
    t = memo.totals(stats)
    calls = t["hits"] + t["misses"] + t["bypasses"]
    if calls == 0:
        return None
    return (t["hits"] + t["disk_hits"]) / calls


def render_profile_report(
    profiles: Mapping[str, ExperimentProfile], limit: int = 10
) -> str:
    """The ``--profile`` stdout section: slowest experiments + cache totals."""
    lines = [f"=== profile: slowest experiments (top {limit}) ==="]
    ranked = sorted(profiles.items(), key=lambda kv: kv[1].wall_s, reverse=True)
    for exp_id, p in ranked[:limit]:
        lines.append(
            f"  {exp_id:24s} wall {p.wall_s:8.3f}s  cpu {p.cpu_s:8.3f}s  "
            f"peak RSS {p.peak_rss_kb / 1024:7.1f} MiB"
        )
    total_wall = sum(p.wall_s for p in profiles.values())
    lines.append(f"  total experiment wall time: {total_wall:.3f}s")

    merged = merge_cache_stats(profiles)
    lines.append("=== profile: substrate cache ===")
    if not merged:
        lines.append("  no substrate cache traffic")
        return "\n".join(lines)
    for name in sorted(merged):
        row = merged[name]
        lines.append(
            f"  {name}: "
            + ", ".join(f"{k}={row[k]}" for k in memo.STAT_FIELDS if row[k])
        )
    t = memo.totals(merged)
    rate = cache_hit_rate(merged)
    lines.append(
        "  totals: "
        + ", ".join(f"{k}={t[k]}" for k in memo.STAT_FIELDS)
        + (f", hit_rate={rate:.1%}" if rate is not None else "")
    )
    return "\n".join(lines)


def profiles_from_records(records: Sequence[object]) -> dict[str, ExperimentProfile]:
    """Extract profiles from run records that carry one (skips the rest)."""
    out: dict[str, ExperimentProfile] = {}
    for record in records:
        profile = getattr(record, "profile", None)
        if profile is not None:
            out[record.experiment_id] = profile  # type: ignore[attr-defined]
    return out
