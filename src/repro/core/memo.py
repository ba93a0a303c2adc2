"""Two-tier memoization for shared simulation substrates.

Many experiments rebuild identical inputs — the same seeded weekly grid
trace, the same diurnal demand curve, the same Poisson experiment stream,
the same synthetic interaction dataset — every time they run.
:func:`memoized_substrate` caches those constructions in two tiers:

* an **in-process tier** keyed by argument value, so repeated calls in one
  process share a single object, and
* an optional **disk tier** (:mod:`repro.core.diskcache`), enabled through
  the ``SUSTAINABLE_AI_CACHE_DIR`` environment variable, so pool workers
  and later runs warm-start from a content-addressed file instead of
  rebuilding.  Entries are checksummed; a truncated or corrupt file reads
  as a miss and the substrate is rebuilt (and the entry rewritten).

Cached values are shared between callers, so every numpy array reachable
from a cached value is frozen (``writeable=False``) before it enters the
cache; a caller that needs a mutable copy must ``np.array(...)`` it.
Unhashable arguments bypass both tiers — correctness never depends on a
hit — but bypasses are *counted* (``CacheInfo.bypasses``) and the first
one per substrate emits a :class:`RuntimeWarning`, so a signature that
accidentally defeats the cache shows up as a warning instead of a silent
slowdown.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, TypeVar

import numpy as np

from repro.core import diskcache

F = TypeVar("F", bound=Callable)

#: All caches created by :func:`memoized_substrate`, by function name.
_REGISTRY: dict[str, Callable] = {}

#: Substrates that already warned about an unhashable-argument bypass.
_BYPASS_WARNED: set[str] = set()

#: The statistic fields every substrate cache tracks, in reporting order.
STAT_FIELDS: tuple[str, ...] = (
    "hits",
    "misses",
    "bypasses",
    "disk_hits",
    "disk_misses",
    "disk_errors",
)

#: Fault-injection hook (see :mod:`repro.testing.faults`): when set, every
#: value leaving a substrate cache passes through it, keyed by the
#: substrate function's qualname.  Production runs leave this ``None``.
#: Corrupted values never reach the disk tier — the hook fires on the way
#: *out* of the cache, after any store.
_CORRUPTOR: Callable[[str, object], object] | None = None


def set_substrate_corruptor(
    corruptor: Callable[[str, object], object] | None,
) -> None:
    """Install (or clear, with ``None``) the cache fault-injection hook."""
    global _CORRUPTOR
    _CORRUPTOR = corruptor


class SubstrateCollector:
    """What one computation did to the substrate caches.

    ``pairs`` is the ordered, deduplicated record of the substrates it
    used: each entry is ``(qualname, digest)`` where ``digest`` is the
    content address of the call (:func:`repro.core.diskcache.entry_digest`)
    or ``None`` when the arguments had no canonical rendering.  The ledger
    records these pairs as claim provenance.

    ``stats`` counts the cache events as they happen, one row of
    :data:`STAT_FIELDS` per substrate that had any — the rows
    :func:`stats_delta` would find between snapshots taken around the
    computation, without taking them.
    """

    def __init__(self) -> None:
        self._seen: set[tuple[str, str | None]] = set()
        self.pairs: list[tuple[str, str | None]] = []
        self.stats: dict[str, dict[str, int]] = {}

    def add(self, qualname: str, digest: str | None) -> None:
        pair = (qualname, digest)
        if pair not in self._seen:
            self._seen.add(pair)
            self.pairs.append(pair)

    def count(self, qualname: str, field: str) -> None:
        row = self.stats.get(qualname)
        if row is None:
            row = self.stats[qualname] = dict.fromkeys(STAT_FIELDS, 0)
        row[field] += 1


#: The active substrate-provenance collector, if any.  Installed with
#: :func:`collect_substrates`; every memoized-substrate call (hit, miss,
#: or bypass) reports its content address here while one is active.
_COLLECTOR: SubstrateCollector | None = None


@contextlib.contextmanager
def collect_substrates() -> Iterator[SubstrateCollector]:
    """Record the content address and cache events of every substrate call
    in the block.

    Nesting restores the previous collector on exit; only the innermost
    collector observes calls (the runner wraps one experiment at a time,
    the service wraps one query task at a time).
    """
    global _COLLECTOR
    previous = _COLLECTOR
    collector = SubstrateCollector()
    _COLLECTOR = collector
    try:
        yield collector
    finally:
        _COLLECTOR = previous


@dataclass(frozen=True)
class CacheInfo:
    """Statistics of one substrate cache.

    ``hits``/``misses`` describe the in-process tier (a value served from
    disk still counts as a memory miss).  ``bypasses`` counts calls whose
    arguments were unhashable — the cache was skipped entirely.
    ``disk_hits``/``disk_misses`` describe the disk tier when it is
    enabled, and ``disk_errors`` counts corrupt entries that were detected
    and rebuilt.
    """

    hits: int
    misses: int
    size: int
    bypasses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_errors: int = 0


def _freeze(value):
    """Mark every numpy array reachable from ``value`` read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            _freeze(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)
    return value


def _warn_bypass(qualname: str) -> None:
    """One-time warning naming a substrate whose cache was bypassed."""
    if qualname in _BYPASS_WARNED:
        return
    _BYPASS_WARNED.add(qualname)
    warnings.warn(
        f"substrate {qualname!r} was called with unhashable arguments; "
        "memoization is bypassed for such calls (every call rebuilds). "
        "Pass tuples/frozen dataclasses instead of lists/dicts to cache.",
        RuntimeWarning,
        stacklevel=4,
    )


def memoized_substrate(func: F) -> F:
    """Cache a substrate constructor by (hashable) argument values."""
    cache: dict[object, object] = {}
    digests: dict[object, str | None] = {}
    stats = dict.fromkeys(STAT_FIELDS, 0)
    qualname = func.__qualname__

    def count(field: str) -> None:
        stats[field] += 1
        if _COLLECTOR is not None:
            _COLLECTOR.count(qualname, field)

    def digest_for(key) -> str | None:
        """Content address of one call, memoized alongside the value cache."""
        try:
            return digests[key]
        except KeyError:
            pass
        try:
            token = diskcache.canonical_token(key)
        except diskcache.UncacheableArgument:
            digest = None
        else:
            digest = diskcache.entry_digest(qualname, token)
        digests[key] = digest
        return digest

    def build_via_disk(args, kwargs):
        """Memory-miss path: consult the disk tier, else build (and store)."""
        cache_dir = diskcache.resolve_cache_dir()
        path = None
        if cache_dir is not None:
            try:
                token = diskcache.canonical_token(
                    (args, tuple(sorted(kwargs.items())))
                )
            except diskcache.UncacheableArgument:
                path = None
            else:
                path = diskcache.entry_path(cache_dir, qualname, token)
                hit, value = diskcache.load(path)
                if hit:
                    count("disk_hits")
                    return _freeze(value)
                if path.exists():
                    count("disk_errors")
                else:
                    count("disk_misses")
        value = _freeze(func(*args, **kwargs))
        if path is not None:
            diskcache.store(path, value)
        return value

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        key = (args, tuple(sorted(kwargs.items())))
        try:
            hash(key)
        except TypeError:
            count("bypasses")
            _warn_bypass(qualname)
            if _COLLECTOR is not None:
                _COLLECTOR.add(qualname, None)
            value = func(*args, **kwargs)
            if _CORRUPTOR is not None:
                value = _CORRUPTOR(qualname, value)
            return value
        try:
            value = cache[key]
        except KeyError:
            count("misses")
            value = cache[key] = build_via_disk(args, kwargs)
        else:
            count("hits")
        if _COLLECTOR is not None:
            _COLLECTOR.add(qualname, digest_for(key))
        if _CORRUPTOR is not None:
            value = _CORRUPTOR(qualname, value)
        return value

    def cache_info() -> CacheInfo:
        return CacheInfo(size=len(cache), **stats)

    def cache_clear() -> None:
        cache.clear()
        digests.clear()
        for field in STAT_FIELDS:
            stats[field] = 0

    wrapper.cache_info = cache_info  # type: ignore[attr-defined]
    wrapper.cache_clear = cache_clear  # type: ignore[attr-defined]
    _REGISTRY[qualname] = wrapper
    return wrapper  # type: ignore[return-value]


def substrate_cache_info() -> dict[str, CacheInfo]:
    """Statistics for every registered substrate cache."""
    return {name: fn.cache_info() for name, fn in _REGISTRY.items()}


def clear_substrate_caches() -> None:
    """Empty every registered in-process substrate cache (mainly tests)."""
    for fn in _REGISTRY.values():
        fn.cache_clear()


# -- stats transport ---------------------------------------------------------
# A worker sends the counter increments of each task back to the parent as
# plain dicts (JSON- and pickle-friendly), where the deltas from every
# worker are merged into one run-wide view.  Every task takes them from its
# SubstrateCollector (repro.testing.faults.hooked_task); snapshots measure
# a whole process, such as a benchmark run.


def stats_snapshot() -> dict[str, dict[str, int]]:
    """Plain-dict snapshot of every substrate cache's counters."""
    return {
        name: {field: getattr(info, field) for field in STAT_FIELDS}
        for name, info in substrate_cache_info().items()
    }


def stats_delta(
    before: Mapping[str, Mapping[str, int]],
    after: Mapping[str, Mapping[str, int]],
) -> dict[str, dict[str, int]]:
    """Counter increments between two snapshots (zero-only rows dropped)."""
    delta: dict[str, dict[str, int]] = {}
    for name, counters in after.items():
        base = before.get(name, {})
        row = {
            field: counters[field] - base.get(field, 0) for field in STAT_FIELDS
        }
        if any(row.values()):
            delta[name] = row
    return delta


def merge_stats(
    into: dict[str, dict[str, int]],
    delta: Mapping[str, Mapping[str, int]],
) -> dict[str, dict[str, int]]:
    """Accumulate one worker's delta into a run-wide tally (in place)."""
    for name, counters in delta.items():
        row = into.setdefault(name, dict.fromkeys(STAT_FIELDS, 0))
        for field in STAT_FIELDS:
            row[field] += int(counters.get(field, 0))
    return into


def totals(stats: Mapping[str, Mapping[str, int]]) -> dict[str, int]:
    """Column sums of a per-substrate stats mapping."""
    out = dict.fromkeys(STAT_FIELDS, 0)
    for counters in stats.values():
        for field in STAT_FIELDS:
            out[field] += int(counters.get(field, 0))
    return out
