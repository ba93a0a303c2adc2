"""Bounded in-process LRU of rendered responses.

The service answers repeated identical queries from this cache before any
execution is scheduled, fronting the two-tier substrate cache of
:mod:`repro.core.memo`: a hit costs a dict lookup and serves the exact
bytes a cold execution produced, so warm responses are byte-identical to
cold ones by construction.

The cache is bounded (least-recently-used eviction) and counts its
traffic; ``/metrics`` surfaces the counters and the hit rate.  A lock
guards every operation — the event loop owns the cache in production,
but tests and the load generator may inspect it from other threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ServiceError

#: Entries of a service's response LRU unless ``--lru-size`` says otherwise.
DEFAULT_LRU_SIZE = 256


class ResponseCache:
    """A bounded LRU mapping canonical query keys to response bytes."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 0:
            raise ServiceError(f"cache size must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> bytes | None:
        """The cached response for ``key``, refreshing its recency."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: str, value: bytes) -> None:
        """Insert (or refresh) one response, evicting the LRU entry if full.

        With ``maxsize == 0`` the cache is disabled: every put is a no-op
        and every get a miss.
        """
        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            while len(self._entries) >= self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, object]:
        """Counter snapshot for ``/metrics`` (hit rate ``None`` if unused)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hit_rate": (self.hits / lookups) if lookups else None,
            }
