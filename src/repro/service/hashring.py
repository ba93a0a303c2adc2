"""Consistent-hash ring with virtual nodes (the fabric's routing core).

The multi-node fabric (:mod:`repro.service.router`) shards canonical
query keys across service replicas so each replica's response LRU and
substrate memo stay hot for its shard.  The ring provides the two
properties that make that sharding operable:

* **Balance** — every node is placed at :data:`DEFAULT_VNODES` virtual
  points (``sha256(f"{node}#{i}")``), so the arc of key space a node
  owns concentrates around ``1/N`` (the ``ring-balance`` invariant in
  :mod:`repro.testing.invariants` states the bound).
* **Minimal disruption** — adding a node remaps only the keys the new
  node now owns (~``1/(N+1)`` of the space) and removing a node remaps
  only *its* keys; every other key keeps its owner and therefore its
  warm caches (the ``ring-minimal-disruption-*`` invariants).

Placement and lookup are deterministic functions of the node names and
key bytes alone — two routers configured with the same replica names
agree on every assignment without coordination.

:meth:`HashRing.preference` is the failover order: the distinct nodes in
clockwise order from the key's position.  The router walks it when the
owner is ejected, so a key's fallback replica is also stable.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Iterator

from repro.errors import ServiceError

__all__ = ["DEFAULT_VNODES", "RING_SIZE", "HashRing", "ring_position"]

#: Virtual points per node.  128 keeps the largest arc share under
#: ~2x the mean with overwhelming probability for small fleets (the
#: property suite asserts the bound for rings up to 16 nodes).
DEFAULT_VNODES = 128

#: The ring is the interval ``[0, 2**64)``; positions wrap modulo this.
RING_SIZE = 1 << 64


def ring_position(label: str) -> int:
    """A label's deterministic position on the ring (first 8 sha256 bytes)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Maps string keys to named nodes; clockwise-successor convention.

    A key belongs to the node owning the first virtual point at or after
    the key's position (wrapping past ``RING_SIZE`` to the first point).
    Points that collide are ordered by node name, so lookup is total and
    deterministic.
    """

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ServiceError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []
        for node in nodes:
            self.add(node)

    # -- membership --------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        """Current node names, sorted."""
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Place ``node`` at its ``vnodes`` virtual points."""
        if not node:
            raise ServiceError("node name must be non-empty")
        if node in self._nodes:
            raise ServiceError(f"node {node!r} is already on the ring")
        self._nodes.add(node)
        for index in range(self.vnodes):
            bisect.insort(self._points, (ring_position(f"{node}#{index}"), node))

    def remove(self, node: str) -> None:
        """Remove ``node`` and all its virtual points."""
        if node not in self._nodes:
            raise ServiceError(f"node {node!r} is not on the ring")
        self._nodes.discard(node)
        self._points = [point for point in self._points if point[1] != node]

    # -- lookup ------------------------------------------------------------

    def owner(self, key: str) -> str:
        """The node owning ``key``; raises on an empty ring."""
        for node in self.iter_preference(key):
            return node
        raise ServiceError("hash ring is empty")

    def iter_preference(self, key: str) -> Iterator[str]:
        """Distinct nodes in clockwise order from ``key``'s position.

        The first yielded node is the owner; the rest are the failover
        order.  Yields every node exactly once, and stops walking the
        ring at the last one.
        """
        if not self._points:
            return
        position = ring_position(key)
        start = bisect.bisect_left(self._points, (position, ""))
        seen: set[str] = set()
        count = len(self._points)
        for step in range(count):
            node = self._points[(start + step) % count][1]
            if node not in seen:
                seen.add(node)
                yield node
                if len(seen) == len(self._nodes):
                    return

    def preference(self, key: str, count: int | None = None) -> tuple[str, ...]:
        """The first ``count`` nodes of :meth:`iter_preference` (all if None)."""
        order: list[str] = []
        for node in self.iter_preference(key):
            order.append(node)
            if count is not None and len(order) >= count:
                break
        return tuple(order)

    # -- balance -----------------------------------------------------------

    def shares(self) -> dict[str, float]:
        """Fraction of the key space each node owns (shares sum to 1.0).

        The arc ``(previous point, point]`` belongs to ``point``'s node
        under the clockwise-successor convention; the wraparound arc from
        the last point back to the first closes the circle.
        """
        if not self._points:
            return {}
        arcs = {node: 0 for node in self._nodes}
        previous = self._points[-1][0] - RING_SIZE
        for position, node in self._points:
            arcs[node] += position - previous
            previous = position
        return {node: arc / RING_SIZE for node, arc in sorted(arcs.items())}
