"""The consistent-hash ring: units plus the Hypothesis-backed laws.

The fabric's routing correctness reduces to four ring properties —
balance, minimal disruption on join and on leave, and a well-formed
preference (failover) order.  They are registered as named substrate
invariants in :mod:`repro.testing.invariants` (``ring-*``); the property
class here maps them over generated fleets, and the quantitative tests
pin the *numeric* remap fraction (~1/N) on a large deterministic key
sample, which a per-key law cannot express.
"""

import bisect

import pytest

from repro.errors import ServiceError
from repro.service.hashring import DEFAULT_VNODES, HashRing, ring_position

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.testing import strategies as strat

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis not installed
    HAVE_HYPOTHESIS = False

#: A deterministic key sample large enough that per-shard counts
#: concentrate (the quantitative tests bound remap fractions with it).
KEY_SAMPLE = [f"key-{index}" for index in range(8192)]


class TestRingBasics:
    def test_ring_position_is_deterministic_and_64_bit(self):
        assert ring_position("replica-0") == ring_position("replica-0")
        assert 0 <= ring_position("replica-0") < (1 << 64)
        assert ring_position("replica-0") != ring_position("replica-1")

    def test_membership_bookkeeping(self):
        ring = HashRing(["b", "a"])
        assert ring.nodes == ("a", "b")
        assert len(ring) == 2
        assert "a" in ring and "c" not in ring
        ring.add("c")
        assert "c" in ring
        ring.remove("a")
        assert ring.nodes == ("b", "c")

    def test_add_rejects_duplicates_and_empty_names(self):
        ring = HashRing(["a"])
        with pytest.raises(ServiceError):
            ring.add("a")
        with pytest.raises(ServiceError):
            ring.add("")

    def test_remove_rejects_unknown_nodes(self):
        with pytest.raises(ServiceError):
            HashRing(["a"]).remove("b")

    def test_vnodes_must_be_positive(self):
        with pytest.raises(ServiceError):
            HashRing(vnodes=0)

    def test_empty_ring_has_no_owner(self):
        ring = HashRing()
        with pytest.raises(ServiceError):
            ring.owner("anything")
        assert ring.preference("anything") == ()
        assert ring.shares() == {}

    def test_single_node_owns_everything(self):
        ring = HashRing(["only"])
        assert all(ring.owner(key) == "only" for key in KEY_SAMPLE[:64])
        assert ring.shares() == {"only": 1.0}

    def test_lookup_is_a_pure_function_of_membership(self):
        # Two rings built in different insertion orders agree on every
        # key — the property that lets routers coordinate statelessly.
        forward = HashRing(["replica-0", "replica-1", "replica-2"])
        backward = HashRing(["replica-2", "replica-1", "replica-0"])
        for key in KEY_SAMPLE[:256]:
            assert forward.owner(key) == backward.owner(key)
            assert forward.preference(key) == backward.preference(key)

    def test_preference_count_truncates(self):
        ring = HashRing(["a", "b", "c", "d"])
        assert ring.preference("k", count=2) == ring.preference("k")[:2]
        assert len(ring.preference("k", count=99)) == 4


def full_walk(ring, key):
    """The preference order read off every point of the ring (the reference)."""
    points = list(ring._points)
    start = bisect.bisect_left(points, (ring_position(key), ""))
    order = []
    for step in range(len(points)):
        node = points[(start + step) % len(points)][1]
        if node not in order:
            order.append(node)
    return tuple(order)


class CountingPoints(list):
    """A ring's point list that counts the points read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestPreferenceWalk:
    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_order_equals_the_full_walk(self, size):
        ring = HashRing([f"replica-{index}" for index in range(size)])
        for key in KEY_SAMPLE[:2048]:
            assert tuple(ring.iter_preference(key)) == full_walk(ring, key)

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_the_walk_stops_at_the_last_node(self, size):
        ring = HashRing([f"replica-{index}" for index in range(size)])
        points = ring._points = CountingPoints(ring._points)
        for key in KEY_SAMPLE[:512]:
            points.reads = 0
            assert len(list(ring.iter_preference(key))) == size
            # The bisection reads about log2(points); the walk stops at
            # the point of the last node it had not yet seen.
            assert points.reads < len(points)


class TestQuantitativeBalance:
    """Numeric bounds on the default-vnodes ring, per the module docs."""

    def test_shares_concentrate_around_the_mean(self):
        for n in (2, 3, 4, 8, 16):
            ring = HashRing([f"replica-{i}" for i in range(n)])
            shares = ring.shares()
            assert abs(sum(shares.values()) - 1.0) < 1e-12
            assert max(shares.values()) <= 2.0 / n
            assert min(shares.values()) >= 1.0 / (8 * n)

    def test_key_sample_distribution_matches_shares(self):
        # Empirical shard sizes on the key sample track the arc shares:
        # no node's observed load exceeds 2x the fair share.
        ring = HashRing([f"replica-{i}" for i in range(4)])
        counts = {node: 0 for node in ring.nodes}
        for key in KEY_SAMPLE:
            counts[ring.owner(key)] += 1
        for node, count in counts.items():
            assert count / len(KEY_SAMPLE) <= 2.0 / len(ring), (
                f"{node} owns {count}/{len(KEY_SAMPLE)} keys"
            )

    def test_join_remaps_about_one_nth_of_keys(self):
        # Adding the 5th node to a 4-node ring remaps ~1/5 of keys — and
        # *only* keys the joiner now owns.
        before = HashRing([f"replica-{i}" for i in range(4)])
        after = HashRing([f"replica-{i}" for i in range(5)])
        moved = 0
        for key in KEY_SAMPLE:
            if after.owner(key) != before.owner(key):
                moved += 1
                assert after.owner(key) == "replica-4"
        fraction = moved / len(KEY_SAMPLE)
        assert 0.5 / 5 <= fraction <= 2.0 / 5, f"join remapped {fraction:.3f}"

    def test_leave_remaps_only_the_victims_keys(self):
        before = HashRing([f"replica-{i}" for i in range(4)])
        after = HashRing([f"replica-{i}" for i in range(4)])
        after.remove("replica-2")
        moved = 0
        for key in KEY_SAMPLE:
            owner = before.owner(key)
            if owner == "replica-2":
                moved += 1
                assert after.owner(key) != "replica-2"
            else:
                assert after.owner(key) == owner
        fraction = moved / len(KEY_SAMPLE)
        assert 0.5 / 4 <= fraction <= 2.0 / 4, f"leave remapped {fraction:.3f}"


@pytest.mark.property
@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestRingInvariants:
    """The named ``ring-*`` substrate invariants over generated fleets."""

    @given(st.data())
    def test_ring_balance(self, data):
        from repro.testing.invariants import check_ring_balance

        nodes = data.draw(strat.ring_node_sets(min_size=1, max_size=16))
        check_ring_balance(nodes)

    @given(st.data())
    @settings(max_examples=25)
    def test_ring_minimal_disruption_join(self, data):
        from repro.testing.invariants import check_ring_minimal_disruption_join

        nodes = data.draw(strat.ring_node_sets(min_size=1, max_size=8))
        new_node = data.draw(
            strat.ring_node_names().filter(lambda name: name not in nodes)
        )
        keys = data.draw(st.lists(strat.ring_keys(), max_size=32))
        check_ring_minimal_disruption_join(nodes, new_node, keys)

    @given(st.data())
    @settings(max_examples=25)
    def test_ring_minimal_disruption_leave(self, data):
        from repro.testing.invariants import check_ring_minimal_disruption_leave

        nodes = data.draw(strat.ring_node_sets(min_size=2, max_size=8))
        victim = data.draw(st.sampled_from(nodes))
        keys = data.draw(st.lists(strat.ring_keys(), max_size=32))
        check_ring_minimal_disruption_leave(nodes, victim, keys)

    @given(st.data())
    def test_ring_preference_distinct(self, data):
        from repro.testing.invariants import check_ring_preference_distinct

        nodes = data.draw(strat.ring_node_sets(min_size=1, max_size=8))
        key = data.draw(strat.ring_keys())
        check_ring_preference_distinct(nodes, key)

    def test_ring_invariants_are_registered(self):
        from repro.testing.invariants import substrate_invariant_names

        registered = set(substrate_invariant_names())
        assert {
            "ring-balance",
            "ring-minimal-disruption-join",
            "ring-minimal-disruption-leave",
            "ring-preference-distinct",
        } <= registered
