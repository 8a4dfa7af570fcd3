"""Tests for consistent hashing and replica chains (§3.1.2, §3.8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashring import (
    RING_SPACE,
    HashRing,
    VNode,
    in_arcs,
    ring_position,
)


def make_ring(num_jbofs=3, vnodes_per_jbof=2, replication=3, version=1):
    vnodes = [VNode("jbof%d/p%d" % (j, p), "jbof%d" % j)
              for j in range(num_jbofs) for p in range(vnodes_per_jbof)]
    return HashRing(vnodes, replication=replication, version=version)


class TestChains:
    def test_chain_has_replication_members(self):
        ring = make_ring()
        chain = ring.chain_for_key(b"somekey")
        assert len(chain) == 3

    def test_chain_prefers_distinct_jbofs(self):
        ring = make_ring(num_jbofs=3, vnodes_per_jbof=4)
        for index in range(50):
            chain = ring.chain_for_key(b"key-%d" % index)
            jbofs = [v.jbof_address for v in chain]
            assert len(set(jbofs)) == 3

    def test_chain_repeats_when_too_few_jbofs(self):
        ring = make_ring(num_jbofs=2, vnodes_per_jbof=2, replication=3)
        chain = ring.chain_for_key(b"k")
        assert len(chain) == 3  # fills with same-JBOF vnodes

    def test_chain_deterministic(self):
        ring = make_ring()
        assert (ring.chain_ids_for_key(b"stable")
                == ring.chain_ids_for_key(b"stable"))

    def test_empty_ring(self):
        ring = HashRing([], replication=3)
        assert ring.chain_for_key(b"k") == []


class TestMembershipChanges:
    def test_with_vnode_bumps_version(self):
        ring = make_ring(version=5)
        bigger = ring.with_vnode(VNode("new/p0", "new"))
        assert bigger.version == 6
        assert "new/p0" in bigger
        assert len(bigger) == len(ring) + 1

    def test_without_vnode(self):
        ring = make_ring()
        victim = next(iter(ring.vnodes))
        smaller = ring.without_vnode(victim)
        assert victim not in smaller
        assert len(smaller) == len(ring) - 1

    def test_removal_only_shifts_affected_chains(self):
        """Consistent hashing: removing one vnode must not reshuffle
        chains that did not contain it."""
        ring = make_ring(num_jbofs=4, vnodes_per_jbof=4)
        victim = ring.chain_ids_for_key(b"probe-key")[0]
        smaller = ring.without_vnode(victim)
        moved = unchanged = 0
        for index in range(200):
            key = b"key-%04d" % index
            before = ring.chain_ids_for_key(key)
            after = smaller.chain_ids_for_key(key)
            if victim not in before:
                if before == after:
                    unchanged += 1
                else:
                    moved += 1
        assert unchanged > moved  # the vast majority stay put


class TestOwnerRanges:
    def test_ranges_cover_own_keys(self):
        ring = make_ring()
        for vnode_id in ring.vnodes:
            arcs = ring.owner_ranges(vnode_id)
            assert arcs
            # Each key whose chain includes the vnode falls in an arc.
            for index in range(100):
                key = b"key-%03d" % index
                if vnode_id in ring.chain_ids_for_key(key):
                    assert in_arcs(ring_position(key), arcs), (vnode_id, key)

    def test_ranges_exclude_foreign_keys(self):
        ring = make_ring(num_jbofs=4, vnodes_per_jbof=4, replication=2)
        for vnode_id in list(ring.vnodes)[:4]:
            arcs = ring.owner_ranges(vnode_id)
            for index in range(100):
                key = b"key-%03d" % index
                if vnode_id not in ring.chain_ids_for_key(key):
                    assert not in_arcs(ring_position(key), arcs)

    def test_single_vnode_owns_everything(self):
        ring = HashRing([VNode("solo/p0", "solo")], replication=3)
        assert ring.owner_ranges("solo/p0") == [(0, RING_SPACE)]

    def test_unknown_vnode_owns_nothing(self):
        ring = make_ring()
        assert ring.owner_ranges("missing") == []


class TestPositions:
    def test_position_range(self):
        for label in (b"a", b"b", b"key", b"x" * 100):
            assert 0 <= ring_position(label) < RING_SPACE

    def test_positions_spread(self):
        positions = [ring_position(b"node-%d" % i) for i in range(100)]
        assert len(set(positions)) == 100

    @settings(max_examples=30, deadline=None)
    @given(keys=st.lists(st.binary(min_size=1, max_size=32), min_size=1,
                         max_size=20),
           num_jbofs=st.integers(min_value=3, max_value=6))
    def test_chain_members_unique_property(self, keys, num_jbofs):
        ring = make_ring(num_jbofs=num_jbofs, vnodes_per_jbof=2)
        for key in keys:
            chain = ring.chain_ids_for_key(key)
            assert len(chain) == len(set(chain))

    @settings(max_examples=30, deadline=None)
    @given(key=st.binary(min_size=1, max_size=32))
    def test_every_key_covered_by_union_of_arcs(self, key):
        ring = make_ring()
        position = ring_position(key)
        owners = [vnode_id for vnode_id in ring.vnodes
                  if in_arcs(position, ring.owner_ranges(vnode_id))]
        assert sorted(owners) == sorted(ring.chain_ids_for_key(key))
