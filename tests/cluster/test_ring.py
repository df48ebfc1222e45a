"""Placement-ring properties: determinism, balance, stability."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.ring import (
    ConsistentHashRing,
    DEFAULT_VIRTUAL_NODES,
    RingError,
)


def _keys(count: int) -> list[bytes]:
    return [hashlib.sha256(f"key-{i}".encode()).digest() for i in range(count)]


TEN_K = _keys(10_000)


class TestDeterminism:
    def test_two_rings_with_the_same_shards_route_identically(self):
        first = ConsistentHashRing(["a", "b", "c"])
        second = ConsistentHashRing(["a", "b", "c"])
        for key in _keys(500):
            assert first.assign(key) == second.assign(key)

    def test_insertion_order_does_not_matter(self):
        forward = ConsistentHashRing(["a", "b", "c", "d"])
        backward = ConsistentHashRing(["d", "c", "b", "a"])
        for key in _keys(500):
            assert forward.assign(key) == backward.assign(key)

    def test_assignment_is_repeatable(self):
        ring = ConsistentHashRing(["a", "b"])
        key = b"some-tuple-id"
        assert ring.assign(key) == ring.assign(key)


class TestBalance:
    @pytest.mark.parametrize("shard_count", [2, 3, 4, 5, 8])
    def test_imbalance_at_most_15_percent_for_10k_keys(self, shard_count):
        ring = ConsistentHashRing([f"shard-{i}" for i in range(shard_count)])
        distribution = ring.distribution(TEN_K)
        mean = len(TEN_K) / shard_count
        worst = max(abs(count - mean) / mean for count in distribution.values())
        assert worst <= 0.15, f"{shard_count} shards: {dict(distribution)}"

    def test_every_shard_receives_keys(self):
        ring = ConsistentHashRing([f"shard-{i}" for i in range(8)])
        distribution = ring.distribution(_keys(1000))
        assert all(count > 0 for count in distribution.values())


class TestStability:
    def test_adding_a_shard_only_moves_keys_to_it(self):
        ring = ConsistentHashRing(["a", "b", "c", "d"])
        before = {key: ring.assign(key) for key in TEN_K}
        ring.add_shard("e")
        moved = 0
        for key in TEN_K:
            after = ring.assign(key)
            if after != before[key]:
                moved += 1
                assert after == "e"  # never between surviving shards
        # roughly 1/5 of the keys migrate; far from a rehash-everything
        assert 0.10 <= moved / len(TEN_K) <= 0.30

    def test_removing_a_shard_only_moves_its_keys(self):
        ring = ConsistentHashRing(["a", "b", "c", "d"])
        before = {key: ring.assign(key) for key in TEN_K}
        ring.remove_shard("b")
        for key in TEN_K:
            if before[key] != "b":
                assert ring.assign(key) == before[key]

    def test_add_then_remove_restores_the_original_assignment(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        before = {key: ring.assign(key) for key in TEN_K[:1000]}
        ring.add_shard("d")
        ring.remove_shard("d")
        assert {key: ring.assign(key) for key in TEN_K[:1000]} == before

    @settings(max_examples=25, deadline=None)
    @given(
        shards=st.lists(
            st.text(alphabet="abcdefgh", min_size=1, max_size=6),
            min_size=2, max_size=6, unique=True,
        ),
        removed=st.integers(min_value=0, max_value=5),
        keys=st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=50),
    )
    def test_surviving_keys_never_move_property(self, shards, removed, keys):
        ring = ConsistentHashRing(shards, virtual_nodes=32)
        victim = shards[removed % len(shards)]
        before = {bytes(key): ring.assign(key) for key in keys}
        ring.remove_shard(victim)
        for key in keys:
            if before[bytes(key)] != victim:
                assert ring.assign(key) == before[bytes(key)]


class TestEdges:
    def test_empty_ring_refuses_assignment(self):
        with pytest.raises(RingError):
            ConsistentHashRing().assign(b"x")

    def test_duplicate_shard_rejected(self):
        ring = ConsistentHashRing(["a"])
        with pytest.raises(RingError):
            ring.add_shard("a")

    def test_unknown_shard_removal_rejected(self):
        with pytest.raises(RingError):
            ConsistentHashRing(["a"]).remove_shard("b")

    def test_empty_shard_id_rejected(self):
        with pytest.raises(RingError):
            ConsistentHashRing([""])

    def test_invalid_virtual_nodes_rejected(self):
        with pytest.raises(RingError):
            ConsistentHashRing(virtual_nodes=0)

    def test_partition_covers_every_shard(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        groups = ring.partition(_keys(30))
        assert set(groups) == {"a", "b", "c"}
        assert sum(len(keys) for keys in groups.values()) == 30

    def test_default_virtual_nodes_exported(self):
        assert ConsistentHashRing(["a"]).virtual_nodes == DEFAULT_VIRTUAL_NODES


class TestSuccessors:
    def test_first_successor_is_the_assignment(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        for key in _keys(200):
            successors = ring.successors(key, 2)
            assert successors[0] == ring.assign(key)

    def test_successors_are_distinct_and_deterministic(self):
        first = ConsistentHashRing(["a", "b", "c", "d"])
        second = ConsistentHashRing(["d", "c", "b", "a"])
        for key in _keys(200):
            successors = first.successors(key, 3)
            assert len(set(successors)) == 3
            assert second.successors(key, 3) == successors

    def test_full_replication_lists_every_shard(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        for key in _keys(50):
            assert set(ring.successors(key, 3)) == {"a", "b", "c"}

    def test_replica_sets_are_balanced(self):
        ring = ConsistentHashRing([f"shard-{i}" for i in range(4)])
        copies = {shard_id: 0 for shard_id in ring.shard_ids}
        for key in TEN_K:
            for shard_id in ring.successors(key, 2):
                copies[shard_id] += 1
        mean = len(TEN_K) * 2 / 4
        worst = max(abs(count - mean) / mean for count in copies.values())
        assert worst <= 0.15, copies

    def test_membership_change_only_touches_crossing_successor_sets(self):
        ring = ConsistentHashRing(["a", "b", "c", "d"])
        before = {key: ring.successors(key, 2) for key in TEN_K[:2000]}
        ring.add_shard("e")
        for key, old in before.items():
            new = ring.successors(key, 2)
            if new != old:
                assert "e" in new  # a change always involves the new shard

    def test_more_replicas_than_shards_rejected(self):
        ring = ConsistentHashRing(["a", "b"])
        with pytest.raises(RingError, match="cannot place 3 replicas"):
            ring.successors(b"k", 3)

    def test_zero_replicas_rejected(self):
        with pytest.raises(RingError):
            ConsistentHashRing(["a"]).successors(b"k", 0)

    def test_empty_ring_refuses_successors(self):
        with pytest.raises(RingError):
            ConsistentHashRing().successors(b"k", 1)


class TestCovers:
    def test_all_shards_live_always_covers(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        assert ring.covers(["a", "b", "c"], 2)
        assert ring.covers(["a", "b", "c"], 1)

    def test_fewer_dead_than_replicas_covers(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        for dead in "abc":
            live = [s for s in "abc" if s != dead]
            assert ring.covers(live, 2)

    def test_one_dead_never_covers_without_replication(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        # R=1: some segment's only successor is the dead shard
        assert not ring.covers(["a", "b"], 1)

    def test_as_many_dead_as_replicas_breaks_coverage(self):
        # With 256 virtual nodes some segment's 2 successors are exactly
        # the two dead shards, so the exact per-segment walk must say no.
        ring = ConsistentHashRing(["a", "b", "c"])
        assert not ring.covers(["a"], 2)

    def test_no_live_shards_never_covers(self):
        ring = ConsistentHashRing(["a", "b"])
        assert not ring.covers([], 1)
        assert not ring.covers(["ghost"], 1)
