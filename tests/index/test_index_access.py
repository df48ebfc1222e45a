"""Unit tests for the provider-side index structures and access methods."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SearchableSelectDph
from repro.index import (
    IndexAccess,
    IndexDelta,
    IndexLookupRequest,
    IndexSnapshot,
    RelationIndex,
    ScanAccess,
)
from repro.outsourcing import FileStorageBackend, InMemoryStorageBackend


def _id(v: int) -> bytes:
    return bytes([v]) * 16


L1, L2 = b"\x01" * 32, b"\x02" * 32


class TestRelationIndex:
    def test_from_snapshot_members(self):
        index = RelationIndex.from_snapshot(
            IndexSnapshot(bucket_capacity=2, entries={L1: ((_id(1), _id(2)),)})
        )
        assert index.candidates([L1]) == {_id(1), _id(2)}
        assert index.sealed_bucket_count(L1) == 1

    def test_additions_spill_then_seal(self):
        index = RelationIndex(bucket_capacity=2)
        index.apply_delta(IndexDelta(additions=((L1, _id(1)),)))
        assert index.spill_length(L1) == 1
        assert index.sealed_bucket_count(L1) == 0
        # capacity reached: the spill seals into a bucket (overflow spill)
        index.apply_delta(IndexDelta(additions=((L1, _id(2)),)))
        assert index.spill_length(L1) == 0
        assert index.sealed_bucket_count(L1) == 1
        assert index.candidates([L1]) == {_id(1), _id(2)}

    def test_apply_delta_is_idempotent(self):
        index = RelationIndex(bucket_capacity=4)
        delta = IndexDelta(additions=((L1, _id(1)),))
        index.apply_delta(delta)
        index.apply_delta(delta)  # replayed batch
        assert index.live_posting_count(L1) == 1
        assert index.spill_length(L1) == 1

    def test_removals_tombstone_not_shrink(self):
        index = RelationIndex.from_snapshot(
            IndexSnapshot(bucket_capacity=2, entries={L1: ((_id(1), _id(2)),)})
        )
        index.apply_delta(IndexDelta(removals=((L1, _id(1)),)))
        assert index.candidates([L1]) == {_id(2)}
        assert index.sealed_bucket_count(L1) == 1  # sealed buckets never shrink

    def test_label_empties_after_last_delete(self):
        index = RelationIndex(bucket_capacity=4)
        index.apply_delta(IndexDelta(additions=((L1, _id(1)),)))
        index.apply_delta(IndexDelta(removals=((L1, _id(1)),)))
        assert index.candidates([L1]) == set()
        # and an empty label annihilates any intersection
        index.apply_delta(IndexDelta(additions=((L2, _id(2)),)))
        assert index.candidates([L1, L2]) == set()

    def test_readdition_resurrects_a_tombstone(self):
        index = RelationIndex(bucket_capacity=4)
        index.apply_delta(IndexDelta(additions=((L1, _id(1)),)))
        index.apply_delta(IndexDelta(removals=((L1, _id(1)),)))
        index.apply_delta(IndexDelta(additions=((L1, _id(1)),)))
        assert index.candidates([L1]) == {_id(1)}

    def test_unknown_removals_ignored(self):
        index = RelationIndex(bucket_capacity=4)
        index.apply_delta(IndexDelta(removals=((L1, _id(9)),)))
        assert index.stats()["tombstones"] == 0

    def test_candidates_intersect(self):
        index = RelationIndex(bucket_capacity=4)
        index.apply_delta(
            IndexDelta(additions=((L1, _id(1)), (L1, _id(2)), (L2, _id(2))))
        )
        assert index.candidates([L1, L2]) == {_id(2)}

    def test_no_labels_means_no_candidates(self):
        assert RelationIndex(bucket_capacity=4).candidates([]) == set()


LABELS = (L1, L2, b"\x03" * 32)
postings = st.tuples(st.sampled_from(LABELS), st.integers(1, 6).map(_id))
deltas = st.builds(
    IndexDelta,
    additions=st.lists(postings, max_size=5).map(tuple),
    removals=st.lists(postings, max_size=5).map(tuple),
)


def live_by_difference(index: RelationIndex, label: bytes) -> set[bytes]:
    """The live postings of ``label`` as the set difference that defines them."""
    return index._members.get(label, set()) - index._tombstones.get(label, set())


@given(
    snapshot=st.dictionaries(
        st.sampled_from(LABELS), st.lists(st.integers(1, 6).map(_id), max_size=4), max_size=2
    ),
    history=st.lists(deltas, max_size=8),
    asked=st.lists(st.lists(st.sampled_from(LABELS), max_size=3), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_candidates_equal_the_set_difference(snapshot, history, asked):
    """Adds, removes and resurrections in any order: tombstones stay among
    the members, and every answer is the set-difference definition's."""
    index = RelationIndex.from_snapshot(
        IndexSnapshot(bucket_capacity=2, entries={k: (tuple(v),) for k, v in snapshot.items()})
    )
    for delta in history:
        index.apply_delta(delta)
        for label in LABELS:
            assert index._tombstones.get(label, set()) <= index._members.get(label, set())
            live = live_by_difference(index, label)
            assert index.live_posting_count(label) == len(live)
        for labels in asked:
            expected: set[bytes] | None = None
            for label in labels:
                live = live_by_difference(index, label)
                expected = live if expected is None else expected & live
            answer = index.candidates(labels)
            assert answer == (expected or set())
            assert type(answer) is set


@pytest.fixture
def served(employee_schema, employee_relation, secret_key, rng):
    """An encrypted relation plus a live evaluator, as a provider holds them."""
    dph = SearchableSelectDph(employee_schema, secret_key, backend="swp", rng=rng)
    encrypted = dph.encrypt_relation(employee_relation)
    return dph, encrypted


def _access(encrypted) -> IndexAccess:
    """An index access method over a store holding ``encrypted`` as ``Emp``."""
    storage = InMemoryStorageBackend()
    storage.save("Emp", encrypted)
    return IndexAccess(storage)


class TestIndexAccess:
    def _snapshot_for(self, encrypted, label=L1, matching=2):
        ids = tuple(t.tuple_id for t in encrypted.encrypted_tuples[:matching])
        return IndexSnapshot(bucket_capacity=4, entries={label: (ids,)})

    def test_serves_only_indexed_relations(self, served):
        _, encrypted = served
        access = _access(encrypted)
        request = IndexLookupRequest(labels=(L1,))
        assert not access.can_serve("Emp", request)
        access.put("Emp", self._snapshot_for(encrypted))
        assert access.can_serve("Emp", request)
        assert not access.can_serve("Other", request)

    def test_search_fetches_only_candidates(self, served):
        _, encrypted = served
        access = _access(encrypted)
        access.put("Emp", self._snapshot_for(encrypted, matching=2))
        result = access.search("Emp", IndexLookupRequest(labels=(L1,)))
        assert len(result.matching) == 2
        assert result.examined == 2  # O(result), not O(data)
        assert result.token_evaluations == 0

    def test_stale_and_dummy_candidates_fetch_nothing(self, served):
        _, encrypted = served
        access = _access(encrypted)
        ids = (encrypted.encrypted_tuples[0].tuple_id, b"\xee" * 16)
        access.put(
            "Emp", IndexSnapshot(bucket_capacity=4, entries={L1: (ids,)})
        )
        result = access.search("Emp", IndexLookupRequest(labels=(L1,)))
        assert len(result.matching) == 1
        assert result.examined == 1

    def test_delta_on_unindexed_relation_is_noop(self):
        access = IndexAccess(InMemoryStorageBackend())
        assert access.apply_delta("Emp", IndexDelta(additions=((L1, _id(1)),))) is False
        assert access.deltas == 0

    def test_note_store_drops_the_index(self, served):
        _, encrypted = served
        access = _access(encrypted)
        access.put("Emp", self._snapshot_for(encrypted))
        access.note_store("Emp")
        assert access.index_for("Emp") is None
        assert not access.can_serve("Emp", IndexLookupRequest(labels=(L1,)))

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_lookups_fetch_what_the_store_holds_now(self, served, backend, tmp_path):
        """The store is the one id map: writes after the put show at once."""
        _, encrypted = served
        storage = (
            InMemoryStorageBackend() if backend == "memory" else FileStorageBackend(tmp_path)
        )
        storage.save("Emp", encrypted)
        access = IndexAccess(storage)
        first, second = encrypted.encrypted_tuples[:2]
        access.put(
            "Emp",
            IndexSnapshot(
                bucket_capacity=4, entries={L1: ((first.tuple_id, second.tuple_id),)}
            ),
        )
        lookup = IndexLookupRequest(labels=(L1,))
        assert len(access.search("Emp", lookup).matching) == 2
        storage.remove("Emp", [first.tuple_id])
        assert access.search("Emp", lookup).matching.encrypted_tuples == (second,)
        storage.append("Emp", [first])
        assert len(access.search("Emp", lookup).matching) == 2

    def test_stats_shape(self, served):
        _, encrypted = served
        access = _access(encrypted)
        access.put("Emp", self._snapshot_for(encrypted))
        stats = access.stats()
        assert stats["indexed_relations"] == ["Emp"]
        assert stats["puts"] == 1
        assert stats["relations"]["Emp"]["bucket_capacity"] == 4


class TestScanAccess:
    def test_serves_only_with_a_fallback_query(self, served):
        dph, encrypted = served
        access = ScanAccess(lambda name, query: None)
        assert not access.can_serve("Emp", IndexLookupRequest(labels=(L1,)))
        from repro.relational import Selection

        fallback = dph.encrypt_query(Selection.equals("dept", "HR"))
        assert access.can_serve(
            "Emp", IndexLookupRequest(labels=(L1,), fallback_query=fallback)
        )

    def test_search_delegates_to_the_evaluate_callable(self, served):
        dph, encrypted = served
        from repro.relational import Selection

        calls = []

        def evaluate(name, query):
            calls.append((name, query))
            return "result"

        access = ScanAccess(evaluate)
        fallback = dph.encrypt_query(Selection.equals("dept", "HR"))
        request = IndexLookupRequest(labels=(L1,), fallback_query=fallback)
        assert access.search("Emp", request) == "result"
        assert calls == [("Emp", fallback)]
