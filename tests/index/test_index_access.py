"""Unit tests for the provider's index: its postings and how it serves lookups."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SearchableSelectDph
from repro.index import IndexDelta, IndexLookupRequest, RelationIndex
from repro.outsourcing import (
    FileStorageBackend,
    InMemoryStorageBackend,
    OutsourcedDatabaseServer,
)
from repro.outsourcing.audit import AuditEventKind
from repro.relational import Selection


def _id(v: int) -> bytes:
    return bytes([v]) * 16


L1, L2 = b"\x01" * 32, b"\x02" * 32


class TestRelationIndex:
    def test_postings_group_ids_by_label(self):
        index = RelationIndex(((L1, _id(1)), (L2, _id(1)), (L1, _id(2))))
        assert index.postings == {L1: {_id(1), _id(2)}, L2: {_id(1)}}
        assert index.candidates([L1]) == {_id(1), _id(2)}

    def test_apply_delta_is_idempotent(self):
        index = RelationIndex()
        delta = IndexDelta(additions=((L1, _id(1)),))
        index.apply_delta(delta)
        index.apply_delta(delta)  # replayed batch
        assert index.postings == {L1: {_id(1)}}

    def test_removals_discard(self):
        index = RelationIndex(((L1, _id(1)), (L1, _id(2))))
        index.apply_delta(IndexDelta(removals=((L1, _id(1)),)))
        assert index.candidates([L1]) == {_id(2)}

    def test_label_empties_after_last_delete(self):
        index = RelationIndex()
        index.apply_delta(IndexDelta(additions=((L1, _id(1)),)))
        index.apply_delta(IndexDelta(removals=((L1, _id(1)),)))
        assert index.candidates([L1]) == set()
        assert L1 not in index.postings
        # and an empty label annihilates any intersection
        index.apply_delta(IndexDelta(additions=((L2, _id(2)),)))
        assert index.candidates([L1, L2]) == set()

    def test_readdition_after_a_removal_is_live(self):
        index = RelationIndex()
        index.apply_delta(IndexDelta(additions=((L1, _id(1)),)))
        index.apply_delta(IndexDelta(removals=((L1, _id(1)),)))
        index.apply_delta(IndexDelta(additions=((L1, _id(1)),)))
        assert index.candidates([L1]) == {_id(1)}

    def test_unknown_removals_ignored(self):
        index = RelationIndex(((L1, _id(1)),))
        index.apply_delta(IndexDelta(removals=((L1, _id(9)), (L2, _id(1)))))
        assert index.postings == {L1: {_id(1)}}

    def test_candidates_intersect(self):
        index = RelationIndex(((L1, _id(1)), (L1, _id(2)), (L2, _id(2))))
        assert index.candidates([L1, L2]) == {_id(2)}

    def test_no_labels_means_no_candidates(self):
        assert RelationIndex(((L1, _id(1)),)).candidates([]) == set()

    def test_stats_count_labels_and_postings(self):
        index = RelationIndex(((L1, _id(1)), (L2, _id(1)), (L1, _id(2))))
        assert index.stats() == {"labels": 2, "postings": 3}


LABELS = (L1, L2, b"\x03" * 32)
postings = st.tuples(st.sampled_from(LABELS), st.integers(1, 6).map(_id))
deltas = st.builds(
    IndexDelta,
    additions=st.lists(postings, max_size=5).map(tuple),
    removals=st.lists(postings, max_size=5).map(tuple),
)


@given(
    put=st.lists(postings, max_size=8).map(tuple),
    history=st.lists(deltas, max_size=8),
    asked=st.lists(st.lists(st.sampled_from(LABELS), max_size=3), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_candidates_equal_a_model_of_plain_sets(put, history, asked):
    """Adds and removes in any order: every answer is the intersection of
    per-label sets that additions add to and removals discard from."""
    index = RelationIndex(put)
    model = {label: set() for label in LABELS}
    for label, tuple_id in put:
        model[label].add(tuple_id)
    for delta in history:
        index.apply_delta(delta)
        for label, tuple_id in delta.additions:
            model[label].add(tuple_id)
        for label, tuple_id in delta.removals:
            model[label].discard(tuple_id)
        assert index.postings == {label: ids for label, ids in model.items() if ids}
        for labels in asked:
            expected = set.intersection(*(model[label] for label in labels)) if labels else set()
            answer = index.candidates(labels)
            assert answer == expected
            assert type(answer) is set


@pytest.fixture
def served(employee_schema, employee_relation, secret_key, rng):
    """An encrypted relation plus a live evaluator, as a provider holds them."""
    dph = SearchableSelectDph(employee_schema, secret_key, backend="swp", rng=rng)
    encrypted = dph.encrypt_relation(employee_relation)
    return dph, encrypted


def _provider(dph, encrypted, storage=None) -> OutsourcedDatabaseServer:
    """A provider storing ``encrypted`` as ``Emp``."""
    provider = OutsourcedDatabaseServer(storage=storage)
    provider.store_relation("Emp", encrypted, dph.server_evaluator())
    return provider


def _lookup(dph, labels=(L1,)) -> IndexLookupRequest:
    return IndexLookupRequest(
        labels=labels, fallback_query=dph.encrypt_query(Selection.equals("dept", "HR"))
    )


def _put(provider, encrypted, label=L1, matching=2) -> None:
    ids = [t.tuple_id for t in encrypted.encrypted_tuples[:matching]]
    provider.put_index("Emp", tuple((label, tuple_id) for tuple_id in ids))


class TestProviderLookup:
    def test_serves_from_the_index_only_once_one_is_installed(self, served):
        dph, encrypted = served
        provider = _provider(dph, encrypted)
        scanned = provider.index_lookup("Emp", _lookup(dph))
        assert scanned.examined == len(encrypted)
        _put(provider, encrypted)
        assert provider.index_lookup("Emp", _lookup(dph)).examined == 2
        accesses = [
            event.detail["access"]
            for event in provider.audit_log.events_of_kind(AuditEventKind.INDEX_LOOKUP_SERVED)
        ]
        assert accesses == ["scan", "index"]
        assert provider.index_stats()["scan_fallbacks"] == 1

    def test_the_scan_answers_the_embedded_query(self, served):
        dph, encrypted = served
        provider = _provider(dph, encrypted)
        request = _lookup(dph)
        assert provider.index_lookup("Emp", request) == provider.execute_query(
            "Emp", request.fallback_query
        )

    def test_search_fetches_only_candidates(self, served):
        dph, encrypted = served
        provider = _provider(dph, encrypted)
        _put(provider, encrypted, matching=2)
        result = provider.index_lookup("Emp", _lookup(dph))
        assert len(result.matching) == 2
        assert result.examined == 2  # O(result), not O(data)
        assert result.token_evaluations == 0

    def test_stale_candidates_fetch_nothing(self, served):
        dph, encrypted = served
        provider = _provider(dph, encrypted)
        ids = (encrypted.encrypted_tuples[0].tuple_id, b"\xee" * 16)
        provider.put_index("Emp", tuple((L1, tuple_id) for tuple_id in ids))
        result = provider.index_lookup("Emp", _lookup(dph))
        assert len(result.matching) == 1
        assert result.examined == 1

    def test_delta_on_unindexed_relation_is_noop(self, served):
        dph, encrypted = served
        provider = _provider(dph, encrypted)
        provider.insert_tuples("Emp", [], IndexDelta(additions=((L1, _id(1)),)))
        assert provider.relation_index("Emp") is None
        assert provider.index_stats()["deltas"] == 0

    def test_storing_the_relation_again_drops_the_index(self, served):
        dph, encrypted = served
        provider = _provider(dph, encrypted)
        _put(provider, encrypted)
        provider.store_relation("Emp", encrypted, dph.server_evaluator())
        assert provider.relation_index("Emp") is None
        assert provider.index_lookup("Emp", _lookup(dph)).examined == len(encrypted)

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_lookups_fetch_what_the_store_holds_now(self, served, backend, tmp_path):
        """The store is the one id map: writes after the put show at once."""
        dph, encrypted = served
        storage = (
            InMemoryStorageBackend() if backend == "memory" else FileStorageBackend(tmp_path)
        )
        provider = _provider(dph, encrypted, storage)
        first, second = encrypted.encrypted_tuples[:2]
        _put(provider, encrypted, matching=2)
        lookup = _lookup(dph)
        assert len(provider.index_lookup("Emp", lookup).matching) == 2
        storage.remove("Emp", [first.tuple_id])
        assert provider.index_lookup("Emp", lookup).matching.encrypted_tuples == (second,)
        storage.append("Emp", [first])
        assert len(provider.index_lookup("Emp", lookup).matching) == 2

    def test_stats_shape(self, served):
        dph, encrypted = served
        provider = _provider(dph, encrypted)
        _put(provider, encrypted)
        stats = provider.index_stats()
        assert list(stats) == [
            "indexed_relations", "puts", "deltas", "lookups", "relations", "scan_fallbacks"
        ]
        assert stats["indexed_relations"] == ["Emp"]
        assert stats["puts"] == 1
        assert stats["relations"]["Emp"] == {"labels": 1, "postings": 2}
