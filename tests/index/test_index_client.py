"""Unit tests for the client-side :class:`TableIndexer`."""

from __future__ import annotations

import pytest

from repro.core import SearchableSelectDph
from repro.index import DEFAULT_BUCKET_CAPACITY, IndexingError, TableIndexer
from repro.relational import Selection
from repro.relational.errors import QueryError
from repro.relational.query import ConjunctiveSelection, Projection


@pytest.fixture
def indexer(employee_schema, secret_key, rng):
    return TableIndexer(
        employee_schema, secret_key.subkey("index/Emp"), rng=rng
    )


@pytest.fixture
def encrypted_pair(employee_schema, employee_relation, secret_key, rng):
    dph = SearchableSelectDph(employee_schema, secret_key, backend="swp", rng=rng)
    return employee_relation, dph.encrypt_relation(employee_relation)


class TestLabels:
    def test_labels_are_deterministic(self, indexer):
        assert indexer.label("dept", "HR") == indexer.label("dept", "HR")

    def test_labels_separate_attributes_and_values(self, indexer):
        labels = {
            indexer.label("dept", "HR"),
            indexer.label("dept", "IT"),
            indexer.label("name", "HR"),  # same value, other attribute
        }
        assert len(labels) == 3

    def test_labels_differ_across_keys(self, employee_schema, secret_key, rng):
        one = TableIndexer(employee_schema, secret_key.subkey("index/A"), rng=rng)
        two = TableIndexer(employee_schema, secret_key.subkey("index/B"), rng=rng)
        assert one.label("dept", "HR") != two.label("dept", "HR")

    def test_tuple_labels_cover_every_attribute(self, indexer, employee_relation):
        row = employee_relation.tuples[0]
        labels = indexer.tuple_labels(row)
        assert len(labels) == 3
        assert indexer.label("dept", row.value("dept")) in labels

    def test_query_labels_for_conjunctions(self, indexer):
        query = ConjunctiveSelection.of(("dept", "HR"), ("salary", 7500))
        assert len(indexer.query_labels(query)) == 2

    def test_query_labels_through_projections(self, indexer):
        query = Projection(Selection.equals("dept", "HR"), ("name",))
        assert indexer.query_labels(query) == (indexer.label("dept", "HR"),)

    def test_unsupported_query_shapes_raise(self, indexer):
        with pytest.raises(QueryError):
            indexer.query_labels(object())


class TestSnapshot:
    def test_buckets_padded_to_capacity(self, indexer, encrypted_pair):
        relation, encrypted = encrypted_pair
        snapshot = indexer.snapshot(relation, encrypted)
        assert snapshot.bucket_capacity == DEFAULT_BUCKET_CAPACITY
        for buckets in snapshot.entries.values():
            assert all(len(b) == DEFAULT_BUCKET_CAPACITY for b in buckets)

    def test_real_ids_present_dummies_fresh(self, indexer, encrypted_pair):
        relation, encrypted = encrypted_pair
        snapshot = indexer.snapshot(relation, encrypted)
        real = {t.tuple_id for t in encrypted.encrypted_tuples}
        hr_label = indexer.label("dept", "HR")
        hr_ids = {
            t.tuple_id
            for row, t in zip(relation.tuples, encrypted.encrypted_tuples)
            if row.value("dept") == "HR"
        }
        flat = {i for bucket in snapshot.entries[hr_label] for i in bucket}
        assert hr_ids <= flat
        # padding ids are fresh nonces, not recycled real ids
        assert flat - hr_ids, "expected dummy padding"
        assert not (flat - hr_ids) & real

    def test_overflowing_label_spills_into_more_buckets(
        self, employee_schema, secret_key, rng
    ):
        from repro.relational import Relation

        indexer = TableIndexer(
            employee_schema, secret_key.subkey("index/Emp"),
            bucket_capacity=2, rng=rng,
        )
        relation = Relation.from_rows(
            employee_schema, [(f"e{i}", "HR", 1) for i in range(5)]
        )
        dph = SearchableSelectDph(employee_schema, secret_key, backend="swp", rng=rng)
        snapshot = indexer.snapshot(relation, dph.encrypt_relation(relation))
        assert len(snapshot.entries[indexer.label("dept", "HR")]) == 3

    def test_misaligned_relations_rejected(self, indexer, encrypted_pair):
        from repro.relational import Relation

        relation, encrypted = encrypted_pair
        shorter = Relation(relation.schema, list(relation.tuples)[:-1])
        with pytest.raises(IndexingError, match="different sizes"):
            indexer.snapshot(shorter, encrypted)

    def test_bucket_capacity_must_be_positive(self, employee_schema, secret_key):
        with pytest.raises(IndexingError):
            TableIndexer(
                employee_schema, secret_key.subkey("index/Emp"), bucket_capacity=0
            )


class TestDeltas:
    def test_insert_delta_adds_one_posting_per_attribute(
        self, indexer, employee_relation
    ):
        row = employee_relation.tuples[0]
        delta = indexer.insert_delta(row, b"i" * 16)
        assert len(delta.additions) == 3
        assert not delta.removals
        assert all(tuple_id == b"i" * 16 for _, tuple_id in delta.additions)

    def test_remove_delta_mirrors_insert_delta(self, indexer, employee_relation):
        row = employee_relation.tuples[0]
        added = indexer.insert_delta(row, b"i" * 16)
        removed = indexer.remove_delta([(row, b"i" * 16)])
        assert set(removed.removals) == set(added.additions)
        assert not removed.additions

    def test_mapping_rows_are_labelled_in_schema_order(self, indexer, employee_relation):
        row = employee_relation.tuples[0]
        expected = indexer.insert_delta(row, b"i" * 16)
        reordered = {"salary": row["salary"], "dept": row["dept"], "name": row["name"]}
        assert indexer.tuple_labels(reordered) == indexer.tuple_labels(row)
        assert indexer.insert_delta(reordered, b"i" * 16) == expected
        assert indexer.remove_delta([(reordered, b"i" * 16)]).removals == expected.additions

    @pytest.mark.parametrize(
        "row",
        [
            {"name": "emp1", "dept": "HR"},  # would be stored, never found by salary
            {"name": "emp1", "dept": "HR", "salary": 1, "unit": "x"},
            {},
        ],
        ids=["missing attribute", "unknown attribute", "empty"],
    )
    def test_mapping_rows_must_name_exactly_the_schema(self, indexer, row):
        with pytest.raises(IndexingError, match="are not the attributes of relation 'Emp'"):
            indexer.tuple_labels(row)
        with pytest.raises(IndexingError):
            indexer.insert_delta(row, b"i" * 16)
        with pytest.raises(IndexingError):
            indexer.remove_delta([(row, b"i" * 16)])
