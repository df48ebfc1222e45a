"""Unit tests for the client-side :class:`TableIndexer`."""

from __future__ import annotations

import pytest

from repro.core import SearchableSelectDph
from repro.index import IndexingError, TableIndexer
from repro.relational import Selection
from repro.relational.errors import QueryError
from repro.relational.query import ConjunctiveSelection, Projection


@pytest.fixture
def indexer(employee_schema, secret_key):
    return TableIndexer(employee_schema, secret_key.subkey("index/Emp"))


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

    def test_labels_differ_across_keys(self, employee_schema, secret_key):
        one = TableIndexer(employee_schema, secret_key.subkey("index/A"))
        two = TableIndexer(employee_schema, secret_key.subkey("index/B"))
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
    def test_the_postings_are_each_rows_insert_delta(self, indexer, encrypted_pair):
        relation, encrypted = encrypted_pair
        expected = tuple(
            posting
            for row, t in zip(relation.tuples, encrypted.encrypted_tuples)
            for posting in indexer.insert_delta(row, t.tuple_id).additions
        )
        assert indexer.snapshot(relation, encrypted) == expected

    def test_a_label_posts_exactly_the_ids_holding_its_value(self, indexer, encrypted_pair):
        relation, encrypted = encrypted_pair
        hr_label = indexer.label("dept", "HR")
        hr_ids = [
            t.tuple_id
            for row, t in zip(relation.tuples, encrypted.encrypted_tuples)
            if row.value("dept") == "HR"
        ]
        postings = indexer.snapshot(relation, encrypted)
        assert [i for label, i in postings if label == hr_label] == hr_ids
        assert len(postings) == len(relation.tuples) * len(relation.schema.attributes)

    def test_misaligned_relations_rejected(self, indexer, encrypted_pair):
        from repro.relational import Relation

        relation, encrypted = encrypted_pair
        shorter = Relation(relation.schema, list(relation.tuples)[:-1])
        with pytest.raises(IndexingError, match="different counts"):
            indexer.snapshot(shorter, encrypted)


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
