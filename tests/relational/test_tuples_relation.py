"""Tests for tuples and relations (multiset semantics)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.tuples import RelationTuple


@pytest.fixture
def schema():
    return RelationSchema(
        "Emp",
        [Attribute.string("name", 10), Attribute.string("dept", 5), Attribute.integer("salary", 6)],
    )


class TestRelationTuple:
    def test_construction_and_access(self, schema):
        t = RelationTuple(schema, {"name": "Ada", "dept": "IT", "salary": 900})
        assert t.value("name") == "Ada"
        assert t["salary"] == 900
        assert t.as_dict() == {"name": "Ada", "dept": "IT", "salary": 900}
        assert list(t) == ["name", "dept", "salary"]
        assert len(t) == 3

    def test_missing_and_extra_attributes_rejected(self, schema):
        with pytest.raises(SchemaError):
            RelationTuple(schema, {"name": "Ada", "dept": "IT"})
        with pytest.raises(SchemaError):
            RelationTuple(schema, {"name": "Ada", "dept": "IT", "salary": 1, "extra": 2})

    def test_type_validation(self, schema):
        with pytest.raises(SchemaError):
            RelationTuple(schema, {"name": "Ada", "dept": "IT", "salary": "high"})

    def test_projection(self, schema):
        t = RelationTuple(schema, {"name": "Ada", "dept": "IT", "salary": 900})
        assert t.project(["salary", "name"]) == (900, "Ada")

    def test_value_semantics(self, schema):
        a = RelationTuple(schema, {"name": "Ada", "dept": "IT", "salary": 900})
        b = RelationTuple(schema, {"name": "Ada", "dept": "IT", "salary": 900})
        c = RelationTuple(schema, {"name": "Bob", "dept": "IT", "salary": 900})
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_unknown_key_raises(self, schema):
        t = RelationTuple(schema, {"name": "Ada", "dept": "IT", "salary": 900})
        with pytest.raises(KeyError):
            t["missing"]
        assert "missing" not in t and t.get("missing") is None  # Mapping needs KeyError

    def test_unknown_attribute_is_a_schema_error_naming_it(self, schema):
        """``value`` / ``project`` used to leak ``tuple.index(x): x not in tuple``."""
        t = RelationTuple(schema, {"name": "Ada", "dept": "IT", "salary": 900})
        for lookup in (lambda: t.value("nope"), lambda: t.project(["name", "nope"])):
            with pytest.raises(SchemaError, match="relation 'Emp' has no attribute 'nope'"):
                lookup()

    def test_positional_constructor_validates_like_the_mapping_one(self, schema):
        t = RelationTuple.from_values(schema, ["Ada", "IT", 900])
        assert t == RelationTuple(schema, {"name": "Ada", "dept": "IT", "salary": 900})
        assert hash(t) == hash(RelationTuple.from_values(schema, ("Ada", "IT", 900)))
        for bad in (
            ["Ada", "IT"],                # too narrow
            ["Ada", "IT", 900, "extra"],  # too wide
            ["Ada", "IT", "900"],         # wrong type
            ["Ada", "IT", True],          # bool is not an integer value
            ["A" * 11, "IT", 900],        # wider than string[10]
            ["Ada", "I#", 900],           # the padding symbol
            ["Ad\u00e9", "IT", 900],      # not ASCII
            ["Ada", "IT", 1234567],       # more than 6 digits
        ):
            with pytest.raises(SchemaError):
                RelationTuple.from_values(schema, bad)


class TestRelation:
    def test_add_and_len(self, schema):
        relation = Relation(schema)
        relation.add({"name": "Ada", "dept": "IT", "salary": 900})
        relation.add({"name": "Bob", "dept": "HR", "salary": 800})
        assert len(relation) == 2

    def test_from_rows(self, schema):
        relation = Relation.from_rows(schema, [("Ada", "IT", 900), ("Bob", "HR", 800)])
        assert len(relation) == 2
        assert relation.tuples[0].value("name") == "Ada"

    def test_from_rows_width_mismatch(self, schema):
        with pytest.raises(SchemaError):
            Relation.from_rows(schema, [("Ada", "IT")])

    def test_add_rejects_foreign_schema(self, schema):
        other = RelationSchema("Other", [Attribute.string("x", 3)])
        foreign = RelationTuple(other, {"x": "a"})
        with pytest.raises(SchemaError):
            Relation(schema).add(foreign)

    def test_select_equal(self, schema):
        relation = Relation.from_rows(
            schema, [("Ada", "IT", 900), ("Bob", "HR", 800), ("Cid", "IT", 700)]
        )
        selected = relation.select_equal("dept", "IT")
        assert len(selected) == 2
        assert all(t.value("dept") == "IT" for t in selected)

    def test_select_equal_unknown_attribute(self, schema):
        with pytest.raises(SchemaError):
            Relation(schema).select_equal("nope", 1)

    def test_project(self, schema):
        relation = Relation.from_rows(schema, [("Ada", "IT", 900)])
        assert relation.project(["salary", "name"]) == [(900, "Ada")]
        with pytest.raises(SchemaError):
            relation.project(["nope"])

    def test_distinct_values(self, schema):
        relation = Relation.from_rows(
            schema, [("Ada", "IT", 900), ("Bob", "HR", 800), ("Cid", "IT", 700)]
        )
        assert relation.distinct_values("dept") == {"IT", "HR"}

    def test_multiset_equality_ignores_order(self, schema):
        first = Relation.from_rows(schema, [("Ada", "IT", 900), ("Bob", "HR", 800)])
        second = Relation.from_rows(schema, [("Bob", "HR", 800), ("Ada", "IT", 900)])
        assert first == second

    def test_multiset_equality_counts_multiplicity(self, schema):
        first = Relation.from_rows(schema, [("Ada", "IT", 900), ("Ada", "IT", 900)])
        second = Relation.from_rows(schema, [("Ada", "IT", 900)])
        assert first != second

    def test_relations_are_not_hashable(self, schema):
        with pytest.raises(TypeError):
            hash(Relation(schema))

    def test_contains_and_iter(self, schema):
        relation = Relation.from_rows(schema, [("Ada", "IT", 900)])
        t = relation.tuples[0]
        assert t in relation
        assert list(relation) == [t]

    def test_extend(self, schema):
        relation = Relation(schema)
        relation.extend([{"name": "Ada", "dept": "IT", "salary": 900},
                         {"name": "Bob", "dept": "HR", "salary": 800}])
        assert len(relation) == 2


@given(
    rows=st.lists(
        st.tuples(
            st.text(alphabet="abcdefgh", min_size=1, max_size=8),
            st.sampled_from(["IT", "HR", "OPS"]),
            st.integers(min_value=0, max_value=999999),
        ),
        min_size=0,
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_selection_partition(rows):
    """select_equal partitions the relation: sizes of per-value selections sum to the total."""
    schema = RelationSchema(
        "Emp",
        [Attribute.string("name", 10), Attribute.string("dept", 5), Attribute.integer("salary", 6)],
    )
    relation = Relation.from_rows(schema, rows)
    total = sum(len(relation.select_equal("dept", d)) for d in ["IT", "HR", "OPS"])
    assert total == len(relation)
