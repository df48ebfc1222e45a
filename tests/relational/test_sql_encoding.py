"""Tests for the SQL parser and the value / tuple codecs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.encoding import TupleCodec, ValueCodec, word_value_width
from repro.relational.errors import EncodingError, SqlParseError
from repro.relational.query import ConjunctiveSelection, Projection, Selection
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql import parse_sql
from repro.relational.tuples import RelationTuple


@pytest.fixture
def schema():
    return RelationSchema(
        "Emp",
        [Attribute.string("name", 10), Attribute.string("dept", 5), Attribute.integer("salary", 6)],
    )


class TestSqlParser:
    def test_single_equality(self, schema):
        parsed = parse_sql("SELECT * FROM Emp WHERE dept = 'HR'", schema)
        assert parsed.relation_name == "Emp"
        assert isinstance(parsed.query, Selection)
        assert parsed.query.value == "HR"

    def test_paper_hospital_queries(self):
        """The exact statements from Section 2 of the paper."""
        schema = RelationSchema(
            "table",
            [Attribute.integer("hospital", 1), Attribute.string("outcome", 7)],
        )
        for statement, attribute, value in [
            ("SELECT * FROM table WHERE hospital = 1;", "hospital", 1),
            ("SELECT * FROM table WHERE outcome = 'fatal';", "outcome", "fatal"),
        ]:
            parsed = parse_sql(statement, schema)
            assert isinstance(parsed.query, Selection)
            assert parsed.query.attribute == attribute
            assert parsed.query.value == value

    def test_conjunction(self, schema):
        parsed = parse_sql("SELECT * FROM Emp WHERE dept = 'HR' AND salary = 800", schema)
        assert isinstance(parsed.query, ConjunctiveSelection)
        assert len(parsed.query.predicates()) == 2

    def test_projection(self, schema):
        parsed = parse_sql("SELECT name, salary FROM Emp WHERE dept = 'HR'", schema)
        assert isinstance(parsed.query, Projection)
        assert parsed.query.attributes == ("name", "salary")

    def test_integer_literal_typed_by_schema(self, schema):
        parsed = parse_sql("SELECT * FROM Emp WHERE salary = 800", schema)
        assert parsed.query.value == 800

    def test_bare_literal_for_string_attribute(self, schema):
        parsed = parse_sql("SELECT * FROM Emp WHERE dept = HR", schema)
        assert parsed.query.value == "HR"

    def test_without_schema_numbers_parse_as_int(self):
        parsed = parse_sql("SELECT * FROM t WHERE x = 42")
        assert parsed.query.value == 42

    def test_case_insensitive_keywords(self, schema):
        parsed = parse_sql("select name from Emp where dept = 'HR'", schema)
        assert isinstance(parsed.query, Projection)

    def test_missing_where_rejected(self, schema):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT * FROM Emp", schema)

    def test_malformed_statements_rejected(self, schema):
        for bad in [
            "UPDATE Emp SET x = 1",
            "SELECT FROM Emp WHERE a = 1",
            "SELECT * FROM Emp WHERE dept LIKE 'H%'",
            "SELECT * FROM Emp WHERE salary > 100",
        ]:
            with pytest.raises(SqlParseError):
                parse_sql(bad, schema)

    def test_unknown_attribute_rejected_with_schema(self, schema):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT * FROM Emp WHERE nope = 1", schema)

    def test_bad_integer_literal_rejected(self, schema):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT * FROM Emp WHERE salary = abc", schema)


class TestValueCodec:
    def test_string_roundtrip(self, schema):
        attribute = schema.attribute("name")
        assert ValueCodec.decode(attribute, ValueCodec.encode(attribute, "Ada")) == "Ada"

    def test_integer_roundtrip(self, schema):
        attribute = schema.attribute("salary")
        assert ValueCodec.decode(attribute, ValueCodec.encode(attribute, 7500)) == 7500
        assert ValueCodec.encode(attribute, 7500) == b"7500"

    def test_decode_errors(self, schema):
        salary = schema.attribute("salary")
        with pytest.raises(EncodingError):
            ValueCodec.decode(salary, b"not-an-int")
        with pytest.raises(EncodingError):
            ValueCodec.decode(salary, b"\xff\xfe")

    def test_encode_validates(self, schema):
        with pytest.raises(Exception):
            ValueCodec.encode(schema.attribute("name"), "x" * 99)


class TestTupleCodec:
    def test_roundtrip(self, schema):
        codec = TupleCodec(schema)
        t = RelationTuple(schema, {"name": "Ada", "dept": "IT", "salary": 900})
        assert codec.decode(codec.encode(t)) == t

    def test_rejects_foreign_tuple(self, schema):
        other = RelationSchema("X", [Attribute.string("a", 3)])
        codec = TupleCodec(schema)
        with pytest.raises(EncodingError):
            codec.encode(RelationTuple(other, {"a": "x"}))

    def test_rejects_truncated_and_padded_bytes(self, schema):
        codec = TupleCodec(schema)
        t = RelationTuple(schema, {"name": "Ada", "dept": "IT", "salary": 900})
        raw = codec.encode(t)
        with pytest.raises(EncodingError):
            codec.decode(raw[:-1])
        with pytest.raises(EncodingError):
            codec.decode(raw + b"\x00")
        with pytest.raises(EncodingError):
            codec.decode(b"\x00")

    def test_frame_takes_values_up_to_two_length_bytes(self, schema):
        codec = TupleCodec(schema)
        assert codec.frame([b"", b"x" * 0xFFFF]) == b"\x00\x00\xff\xff" + b"x" * 0xFFFF
        with pytest.raises(EncodingError, match="^encoded value too long$"):
            codec.frame([b"ok", b"x" * 0x10000])

    def test_encode_values_takes_subclasses_as_validation_does(self, schema):
        class Text(str):
            pass

        class Number(int):
            pass

        t = RelationTuple(schema, {"name": Text("Ada"), "dept": "IT", "salary": Number(900)})
        assert TupleCodec(schema).encode_values(t) == [b"Ada", b"IT", b"900"]

    def test_word_value_width(self, schema):
        assert word_value_width(schema) == 10


@given(
    name=st.text(alphabet="abcdefghij", min_size=1, max_size=10),
    dept=st.sampled_from(["IT", "HR", "OPS"]),
    salary=st.integers(min_value=-99999, max_value=999999),
)
@settings(max_examples=60, deadline=None)
def test_property_tuple_codec_roundtrip(name, dept, salary):
    schema = RelationSchema(
        "Emp",
        [Attribute.string("name", 10), Attribute.string("dept", 5), Attribute.integer("salary", 6)],
    )
    codec = TupleCodec(schema)
    t = RelationTuple(schema, {"name": name, "dept": dept, "salary": salary})
    assert codec.decode(codec.encode(t)) == t
