"""Every bad value is refused on the encrypt path, with the exception it always raised.

``encrypt_tuple`` validates and encodes each value once and builds both the
searchable words and the payload from those bytes; ``encrypt_query`` and the
index's ``insert_delta`` encode through the same ``ValueCodec``.  The types
and messages below were recorded on the commit before that change (2329cc0),
except for tuples of another schema: every scheme now refuses those with the
codec's schema error before it looks at a value or draws randomness, and
``encrypt_relation`` validates every row before its first draw.
"""

from __future__ import annotations

import re

import pytest

from repro.core.construction import SearchableSelectDph
from repro.core.variable_length import VariableWidthSelectDph
from repro.crypto.rng import DeterministicRng
from repro.index import TableIndexer
from repro.relational import Relation, RelationSchema, Selection
from repro.relational.errors import EncodingError, SchemaError
from repro.relational.tuples import RelationTuple
from repro.schemes.registry import available_schemes, create

KEY = bytes(range(32))
SCHEMA = RelationSchema.parse("Emp(name:string[14], dept:string[5], salary:int[6])")
WIDER = RelationSchema.parse("Emp(name:string[40], dept:string[40], salary:int[12])")
RENAMED = RelationSchema.parse("Emp(name:string[14], unit:string[5], salary:int[6])")
GOOD = {"name": "Montgomery", "dept": "HR", "salary": 7500}

#: what -> (attribute, value, message of the SchemaError)
BAD_VALUES = {
    "too long": ("name", "x" * 15, "string 'xxxxxxxxxxxxxxx' longer than the declared maximum 14"),
    "pad byte inside": ("dept", "H#R", "string values must not contain '#', the padding symbol"),
    "non-ASCII": ("name", "Zoë", "string 'Zoë' is not ASCII"),
    "int for a string": ("dept", 7, "expected str, got int: 7"),
    "string for an int": ("salary", "7500", "expected int, got str: '7500'"),
    "bool for an int": ("salary", True, "expected int, got bool: True"),
    "too many digits": ("salary", 1234567, "integer 1234567 needs more than 6 characters"),
}

SCHEMES = {
    "swp": lambda rng: SearchableSelectDph(SCHEMA, KEY, backend="swp", rng=rng),
    "index": lambda rng: SearchableSelectDph(SCHEMA, KEY, backend="index", rng=rng),
    "variable": lambda rng: VariableWidthSelectDph(SCHEMA, KEY, rng=rng),
}


def unvalidated(values: dict) -> RelationTuple:
    """A tuple claiming ``SCHEMA`` whose values were never checked against it."""
    return RelationTuple.from_checked_values(
        SCHEMA, tuple(values[name] for name in SCHEMA.attribute_names)
    )


def raises_exactly(error_type, message):
    return pytest.raises(error_type, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize("what", BAD_VALUES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_bad_values_are_refused_by_the_schemes(scheme, what):
    attribute, value, message = BAD_VALUES[what]
    rng = DeterministicRng(1)
    dph = SCHEMES[scheme](rng)
    with raises_exactly(SchemaError, message):
        dph.encrypt_tuple(unvalidated({**GOOD, attribute: value}))
    with raises_exactly(SchemaError, message):
        dph.encrypt_query(Selection.equals(attribute, value))
    # A refused tuple consumed no randomness: the next one encrypts as the first would.
    fresh = SCHEMES[scheme](DeterministicRng(1))
    good = RelationTuple(SCHEMA, GOOD)
    assert dph.encrypt_tuple(good) == fresh.encrypt_tuple(good)


@pytest.mark.parametrize("what", BAD_VALUES)
def test_bad_values_are_refused_by_the_indexer(what):
    attribute, value, message = BAD_VALUES[what]
    indexer = TableIndexer(SCHEMA, KEY)
    row = {**GOOD, attribute: value}
    for bad_row in (row, unvalidated(row)):
        with raises_exactly(SchemaError, message):
            indexer.insert_delta(bad_row, b"i" * 16)
        with raises_exactly(SchemaError, message):
            indexer.remove_delta([(RelationTuple(SCHEMA, GOOD), b"j" * 16), (bad_row, b"i" * 16)])
    with raises_exactly(SchemaError, message):
        indexer.query_labels(Selection.equals(attribute, value))


#: Tuples of a schema other than the scheme's: the same names but wider
#: (a value within and a value past the scheme's width), and another relation.
FOREIGN_TUPLES = {
    "wider, within width": RelationTuple(WIDER, GOOD),
    "wider, past width": RelationTuple(WIDER, {**GOOD, "name": "x" * 15}),
    "another relation": RelationTuple(RENAMED, {"name": "a", "unit": "b", "salary": 1}),
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_tuples_of_another_schema_are_refused(scheme):
    dph = SCHEMES[scheme](DeterministicRng(1))
    for foreign in FOREIGN_TUPLES.values():
        with raises_exactly(EncodingError, "tuple schema does not match codec schema"):
            dph.encrypt_tuple(foreign)
    with raises_exactly(SchemaError, "relation 'Emp' has no attribute 'unit'"):
        dph.encrypt_query(Selection.equals("unit", "b"))


@pytest.mark.parametrize("what", FOREIGN_TUPLES)
@pytest.mark.parametrize("scheme", available_schemes())
def test_every_registered_scheme_checks_the_schema_before_the_values(scheme, what):
    """The schema check is the first thing ``encrypt_tuple`` does, for every scheme."""
    dph = create(scheme, SCHEMA, KEY, rng=DeterministicRng(1))
    with raises_exactly(EncodingError, "tuple schema does not match codec schema"):
        dph.encrypt_tuple(FOREIGN_TUPLES[what])
    # The refusal consumed no randomness.
    fresh = create(scheme, SCHEMA, KEY, rng=DeterministicRng(1))
    good = RelationTuple(SCHEMA, GOOD)
    assert dph.encrypt_tuple(good) == fresh.encrypt_tuple(good)


#: Where the one bad row of a relation sits.
POSITIONS = {"first": 0, "middle": 2, "last": 4}


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("what", BAD_VALUES)
@pytest.mark.parametrize("scheme", [*SCHEMES, *available_schemes()])
def test_a_relation_with_a_bad_row_draws_nothing(scheme, what, position):
    """``encrypt_relation`` validates every row before its first draw: a bad
    row anywhere raises what ``encrypt_tuple`` of it raises, and the next
    relation encrypts as a fresh scheme's would."""
    build = SCHEMES.get(scheme) or (lambda rng: create(scheme, SCHEMA, KEY, rng=rng))
    attribute, value, message = BAD_VALUES[what]
    rows = [
        RelationTuple(SCHEMA, {**GOOD, "salary": salary}) for salary in (1, 2, 3, 4, 5)
    ]
    rows[POSITIONS[position]] = unvalidated({**GOOD, attribute: value})
    dph = build(DeterministicRng(1))
    with raises_exactly(SchemaError, message):
        dph.encrypt_relation(Relation(SCHEMA, rows))
    good = Relation(SCHEMA, [RelationTuple(SCHEMA, GOOD), RelationTuple(SCHEMA, GOOD)])
    assert dph.encrypt_relation(good) == build(DeterministicRng(1)).encrypt_relation(good)
