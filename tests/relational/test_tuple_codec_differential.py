"""The compiled tuple decoder against a transcription of the one it replaced.

``ReferenceTupleCodec.decode`` below is ``TupleCodec.decode`` of the parent
commit (409c0cf) copied literally: parse every value, then build the tuple
through ``RelationTuple.from_values``, which validates each value a second
time.  The compiled decoder checks each value as it parses it.  Payloads of
the plaintext and baseline schemes are not MAC'd, so it must accept exactly
the bytes the reference accepts, with equal tuples, and reject every other
input with an ``EncodingError`` of the same message.

The module runs once per row decode (the ``match_kernel`` fixture).  On the
result path a row goes first through ``TupleCodec.decode_regular`` -- the
native ``decode_rows``, which decodes the common case (ASCII values within
their widths, no ``#`` in a string, an integer of the form ``-?[0-9]+`` with
at most 18 digits) and leaves every other row ``None`` -- and then, if it
was left, through ``decode``.  That composition must match the reference,
and the kernel must leave exactly the rows outside the common case.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.relational import RelationSchema
from repro.relational.encoding import TupleCodec
from repro.relational.errors import EncodingError, SchemaError
from repro.relational.tuples import RelationTuple
from repro.relational.types import AttributeType

SCHEMA = RelationSchema.parse("T(s:string[4], n:int[3], big:int, c:string[1], huge:int[25])")
GOOD_TEXTS = (b"abcd", b"-12", b"123456789012", b"z", b"-" + b"9" * 18)

pytestmark = pytest.mark.usefixtures("match_kernel")


# --------------------------------------------------------------------------- #
# The parent commit's decoder, verbatim
# --------------------------------------------------------------------------- #

class ReferenceTupleCodec:
    def __init__(self, schema: RelationSchema) -> None:
        self._schema = schema
        # The decode plan: per attribute, whether its text parses as an integer.
        self._integer = tuple(
            a.attribute_type is AttributeType.INTEGER for a in schema.attributes
        )

    def decode(self, raw: bytes) -> RelationTuple:
        """Parse bytes produced by :meth:`encode` back into a tuple."""
        values = []
        offset = 0
        end = len(raw)
        for integer in self._integer:
            start = offset + 2
            if start > end:
                raise EncodingError("truncated tuple encoding (missing length prefix)")
            offset = start + int.from_bytes(raw[offset:start], "big")
            if offset > end:
                raise EncodingError("truncated tuple encoding (missing value bytes)")
            try:
                text = raw[start:offset].decode("ascii")
                values.append(int(text) if integer else text)
            except ValueError as exc:  # UnicodeDecodeError is a ValueError
                raise EncodingError(
                    f"invalid value encoding {raw[start:offset]!r}"
                ) from exc
        if offset != end:
            raise EncodingError("trailing bytes after tuple encoding")
        try:
            return RelationTuple.from_values(self._schema, values)
        except SchemaError as exc:
            raise EncodingError(f"decoded tuple violates its schema: {exc}") from exc


CODEC = TupleCodec(SCHEMA)
REFERENCE = ReferenceTupleCodec(SCHEMA)


def decode_on_the_result_path(raw: bytes) -> RelationTuple:
    """The kernel's decode of the common case, ``decode`` of any row it leaves."""
    relation_tuple = CODEC.decode_regular([raw])[0]
    return CODEC.decode(raw) if relation_tuple is None else relation_tuple


def verdict(decode, raw: bytes):
    """``("tuple", values and their types)`` or ``("error", message)``."""
    try:
        relation_tuple = decode(raw)
    except EncodingError as exc:
        return "error", str(exc)
    values = tuple(relation_tuple.values())
    return "tuple", relation_tuple.schema, values, tuple(map(type, values))


def assert_same_verdict(raw: bytes) -> None:
    assert verdict(decode_on_the_result_path, raw) == verdict(REFERENCE.decode, raw)


def common_case(texts) -> bool:
    """Whether the row framing ``texts`` is one the kernel decodes itself."""
    if len(texts) != len(SCHEMA):
        return False
    for text, attribute in zip(texts, SCHEMA.attributes):
        if len(text) > attribute.max_length or any(byte >= 0x80 for byte in text):
            return False
        if attribute.attribute_type is AttributeType.INTEGER:
            if re.fullmatch(rb"-?[0-9]{1,18}", text) is None:
                return False
        elif b"#" in text:
            return False
    return True


def assert_the_kernel_decodes_the_common_case(texts) -> None:
    """The kernel decodes every common-case row and leaves every other one."""
    if native.kernel is not None:
        decoded = CODEC.decode_regular([frame(texts)])[0]
        assert (decoded is not None) == common_case(texts)


def frame(texts) -> bytes:
    """The tuple encoding of raw value texts: a 2-byte length before each."""
    return b"".join(len(text).to_bytes(2, "big") + text for text in texts)


# --------------------------------------------------------------------------- #
# Boundary values, one attribute at a time
# --------------------------------------------------------------------------- #

#: What each attribute is given, the others keeping a good value.
BOUNDARY_TEXTS = {
    "empty": b"",
    "pad symbol": b"#",
    "pad symbol inside": b"a#",
    "non-ASCII": "é".encode("utf-8"),
    "non-ASCII digit": "٣".encode("utf-8"),
    "high byte": b"\xff",
    "plus sign": b"+5",
    "leading space": b" 7",
    "trailing newline": b"7\n",
    "underscore": b"0_1",
    "minus zero": b"-0",
    "width 1": b"9",
    "width 3": b"999",
    "width 4": b"9999",
    "width 4 negative": b"-999",
    "width 5": b"99999",
    "width 12": b"9" * 12,
    "width 13": b"9" * 13,
    "width 13 negative": b"-" + b"9" * 12,
    "13 leading zeros": b"0" * 13 + b"7",
    "2 leading zeros": b"007",
    "3 leading zeros": b"0007",
    "plus sign at width": b"+999",
    "letters at width": b"abcd",
    "letters past width": b"abcde",
    "hex": b"0x1f",
    "plus five": b"+5",
    "space five": b" 5",
    "one underscore zero": b"1_0",
    "minus alone": b"-",
    "byte 0x80": b"\x80",
    "trailing space": b"7 ",
    "NUL": b"\x00",
    "18 digits": b"1" * 18,
    "18 digits negative": b"-" + b"1" * 18,
    "19 digits": b"1" * 19,
    "19 digits negative": b"-" + b"9" * 19,
    "leading zeros to 19": b"0" * 18 + b"1",
    "width 25": b"9" * 25,
    "width 26": b"9" * 26,
}


@pytest.mark.parametrize("what", BOUNDARY_TEXTS)
@pytest.mark.parametrize("position", range(len(SCHEMA)), ids=SCHEMA.attribute_names)
def test_boundary_values(position, what):
    texts = list(GOOD_TEXTS)
    texts[position] = BOUNDARY_TEXTS[what]
    assert_same_verdict(frame(texts))
    assert_the_kernel_decodes_the_common_case(texts)


def test_the_boundaries_reach_both_outcomes():
    """The table above is not all rejections (nor all acceptances)."""
    outcomes = set()
    for text in BOUNDARY_TEXTS.values():
        for position in range(len(SCHEMA)):
            texts = list(GOOD_TEXTS)
            texts[position] = text
            outcomes.add(verdict(decode_on_the_result_path, frame(texts))[0])
    assert outcomes == {"tuple", "error"}


def test_the_first_bad_value_names_the_error():
    """Several bad values: the message is the one the reference raises first."""
    for texts in (
        (b"abcde", b"1234", b"1", b"z", b"1"),
        (b"a#", b"x", b"1", b"zz", b"+1"),
        (b"abcd", b"1234", b"0" * 13, b"#", b""),
        (b"abcde", b"12", b"1", b"z", b"1") + (b"junk",),
    ):
        assert_same_verdict(frame(texts))


# --------------------------------------------------------------------------- #
# Generated inputs
# --------------------------------------------------------------------------- #

value_texts = st.one_of(
    st.sampled_from(sorted(BOUNDARY_TEXTS.values())),
    st.text(alphabet="0123456789-+_ #ab\t", max_size=14).map(str.encode),
    st.binary(max_size=14),
)


@given(texts=st.lists(value_texts, min_size=5, max_size=5))
@settings(max_examples=500, deadline=None)
def test_framed_values(texts):
    assert_same_verdict(frame(texts))
    assert_the_kernel_decodes_the_common_case(texts)


@given(rows=st.lists(st.one_of(
    st.lists(value_texts, min_size=5, max_size=5).map(frame),
    st.binary(max_size=30),
    st.sampled_from([None, bytearray(frame(GOOD_TEXTS)), memoryview(frame(GOOD_TEXTS))]),
), max_size=8))
@settings(max_examples=200, deadline=None)
def test_a_batch_decodes_row_by_row(rows):
    """``decode_regular`` of a batch is the batch of its rows; a row that is
    not ``bytes`` -- ``None`` (an unopened payload) included -- is left."""
    batch = CODEC.decode_regular(rows)
    assert batch == [CODEC.decode_regular([row])[0] for row in rows]
    for row, decoded in zip(rows, batch):
        if not isinstance(row, bytes):
            assert decoded is None
        elif decoded is not None:
            assert verdict(lambda raw: decoded, row) == verdict(REFERENCE.decode, row)


@given(texts=st.lists(value_texts, min_size=0, max_size=6), junk=st.binary(max_size=6),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_truncated_and_padded_frames(texts, junk, data):
    raw = frame(texts)
    cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
    assert_same_verdict(raw[:cut])
    assert_same_verdict(raw + junk)


@given(raw=st.binary(max_size=40))
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes(raw):
    assert_same_verdict(raw)


@given(
    s=st.text(alphabet="abcXYZ019 -", max_size=4),
    n=st.integers(min_value=-99, max_value=999),
    big=st.integers(min_value=-(10**11) + 1, max_value=10**12 - 1),
    c=st.text(alphabet="xy", min_size=1, max_size=1),
    huge=st.integers(min_value=-(10**24) + 1, max_value=10**25 - 1),
)
@settings(max_examples=200, deadline=None)
def test_encoded_tuples_round_trip(s, n, big, c, huge):
    relation_tuple = RelationTuple.from_values(SCHEMA, (s, n, big, c, huge))
    raw = CODEC.encode(relation_tuple)
    assert decode_on_the_result_path(raw) == relation_tuple == REFERENCE.decode(raw)
