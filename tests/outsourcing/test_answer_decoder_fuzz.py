"""Every answer-body decoder returns or raises a ``ProtocolError``, on any bytes.

The decoders a client runs on a provider's answer (each ``decode`` of
``protocol.ANSWER_CODECS``), the two a provider runs on a write's body
(``decode_insert_tuples``, ``decode_delete_tuples``) and the index
decoders a provider runs on a write's postings, an ``INDEX_PUT`` body and
an ``INDEX_LOOKUP`` body (``repro.index.wire``) are fed bytes drawn
three ways: arbitrary bytes; bytes behind a 4-byte count, small or near
2**32, and runs of length-prefixed parts whose prefixes may be off by a
few bytes; and each decoder's own well-formed body, truncated, with one
byte changed or with bytes appended.  Each draw must decode or raise
:class:`ProtocolError` (or a subclass) -- never ``IndexError``,
``struct.error``, ``UnicodeDecodeError``, ``SchemaError`` or
``MemoryError``.  The module runs once per tuple walk (the ``match_kernel``
fixture): the native ``decode_tuples`` and the Python walk alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dph import EvaluationResult
from repro.crypto.rng import DeterministicRng
from repro.index.wire import (
    IndexDelta,
    IndexLookupRequest,
    decode_index_delta,
    decode_index_lookup,
    decode_index_snapshot,
    encode_index_delta,
    encode_index_lookup,
    encode_index_snapshot,
)
from repro.outsourcing.protocol import (
    ANSWER_CODECS,
    MessageKind,
    ProtocolError,
    decode_delete_tuples,
    decode_insert_tuples,
    encode_count,
    encode_delete_tuples,
    encode_evaluation_result,
    encode_insert_tuples,
    encode_relation_names,
    encode_result_batch,
    encode_tuple_ids,
)
from repro.relational import Relation, RelationSchema, Selection
from repro.schemes.registry import create

pytestmark = pytest.mark.usefixtures("match_kernel")

SCHEMA = RelationSchema.parse("Emp(name:string[14], dept:string[5], salary:int[6])")
_DPH = create("swp", SCHEMA, bytes(range(32)), rng=DeterministicRng(11))
_ENCRYPTED = _DPH.encrypt_relation(
    Relation.from_rows(SCHEMA, [("Smith", "IT", 5200), ("Jones", "HR", 7500)])
)
_RESULT = EvaluationResult(_ENCRYPTED, examined=2, token_evaluations=6)
_IDS = [item.tuple_id for item in _ENCRYPTED.encrypted_tuples]
_POSTINGS = ((b"L" * 32, _IDS[0]), (b"M" * 32, _IDS[0]), (b"L" * 32, _IDS[1]))
_LOOKUP = IndexLookupRequest(
    labels=(b"L" * 32, b"M" * 32),
    fallback_query=_DPH.encrypt_query(Selection.equals("dept", "HR")),
)

#: Each decoder under test, and a well-formed body it accepts.
DECODERS = {
    "ack": (ANSWER_CODECS[MessageKind.ACK][0], encode_count(7)),
    "query_result": (ANSWER_CODECS[MessageKind.QUERY_RESULT][0],
                     encode_evaluation_result(_RESULT)),
    "batch_result": (ANSWER_CODECS[MessageKind.BATCH_RESULT][0],
                     encode_result_batch([_RESULT, _RESULT])),
    "tuple_ids": (ANSWER_CODECS[MessageKind.TUPLE_IDS][0], encode_tuple_ids(_IDS)),
    "relations": (ANSWER_CODECS[MessageKind.RELATIONS][0],
                  encode_relation_names(["Emp", "Dept"])),
    "insert_tuples": (decode_insert_tuples,
                      encode_insert_tuples(b"postings", _ENCRYPTED.encrypted_tuples)),
    "delete_tuples": (decode_delete_tuples, encode_delete_tuples(_IDS, b"postings")),
    "index_delta": (decode_index_delta, encode_index_delta(
        IndexDelta(additions=_POSTINGS[:2], removals=_POSTINGS[2:]))),
    "index_put": (decode_index_snapshot, encode_index_snapshot(_POSTINGS)),
    "index_lookup": (decode_index_lookup, encode_index_lookup(_LOOKUP)),
}


def test_every_answer_codec_is_fuzzed():
    fuzzed = {decode for decode, _ in DECODERS.values()}
    assert {decode for decode, _ in ANSWER_CODECS.values()} <= fuzzed


def _counted(count: int, rest: bytes) -> bytes:
    return count.to_bytes(4, "big") + rest


def _parts(parts: list) -> bytes:
    return b"".join(
        max(0, len(part) + skew).to_bytes(4, "big") + part for part, skew in parts
    )


def _damaged(valid: bytes, data) -> bytes:
    how = data.draw(st.sampled_from(("truncate", "change", "append")))
    if how == "append":
        return valid + data.draw(st.binary(min_size=1, max_size=16))
    position = data.draw(st.integers(0, len(valid) - 1))
    if how == "truncate":
        return valid[:position]
    changed = bytearray(valid)
    changed[position] = data.draw(st.integers(0, 255))
    return bytes(changed)


RAW = st.one_of(
    st.binary(max_size=256),
    st.builds(_counted, st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1)),
              st.binary(max_size=128)),
    st.lists(st.tuples(st.binary(max_size=40), st.integers(-2, 2)), max_size=8).map(_parts),
)


def _returns_or_raises_a_protocol_error(decode, raw: bytes) -> None:
    try:
        decode(raw)
    except ProtocolError:
        pass


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(raw=RAW)
@settings(max_examples=100, deadline=None)
def test_drawn_bytes(name, raw):
    _returns_or_raises_a_protocol_error(DECODERS[name][0], raw)


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_damaged_well_formed_bodies(name, data):
    decode, valid = DECODERS[name]
    decode(valid)
    _returns_or_raises_a_protocol_error(decode, _damaged(valid, data))
