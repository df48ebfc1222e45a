"""Tests for the byte-level wire format."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dph import EncryptedQuery, EncryptedRelation, EncryptedTuple
from repro.outsourcing.protocol import (
    MessageKind,
    MessageV2,
    ProtocolError,
    decode_encrypted_query,
    decode_encrypted_relation,
    decode_encrypted_tuple,
    encode_encrypted_query,
    encode_encrypted_relation,
    encode_encrypted_tuple,
)
from repro.relational import RelationSchema, Selection


class TestTupleEncoding:
    def test_roundtrip(self):
        original = EncryptedTuple(
            tuple_id=b"id-bytes",
            payload=b"payload-bytes",
            search_fields=(b"f1", b"", b"field-3"),
            metadata=b"meta",
        )
        decoded, consumed = decode_encrypted_tuple(encode_encrypted_tuple(original))
        assert decoded == original
        assert consumed == len(encode_encrypted_tuple(original))

    def test_truncated_rejected(self):
        raw = encode_encrypted_tuple(EncryptedTuple(tuple_id=b"x", payload=b"y"))
        with pytest.raises(ProtocolError):
            decode_encrypted_tuple(raw[:-1])


class TestRelationEncoding:
    def test_roundtrip(self, swp_dph, employee_relation):
        encrypted = swp_dph.encrypt_relation(employee_relation)
        decoded = decode_encrypted_relation(encode_encrypted_relation(encrypted))
        assert decoded.encrypted_tuples == encrypted.encrypted_tuples
        assert decoded.schema.attribute_names == encrypted.schema.attribute_names
        # the decoded copy is still decryptable by the key holder
        assert swp_dph.decrypt_relation(decoded) == employee_relation

    def test_trailing_bytes_rejected(self, swp_dph, employee_relation):
        raw = encode_encrypted_relation(swp_dph.encrypt_relation(employee_relation))
        with pytest.raises(ProtocolError):
            decode_encrypted_relation(raw + b"extra")


class TestQueryEncoding:
    def test_roundtrip(self, swp_dph):
        query = swp_dph.encrypt_query(Selection.equals("dept", "HR"))
        assert decode_encrypted_query(encode_encrypted_query(query)) == query

    def test_roundtrip_with_metadata(self):
        query = EncryptedQuery(scheme_name="s", tokens=(b"t1", b"t2"), metadata=b"m")
        assert decode_encrypted_query(encode_encrypted_query(query)) == query

    def test_trailing_bytes_rejected(self, swp_dph):
        raw = encode_encrypted_query(swp_dph.encrypt_query(Selection.equals("dept", "HR")))
        with pytest.raises(ProtocolError):
            decode_encrypted_query(raw + b"!")


class TestMessageEnvelope:
    def test_roundtrip(self):
        message = MessageV2(kind=MessageKind.QUERY, relation_name="emp", body=b"body")
        assert MessageV2.from_bytes(message.to_bytes()) == message

    def test_unknown_kind_rejected(self):
        message = MessageV2(kind=MessageKind.QUERY, relation_name="emp", body=b"")
        raw = message.to_bytes().replace(b"query", b"nosuc")
        with pytest.raises(ProtocolError):
            MessageV2.from_bytes(raw)

    def test_trailing_bytes_rejected(self):
        raw = MessageV2(kind=MessageKind.ERROR, relation_name="emp").to_bytes()
        with pytest.raises(ProtocolError):
            MessageV2.from_bytes(raw + b"x")


@given(
    tuple_id=st.binary(min_size=1, max_size=20),
    payload=st.binary(min_size=0, max_size=60),
    fields=st.lists(st.binary(min_size=0, max_size=20), max_size=6),
    metadata=st.binary(min_size=0, max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_property_tuple_encoding_roundtrip(tuple_id, payload, fields, metadata):
    original = EncryptedTuple(
        tuple_id=tuple_id, payload=payload, search_fields=tuple(fields), metadata=metadata
    )
    decoded, _ = decode_encrypted_tuple(encode_encrypted_tuple(original))
    assert decoded == original
