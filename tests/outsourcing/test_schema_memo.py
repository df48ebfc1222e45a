"""The wire schema is parsed once per spelling, within a bound a peer cannot move.

``decode_encrypted_relation`` memoises ``RelationSchema.parse`` by the exact
declaration bytes.  Those bytes are chosen by an untrusted provider, so the
contract pinned here is: the memo never outgrows ``SCHEMA_MEMO_SIZE``, a
declaration that does not parse fails on *every* call, spellings that
differ in one width stay different schemas, and there is one memo behind
every decoder that meets a declaration (replies and files at rest alike).
"""

from __future__ import annotations

import pytest

from repro.core.dph import EncryptedRelation, EvaluationResult
from repro.outsourcing import FileStorageBackend, protocol
from repro.outsourcing.protocol import (
    SCHEMA_MEMO_SIZE,
    ProtocolError,
    decode_encrypted_relation,
    decode_evaluation_result,
    encode_evaluation_result,
)
from repro.relational import RelationSchema

memo = protocol._parse_schema_declaration


def relation_bytes(declaration: bytes) -> bytes:
    """A well-formed empty relation under the given schema bytes."""
    return len(declaration).to_bytes(4, "big") + declaration + (0).to_bytes(4, "big")


@pytest.fixture(autouse=True)
def empty_memo():
    memo.cache_clear()
    yield
    memo.cache_clear()


def test_hostile_declarations_cannot_grow_the_memo():
    for i in range(1000):
        decoded = decode_encrypted_relation(
            relation_bytes(f"R{i}(a:string[{i % 40 + 1}], b:int[6])".encode())
        )
        assert decoded.schema.name == f"R{i}"
    assert memo.cache_info().currsize == SCHEMA_MEMO_SIZE == 64
    assert memo.cache_info().misses == 1000


def test_repeated_declaration_is_parsed_once():
    raw = relation_bytes(b"Emp(name:string[14], dept:string[5], salary:int[6])")
    first = decode_encrypted_relation(raw).schema
    for _ in range(10):
        assert decode_encrypted_relation(raw).schema is first
    info = memo.cache_info()
    assert (info.misses, info.hits) == (1, 10)
    assert first == RelationSchema.parse(
        "Emp(name:string[14], dept:string[5], salary:int[6])"
    )


@pytest.mark.parametrize(
    "declaration",
    [b"Emp(name:string[3])\xff", b"Emp(name:blob[3])", b"garbage", b""],
    ids=["not utf-8", "unknown type", "no parentheses", "empty"],
)
def test_failures_are_not_cached(declaration):
    for _ in range(3):
        with pytest.raises(ProtocolError, match="malformed schema declaration"):
            decode_encrypted_relation(relation_bytes(declaration))
    assert memo.cache_info().currsize == 0


def test_declarations_that_differ_in_one_width_stay_apart():
    narrow = decode_encrypted_relation(relation_bytes(b"Emp(name:string[14])")).schema
    wide = decode_encrypted_relation(relation_bytes(b"Emp(name:string[15])")).schema
    assert narrow != wide
    assert narrow.attribute("name").max_length == 14
    assert wide.attribute("name").max_length == 15
    # Same schema, another spelling: equal, and parsed in its own right.
    spaced = decode_encrypted_relation(relation_bytes(b"Emp(name: string[14])")).schema
    assert spaced == narrow
    assert memo.cache_info().currsize == 3


def test_replies_and_files_at_rest_share_the_one_memo(tmp_path):
    schema = RelationSchema.parse("Emp(name:string[14], salary:int[6])")
    relation = EncryptedRelation(schema=schema, encrypted_tuples=())
    storage = FileStorageBackend(tmp_path)
    storage.save("Emp", relation)
    from_file = storage.load("Emp").schema
    reply = encode_evaluation_result(
        EvaluationResult(matching=relation, examined=0, token_evaluations=0)
    )
    from_reply = decode_evaluation_result(reply)[0].matching.schema
    assert from_reply is from_file
    assert storage.load("Emp").schema is from_file
    info = memo.cache_info()
    assert (info.misses, info.hits) == (1, 2)


class TestTheDeclarationIsEncodedOncePerSchema:
    """The other direction: ``_schema_declaration`` formats a schema once."""

    @pytest.fixture(autouse=True)
    def empty_encode_memo(self):
        protocol._schema_declaration.cache_clear()
        yield
        protocol._schema_declaration.cache_clear()

    def test_a_repeated_schema_is_formatted_once(self):
        schema = RelationSchema.parse("Emp(name:string[14], salary:int[6])")
        relation = EncryptedRelation(schema=schema, encrypted_tuples=())
        first = protocol.encode_encrypted_relation(relation)
        for _ in range(10):
            assert protocol.encode_encrypted_relation(relation) == first
        info = protocol._schema_declaration.cache_info()
        assert (info.misses, info.hits) == (1, 10)
        assert first == relation_bytes(b"Emp(name:string[14], salary:int[6])")

    def test_equal_schemas_share_an_entry_and_unequal_ones_do_not(self):
        one = RelationSchema.parse("Emp(name:string[14])")
        same = RelationSchema.parse("Emp(name: string[14])")
        wide = RelationSchema.parse("Emp(name:string[15])")
        renamed = RelationSchema.parse("Emq(name:string[14])")
        assert one == same and hash(one) == hash(same)
        declarations = [protocol._schema_declaration(s) for s in (one, same, wide, renamed)]
        assert declarations == [
            "Emp(name:string[14])",
            "Emp(name:string[14])",
            "Emp(name:string[15])",
            "Emq(name:string[14])",
        ]
        assert protocol._schema_declaration.cache_info().currsize == 3

    def test_many_schemas_cannot_grow_the_memo(self):
        for i in range(1000):
            schema = RelationSchema.parse(f"R{i}(a:string[{i % 40 + 1}], b:int[6])")
            encoded = protocol.encode_encrypted_relation(
                EncryptedRelation(schema=schema, encrypted_tuples=())
            )
            assert decode_encrypted_relation(encoded).schema == schema
        assert protocol._schema_declaration.cache_info().currsize == SCHEMA_MEMO_SIZE
