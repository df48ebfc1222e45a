"""A malformed schema declaration is a ``ProtocolError``, never an escaped exception.

The relation decoder used to let ``RelationSchema.parse`` failures out as
``SchemaError`` (and non-UTF-8 bytes as ``UnicodeDecodeError``), which
``handle_message`` does not catch: a ``STORE_RELATION`` frame with a garbage
schema field crashed the dispatch instead of being answered with ``ERROR``.
The contract pinned here: schema bytes are untrusted like every other part
of a frame, on the provider and on the client alike.
"""

from __future__ import annotations

import pytest
from mutating_provider import TRANSPORTS, MutatingServer, swp_session
from provider_calls import drop_relation, register_evaluator

from repro.api import DatabaseError, EncryptedDatabase
from repro.crypto.keys import SecretKey
from repro.net import ThreadedTcpServer
from repro.outsourcing import MessageKind, MessageV2, OutsourcedDatabaseServer
from repro.outsourcing.protocol import (
    ProtocolError,
    decode_encrypted_relation,
    parse_message,
)
from repro.relational import RelationSchema
from repro.schemes.plaintext import PlaintextDph

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [("Montgomery", "HR", 7500), ("Smith", "IT", 5200)]
BAD_SCHEMAS = {
    "no parentheses": b"garbage",
    "no attributes": b"Emp()",
    "unknown type": b"Emp(name:blob[3])",
    "missing width": b"Emp(name:string)",
    "bad width": b"Emp(name:string[x])",
    "bad attribute name": b"Emp(na-me:string[3])",
    "duplicate attribute": b"Emp(a:int, a:int)",
    "not utf-8": b"Emp(name:string[3])\xff",
}


def relation_bytes(schema_field: bytes) -> bytes:
    """An otherwise well-formed empty relation under the given schema bytes."""
    return len(schema_field).to_bytes(4, "big") + schema_field + (0).to_bytes(4, "big")


def store_envelope(schema_field: bytes) -> bytes:
    return MessageV2(
        kind=MessageKind.STORE_RELATION,
        relation_name="Emp",
        body=relation_bytes(schema_field),
    ).to_bytes()


@pytest.mark.parametrize("what", sorted(BAD_SCHEMAS))
def test_decoder_raises_protocol_error(what):
    with pytest.raises(ProtocolError, match="malformed schema declaration"):
        decode_encrypted_relation(relation_bytes(BAD_SCHEMAS[what]))


def assert_error_then_still_serving(provider) -> None:
    evaluator = PlaintextDph(RelationSchema.parse(EMP_DECL), SecretKey.generate())
    register_evaluator(provider, "Emp", evaluator.server_evaluator())
    for what, schema_field in BAD_SCHEMAS.items():
        response = parse_message(provider.handle_message(store_envelope(schema_field)))
        assert response.kind is MessageKind.ERROR, what
        assert b"malformed schema declaration" in response.body, what
    response = parse_message(provider.handle_message(store_envelope(EMP_DECL.encode())))
    assert response.kind is MessageKind.ACK


def test_handle_message_answers_error():
    assert_error_then_still_serving(OutsourcedDatabaseServer())


@pytest.mark.parametrize("suffix", ["", "?async=1"], ids=["tcp", "tcp-async"])
def test_tcp_provider_answers_error_and_connection_stays_usable(secret_key, rng, suffix):
    with ThreadedTcpServer() as provider:
        url = f"tcp://127.0.0.1:{provider.port}{suffix}"
        with EncryptedDatabase.connect(url, secret_key, scheme="swp", rng=rng) as db:
            assert_error_then_still_serving(db.server)
            drop_relation(db.server, "Emp")
            db.create_table(EMP_DECL, rows=ROWS)
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 1
            assert provider.server.stats.as_dict()["connections_total"] == 1


def replace_schema(schema_field: bytes):
    """A result mutation: the same tuples under other schema bytes."""

    def mutate(body: bytes) -> bytes:
        relation_length = int.from_bytes(body[:4], "big")
        relation, statistics = body[4: 4 + relation_length], body[4 + relation_length:]
        declared = int.from_bytes(relation[:4], "big")
        relation = (
            len(schema_field).to_bytes(4, "big") + schema_field + relation[4 + declared:]
        )
        return len(relation).to_bytes(4, "big") + relation + statistics

    return mutate


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_client_rejects_a_result_with_hostile_schema_bytes(secret_key, rng, transport):
    provider = MutatingServer()
    with swp_session(provider, transport, secret_key, rng) as db:
        db.create_table(EMP_DECL, rows=ROWS)
        for schema_field in BAD_SCHEMAS.values():
            provider.mutate = replace_schema(schema_field)
            # A SchemaError (or UnicodeDecodeError) would escape this block.
            with pytest.raises((ProtocolError, DatabaseError)):
                db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        provider.mutate = None
        assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 1
