"""A malformed SWP trapdoor is answered with ``ERROR``, never an escaped exception.

Before the match kernel compiled trapdoors up front, a check key shorter than
16 bytes or an ``X`` of the wrong length surfaced per tuple as a
``CryptoError`` that ``handle_message`` does not catch -- and was silently
accepted when the relation was empty.  The contract pinned here: validation
happens once per query, raises ``DphError``, does not depend on what the
relation holds, and leaves the connection usable.
"""

from __future__ import annotations

import pytest
from provider_calls import deploy, server_counts, store_relation

from repro.api import EncryptedDatabase
from repro.core.construction import SearchableSelectDph
from repro.core.dph import DphError, EncryptedQuery, EncryptedRelation
from repro.core.variable_length import VariableWidthSelectDph
from repro.net import RemoteServerProxy, ThreadedTcpServer
from repro.outsourcing import MessageKind, MessageV2, OutsourcedDatabaseServer
from repro.outsourcing.protocol import (
    decode_evaluation_result,
    encode_encrypted_query,
    parse_message,
)
from repro.relational import Relation
from repro.relational.query import Selection
from repro.relational.schema import RelationSchema
from repro.searchable.tokens import SwpToken

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
EMPTY_DECL = "Void(name:string[14], dept:string[5], salary:int[6])"
ROWS = [("Montgomery", "HR", 7500), ("Smith", "IT", 5200), ("Jones", "HR", 7500)]
SCHEMES = ("swp", "swp-variable")


def malformations(scheme: str, good: bytes) -> dict[str, bytes]:
    """Broken variants of one well-formed serialized query token."""
    prefix = good[:2] if scheme == "swp-variable" else b""  # attribute position
    token = SwpToken.from_bytes(good[len(prefix):])
    word = token.pre_encrypted_word

    def rebuilt(pre_encrypted_word: bytes, check_key: bytes) -> bytes:
        return prefix + SwpToken(pre_encrypted_word, check_key).to_bytes()

    return {
        "short check key": rebuilt(word, token.check_key[:15]),
        "empty check key": rebuilt(word, b""),
        "short X": rebuilt(word[:-1], token.check_key),
        "long X": rebuilt(word + b"\x00", token.check_key),
        "truncated": good[: len(prefix) + 1],
    }


def make_dph(scheme: str, schema, secret_key, rng):
    if scheme == "swp-variable":
        return VariableWidthSelectDph(schema, secret_key, rng=rng)
    return SearchableSelectDph(schema, secret_key, backend="swp", rng=rng)


def query_envelope(relation: str, scheme_name: str, *tokens: bytes) -> bytes:
    body = encode_encrypted_query(EncryptedQuery(scheme_name=scheme_name, tokens=tokens))
    return MessageV2(kind=MessageKind.QUERY, relation_name=relation, body=body).to_bytes()


def assert_error_then_still_serving(provider, good: EncryptedQuery, scheme: str) -> None:
    """Every malformation, alone and behind a good token, on ``Emp`` and ``Void``."""
    for what, bad_token in malformations(scheme, good.tokens[0]).items():
        for relation in ("Emp", "Void"):  # non-empty and empty alike
            for tokens in ((bad_token,), (good.tokens[0], bad_token)):
                response = parse_message(
                    provider.handle_message(
                        query_envelope(relation, good.scheme_name, *tokens)
                    )
                )
                assert response.kind is MessageKind.ERROR, (what, relation)
                assert b"malformed" in response.body
        response = parse_message(
            provider.handle_message(query_envelope("Emp", good.scheme_name, *good.tokens))
        )
        assert response.kind is MessageKind.QUERY_RESULT, what
        result, _ = decode_evaluation_result(response.body)
        assert len(result.matching) == 2 and result.examined == len(ROWS)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_handle_message_answers_error(employee_schema, secret_key, rng, scheme):
    dph = make_dph(scheme, employee_schema, secret_key, rng)
    server = OutsourcedDatabaseServer()
    relation = Relation.from_rows(employee_schema, ROWS)
    store_relation(server, "Emp", dph.encrypt_relation(relation), dph.server_evaluator())
    deploy(server, "Void", RelationSchema.parse(EMPTY_DECL), dph.server_evaluator())
    good = dph.encrypt_query(Selection.equals("dept", "HR"))
    assert_error_then_still_serving(server, good, scheme)


@pytest.mark.parametrize("suffix", ["", "?async=1"], ids=["tcp", "async-key"])
def test_tcp_provider_answers_error_and_connection_stays_usable(secret_key, rng, suffix):
    with ThreadedTcpServer() as provider:
        url = f"tcp://127.0.0.1:{provider.port}{suffix}"
        with EncryptedDatabase.connect(url, secret_key, scheme="swp", rng=rng) as db:
            assert type(db.server) is RemoteServerProxy
            db.create_table(EMP_DECL, rows=ROWS)
            db.create_table(EMPTY_DECL)
            good = db.table("Emp").scheme.encrypt_query(Selection.equals("dept", "HR"))
            assert_error_then_still_serving(db.server, good, "swp")
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 2
            assert server_counts(provider.server)["connections_total"] == 1


@pytest.mark.parametrize("scheme", SCHEMES)
def test_evaluator_rejects_malformed_trapdoor_whatever_the_relation_holds(
    employee_schema, secret_key, rng, scheme
):
    dph = make_dph(scheme, employee_schema, secret_key, rng)
    evaluator = dph.server_evaluator()
    good = dph.encrypt_query(Selection.equals("dept", "HR"))
    relations = (
        dph.encrypt_relation(Relation.from_rows(employee_schema, ROWS)),
        EncryptedRelation(schema=employee_schema, encrypted_tuples=()),
    )
    for bad_token in malformations(scheme, good.tokens[0]).values():
        bad = EncryptedQuery(scheme_name=good.scheme_name, tokens=(bad_token,))
        for encrypted_relation in relations:
            with pytest.raises(DphError, match="malformed"):
                evaluator.evaluate(bad, encrypted_relation)
