"""Tampered query results fail loudly through ``db.select``.

The result path keys the payload cipher and plans the tuple codec once per
session, but still MAC-verifies every returned payload before decrypting it
and validates every decoded value against its attribute.  A provider that
alters what it returns must therefore make the select *raise* -- a tampered
tuple silently dropped as a "false positive" would be a wrong answer.  Each
mutation below fails if either per-row check is skipped.  The module runs
once per payload opener (the ``match_kernel`` fixture): the native
``open_payloads`` batch and the per-row Python ``decrypt_bytes``.
"""

from __future__ import annotations

import pytest
from mutating_provider import TRANSPORTS, MutatingServer, rewriting_tuples, swp_session

from repro.api import EncryptedDatabase
from repro.core.construction import SearchableSelectDph
from repro.core.dph import EncryptedTuple
from repro.crypto.errors import DecryptionError, IntegrityError
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.relational import RelationSchema
from repro.relational.errors import EncodingError
from repro.relational.tuples import RelationTuple

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
WIDE_DECL = "Emp(name:string[30], dept:string[5], salary:int[6])"
ROWS = [
    ("Montgomery", "HR", 7500),
    ("Smith", "IT", 5200),
    ("Jones", "HR", 7500),
    ("Brown", "HR", 4100),
]
HR_SELECT = "SELECT * FROM Emp WHERE dept = 'HR'"

pytestmark = pytest.mark.usefixtures("match_kernel")


def with_payload(encrypted_tuple: EncryptedTuple, payload: bytes) -> EncryptedTuple:
    return EncryptedTuple(
        encrypted_tuple.tuple_id,
        payload,
        encrypted_tuple.search_fields,
        encrypted_tuple.metadata,
    )


def flip_one_payload_byte(position: int):
    def rewrite(tuples):
        payload = bytearray(tuples[1].payload)
        payload[position] ^= 0x01
        tuples[1] = with_payload(tuples[1], bytes(payload))
        return tuples

    return rewrite


def swap_two_payloads(tuples):
    """Both payloads are authentic -- for the *other* tuple id."""
    first, second = tuples[0], tuples[1]
    tuples[0] = with_payload(first, second.payload)
    tuples[1] = with_payload(second, first.payload)
    return tuples


def truncate_payload(length: int):
    def rewrite(tuples):
        tuples[-1] = with_payload(tuples[-1], tuples[-1].payload[:length])
        return tuples

    return rewrite


def substitute_over_wide_tuple(table_key: SecretKey):
    """An authentic ciphertext of a tuple the table's schema does not admit.

    Only a key holder can make one (here: the same table key over a schema
    with a wider ``name``), so the MAC verifies and the schema validation of
    the decoded values is the check that has to catch it.
    """
    wide_schema = RelationSchema.parse(WIDE_DECL)
    wide = SearchableSelectDph(wide_schema, table_key, rng=DeterministicRng(5))
    forged = wide.encrypt_tuple(
        RelationTuple(wide_schema, {"name": "x" * 20, "dept": "HR", "salary": 1})
    )

    def rewrite(tuples):
        tuples[0] = forged
        return tuples

    return rewrite


def tamper_matrix(table_key: SecretKey):
    """``(what, rewrite, expected exception)`` rows."""
    return [
        ("flipped nonce byte", flip_one_payload_byte(0), IntegrityError),
        ("flipped tag byte", flip_one_payload_byte(20), IntegrityError),
        ("flipped body byte", flip_one_payload_byte(-1), IntegrityError),
        ("payloads swapped", swap_two_payloads, IntegrityError),
        ("payload of 47 bytes", truncate_payload(47), DecryptionError),
        ("empty payload", truncate_payload(0), DecryptionError),
        ("body cut short", truncate_payload(50), IntegrityError),
        ("value wider than the schema", substitute_over_wide_tuple(table_key), EncodingError),
    ]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_every_tampering_raises_and_the_session_recovers(secret_key, rng, transport):
    provider = MutatingServer()
    with swp_session(provider, transport, secret_key, rng) as db:
        db.create_table(EMP_DECL, rows=ROWS)
        honest = db.select(HR_SELECT)
        assert honest.report.kept == 3 and honest.report.false_positives == 0
        table_key = SecretKey(secret_key.subkey("table/Emp"))
        for what, rewrite, expected in tamper_matrix(table_key):
            provider.mutate = rewriting_tuples(rewrite)
            with pytest.raises(expected):
                db.select(HR_SELECT)
                pytest.fail(f"{what}: the tampered result was accepted")
            with pytest.raises(expected):  # the mutation paths share the decrypt
                db.delete(HR_SELECT)
            provider.mutate = None
            assert db.select(HR_SELECT).relation == honest.relation, what
        assert db.count("Emp") == len(ROWS)  # no tampered delete went through


def test_the_forged_tuple_really_is_authentic(secret_key, rng):
    """Guard for the width row above: its MAC must verify, or it tests nothing."""
    db = EncryptedDatabase.open(secret_key, scheme="swp", rng=rng)
    db.create_table(EMP_DECL, rows=ROWS)
    table_key = SecretKey(secret_key.subkey("table/Emp"))
    forged = substitute_over_wide_tuple(table_key)([None])[0]
    with pytest.raises(EncodingError, match="violates its schema"):
        db.table("Emp").scheme.decrypt_tuple(forged)
    wide = SearchableSelectDph(RelationSchema.parse(WIDE_DECL), table_key)
    assert wide.decrypt_tuple(forged).value("name") == "x" * 20
