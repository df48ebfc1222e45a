"""The native decoders build their records untracked by the cyclic collector.

``decode_tuples`` (the tuple walk of every relation, result and insert body),
``decode_rows`` (the row decode of ``decrypt_tuples``) and ``open_result``
(a select's one-pass open of its answer) leave each ``EncryptedTuple`` and
its ``search_fields``, and each ``RelationTuple`` and its ``_values``, out of
the collector's lists: they hold only bytes, text,
integers and the schema, so no reference cycle passes through them and
reference counting alone frees them.  Here:

- with the kernel, every record those decoders hand out, and its tuple, is
  untracked (the collector is off while a test looks, so it cannot untrack a
  tuple of atoms itself and hide a decoder that stopped doing so);
- with the kernel off, the Python walks give equal records, tracked as any
  Python-built object is;
- decoding and decrypting a 1 000-row answer 500 times, and opening it in
  one pass 500 times, with the collector off, leaves the traced heap where
  it was: reference counting frees every record the collector no longer
  sees.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import native
from repro.core.dph import EvaluationResult
from repro.crypto.rng import DeterministicRng
from repro.outsourcing.protocol import (
    decode_encrypted_relation,
    decode_insert_tuples,
    decode_query_result,
    encode_encrypted_relation,
    encode_evaluation_result,
    encode_insert_tuples,
)
from repro.relational import Relation, RelationSchema
from repro.schemes.registry import create

needs_kernel = pytest.mark.skipif(
    native.kernel is None, reason="the native kernel did not build on this host"
)

SCHEMA = RelationSchema.parse("Emp(name:string[14], dept:string[5], salary:int[6])")
DEPARTMENTS = ("HR", "IT", "SALES", "OPS")


def answer(rows: int):
    """A scheme and an encrypted relation of ``rows`` common-case rows."""
    dph = create("swp", SCHEMA, bytes(range(32)), rng=DeterministicRng(7))
    relation = Relation.from_rows(
        SCHEMA,
        [(f"emp{i:06d}", DEPARTMENTS[i % 4], 1000 + i) for i in range(rows)],
    )
    return dph, relation, dph.encrypt_relation(relation)


DPH, RELATION, ENCRYPTED = answer(40)

#: Each kernel-walked decoder, over a body that carries ENCRYPTED's tuples.
DECODERS = {
    "relation": lambda: decode_encrypted_relation(
        encode_encrypted_relation(ENCRYPTED)).encrypted_tuples,
    "query_result": lambda: decode_query_result(encode_evaluation_result(
        EvaluationResult(ENCRYPTED, examined=40, token_evaluations=120))).matching.encrypted_tuples,
    "insert_tuples": lambda: decode_insert_tuples(
        encode_insert_tuples(b"postings", ENCRYPTED.encrypted_tuples))[1],
}


@pytest.fixture
def no_collector():
    """The collector off for one test, so only the decoders untrack."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def python_walks(monkeypatch):
    """The Python references alone, as on a host without a compiler."""
    monkeypatch.setattr(native, "kernel", None)


@needs_kernel
@pytest.mark.parametrize("decoder", sorted(DECODERS))
def test_kernel_ciphertexts_and_their_fields_are_untracked(decoder, no_collector):
    tuples = DECODERS[decoder]()
    assert tuples == ENCRYPTED.encrypted_tuples
    assert not any(map(gc.is_tracked, tuples))
    assert all(item.search_fields for item in tuples)
    assert not any(gc.is_tracked(item.search_fields) for item in tuples)


def _opened() -> list:
    """The rows of a query result opened in one pass (``open_result``)."""
    body = encode_evaluation_result(EvaluationResult(ENCRYPTED, examined=40))
    return DPH._open_result(body)


@needs_kernel
@pytest.mark.parametrize("rows", ["decrypt_tuples", "open_result"])
def test_kernel_rows_and_their_values_are_untracked(rows, no_collector):
    rows = _opened() if rows == "open_result" else DPH.decrypt_tuples(
        DECODERS["query_result"]())
    assert rows == list(RELATION)
    assert not any(map(gc.is_tracked, rows))
    assert not any(gc.is_tracked(row._values) for row in rows)


@pytest.mark.parametrize("decoder", sorted(DECODERS))
def test_python_walk_gives_equal_tracked_ciphertexts(decoder, python_walks):
    tuples = DECODERS[decoder]()
    assert tuples == ENCRYPTED.encrypted_tuples
    assert all(map(gc.is_tracked, tuples))


def test_python_decode_gives_equal_tracked_rows(python_walks):
    rows = DPH.decrypt_tuples(DECODERS["query_result"]())
    assert rows == list(RELATION)
    assert all(map(gc.is_tracked, rows))
    assert _opened() is None  # no one-pass open: the reference way runs


@needs_kernel
def test_one_pass_rows_equal_the_decrypted_ones():
    assert _opened() == DPH.decrypt_tuples(DECODERS["query_result"]())


@needs_kernel
def test_kernel_and_python_records_are_equal(monkeypatch):
    decoded = {name: decode() for name, decode in DECODERS.items()}
    rows = DPH.decrypt_tuples(decoded["relation"])
    monkeypatch.setattr(native, "kernel", None)
    assert decoded == {name: decode() for name, decode in DECODERS.items()}
    assert rows == DPH.decrypt_tuples(decoded["relation"])


@needs_kernel
@pytest.mark.parametrize("path", ["decrypt_tuples", "open_result"])
def test_reference_counting_frees_what_the_collector_does_not_see(path, no_collector):
    dph, relation, encrypted = answer(1000)
    body = encode_evaluation_result(EvaluationResult(encrypted))

    def select() -> None:
        if path == "open_result":
            rows = dph._open_result(body)
        else:
            rows = dph.decrypt_tuples(decode_query_result(body).matching.encrypted_tuples)
        assert len(rows) == 1000

    select()
    tracemalloc.start()
    try:
        select()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(500):
            select()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown
