"""A select's one-pass open of its answer against the reference path.

``decrypt_result`` of a ``QUERY_RESULT`` body opens it where it lies with
the native ``open_result`` -- each row's tag checked, the row decrypted and
decoded, no ciphertext tuple built -- and leaves any answer it does not take
whole to the reference path: ``decode_query_result``, then
``decrypt_result`` of the decoded evaluation (``decrypt_tuples`` and the
filter).  For drawn answers -- common-case rows beside irregular ones (a
non-ASCII value, ``#`` in a string, a 19-digit integer, an over-width value),
a forged tag at some row, a damaged frame -- both must give the same rows in
the same order and the same ``returned`` / ``false_positives`` / ``kept``, or
raise the same exception with the same message.  A session's
``outcome.evaluation`` equals ``decode_evaluation_result`` of the bytes it
was answered with.  The module runs once per kernel path (``match_kernel``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.api import EncryptedDatabase
from repro.core.dph import EncryptedRelation, EncryptedTuple, EvaluationResult
from repro.crypto.rng import DeterministicRng
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import (
    decode_evaluation_result,
    decode_query_result,
    encode_evaluation_result,
    parse_message,
)
from repro.relational import RelationSchema, Selection
from repro.schemes.registry import create

pytestmark = pytest.mark.usefixtures("match_kernel")

SCHEMA = RelationSchema.parse("Emp(name:string[6], dept:string[5], salary:int[20])")
DEPARTMENTS = ("HR", "IT", "OPS")


def _value(text: bytes) -> bytes:
    return len(text).to_bytes(2, "big") + text


def _encoded(name: bytes, dept: bytes, salary: int) -> bytes:
    return _value(name) + _value(dept) + _value(str(salary).encode())


#: One row's codec bytes: the common case, or a row only the reference decides.
COMMON = st.builds(
    _encoded,
    st.text("abcdefgh", max_size=6).map(str.encode),
    st.sampled_from(DEPARTMENTS).map(str.encode),
    st.integers(-(10**18) + 1, 10**18 - 1),
)
IRREGULAR = st.one_of(
    st.just(_encoded("Zoë".encode(), b"HR", 1)),  # not ASCII
    st.just(_encoded(b"a#b", b"IT", 2)),  # the padding symbol
    st.integers(10**18, 10**19 - 1).map(lambda big: _encoded(b"big", b"OPS", big)),
    st.just(_encoded(b"toolong", b"HR", 3)),  # over its width
    st.just(_encoded(b"x", b"HR", 4) + b"\x00"),  # a byte after the last value
)
#: Rows, one in eight irregular (so most answers are the kernel's whole), and
#: the row whose tag is forged, if any.
ROWS = st.lists(
    st.tuples(st.integers(0, 7), COMMON, IRREGULAR).map(lambda t: t[2] if t[0] == 0 else t[1]),
    max_size=12,
).flatmap(lambda rows: st.tuples(
    st.just(rows), st.one_of(st.none(), st.integers(0, max(0, len(rows) - 1)))))


def _answer(dph, rows: list[bytes], fields, forged: int | None, examined: int) -> bytes:
    """A ``QUERY_RESULT`` body whose tuples seal ``rows``; the tag of row
    ``forged`` is changed in one byte."""
    rng = DeterministicRng(len(rows))
    tuples = []
    for index, (row, (search, metadata)) in enumerate(zip(rows, fields)):
        tuple_id = rng.bytes(16)
        payload = bytearray(dph._payload_cipher.encrypt_bytes(row, tuple_id))
        if index == forged:
            payload[16 + index % 32] ^= 1
        tuples.append(EncryptedTuple(tuple_id, bytes(payload), tuple(search), metadata))
    relation = EncryptedRelation(SCHEMA, tuple(tuples))
    return encode_evaluation_result(EvaluationResult(relation, examined, 3 * examined))


def _outcome(run) -> tuple:
    try:
        report = run()
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return type(exc), str(exc)
    return list(report.relation.tuples), report.returned, report.false_positives, report.kept


def _reference(dph, body: bytes, query):
    return dph.decrypt_result(decode_query_result(body), query)


@given(
    rows=ROWS,
    fields=st.lists(
        st.tuples(st.lists(st.binary(max_size=8), max_size=3), st.binary(max_size=4)),
        min_size=12, max_size=12,
    ),
    cut=st.one_of(st.none(), st.none(), st.none(), st.integers(1, 40)),
    query=st.one_of(st.none(), st.sampled_from(DEPARTMENTS).map(
        lambda dept: Selection.equals("dept", dept))),
)
@settings(max_examples=300, deadline=None)
def test_the_one_pass_open_equals_the_reference(rows, fields, cut, query):
    rows, forged = rows
    dph = create("swp", SCHEMA, bytes(range(32)), rng=DeterministicRng(5))
    body = _answer(dph, rows, fields, forged, len(rows))
    if cut is not None:
        body = body[:-cut]
    opened = _outcome(lambda: dph.decrypt_result(body, query))
    assert opened == _outcome(lambda: _reference(dph, body, query))
    if native.kernel is not None and cut is forged is None and all(map(_is_common, rows)):
        assert dph._open_result(body) is not None  # the kernel took the answer


def _is_common(row: bytes) -> bool:
    """What ``open_result`` decodes: ASCII within width, no ``#``, an integer
    of at most 18 digits, nothing after the last value."""
    values, offset = [], 0
    while offset + 2 <= len(row) and len(values) < 3:
        end = offset + 2 + int.from_bytes(row[offset:offset + 2], "big")
        values.append(row[offset + 2:end])
        offset = end
    if offset != len(row) or len(values) != 3 or not all(v.isascii() for v in values):
        return False
    name, dept, salary = values
    digits = salary[1:] if salary[:1] == b"-" else salary
    return (
        len(name) <= 6 and len(dept) <= 5 and b"#" not in name + dept
        and 1 <= len(digits) <= 18 and digits.isdigit()
    )


@pytest.mark.parametrize("forged", [0, 3, 7])
def test_a_forged_tag_raises_what_the_reference_raises(forged):
    dph = create("swp", SCHEMA, bytes(range(32)), rng=DeterministicRng(6))
    rows = [_encoded(b"n%d" % i, b"HR", i) for i in range(8)]
    body = _answer(dph, rows, [((), b"")] * 8, forged, 8)
    with pytest.raises(Exception) as opened:
        dph.decrypt_result(body)
    with pytest.raises(Exception) as reference:
        _reference(dph, body, None)
    assert (type(opened.value), str(opened.value)) == (
        type(reference.value), str(reference.value))
    assert dph._open_result(body) is None


class Recording:
    """A provider that keeps every reply it sends."""

    def __init__(self) -> None:
        self.provider = OutsourcedDatabaseServer()
        self.replies: list[bytes] = []

    def handle_message(self, raw: bytes) -> bytes:
        reply = self.provider.handle_message(raw)
        self.replies.append(reply)
        return reply


@pytest.mark.parametrize("index", [False, True])
def test_a_selects_evaluation_is_the_decoded_reply(index, secret_key):
    provider = Recording()
    db = EncryptedDatabase(secret_key, provider, "swp", index=index)
    db.create_table(
        "Emp(name:string[6], dept:string[5], salary:int[20])",
        rows=[(f"e{i}", DEPARTMENTS[i % 3], 10**17 * i) for i in range(30)],
    )
    outcome = db.select("SELECT * FROM Emp WHERE dept = 'IT'")
    body = parse_message(provider.replies[-1]).body
    evaluation, _ = decode_evaluation_result(body)
    assert outcome.evaluation == evaluation
    assert list(outcome.relation.tuples) == list(
        _reference(db.table("Emp").scheme, body, Selection.equals("dept", "IT")).relation.tuples
    )
    assert len(outcome.relation) == 10
