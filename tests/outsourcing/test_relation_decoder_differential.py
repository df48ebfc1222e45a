"""The one-walk relation decoder against a transcription of the one it replaced.

``reference_decode_relation`` below is the decoder of the parent commit
(360279c) copied literally: slice every tuple body out of the frame, parse
the copy field by field.  The rewritten decoder walks the frame once by
offset; it must accept exactly the frames the reference accepts, with equal
values, and reject every other frame with ``ProtocolError`` -- never an
``IndexError``, ``struct.error``, ``SchemaError`` or ``MemoryError``.

The last section pins the ``framed`` memo a decoded tuple carries -- its
body length and body, as a relation frame carries it: re-encoding what any
of the four result-path decoders accepts returns the bytes the parent
returned, the memo equals a fresh encode wherever it is set (the relation
walk, an ``INSERT_TUPLES`` body, the file store), a relation mixing memos and
fresh tuples encodes as the per-tuple encoder does, and the memo is
invisible to ``==``, ``hash``, ``repr`` and ``dataclasses.replace``.

The module runs once per tuple walk (the ``match_kernel`` fixture): the
native ``decode_tuples``, which walks a relation where it lies in the frame
and hands any irregular one back to the Python walk, and the Python walk
alone.  Hostile frames -- truncated at every offset, a count or length near
2**32, bytes-like copies -- must get the same verdict and the same message
on both.
"""

from __future__ import annotations

import dataclasses
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.dph import EncryptedRelation, EncryptedTuple, EvaluationResult
from repro.crypto.rng import DeterministicRng
from repro.outsourcing import (
    FileStorageBackend,
    InMemoryStorageBackend,
    MessageKind,
    MessageV2,
    OutsourcedDatabaseServer,
)
from repro.outsourcing.protocol import (
    ProtocolError,
    decode_encrypted_relation,
    decode_encrypted_tuple,
    decode_evaluation_result,
    decode_insert_tuples,
    decode_result_batch,
    encode_encrypted_query,
    encode_encrypted_relation,
    encode_encrypted_tuple,
    encode_evaluation_result,
    encode_insert_tuples,
    encode_result_batch,
    parse_message,
)
from repro.relational import Relation, RelationSchema, RelationTuple, Selection
from repro.relational.errors import SchemaError
from repro.schemes.registry import create

SCHEMA = RelationSchema.parse("Emp(name:string[14], dept:string[5], salary:int[6])")


def prefixed(body: bytes) -> bytes:
    """``body`` after its 4-byte big-endian length: a tuple as a relation frame carries it."""
    return len(body).to_bytes(4, "big") + body

pytestmark = pytest.mark.usefixtures("match_kernel")


# --------------------------------------------------------------------------- #
# The parent commit's decoder, verbatim
# --------------------------------------------------------------------------- #

def _decode_bytes(raw, offset):
    if offset + 4 > len(raw):
        raise ProtocolError("truncated length prefix")
    length = int.from_bytes(raw[offset: offset + 4], "big")
    offset += 4
    if offset + length > len(raw):
        raise ProtocolError("truncated byte string")
    return raw[offset: offset + length], offset + length


def _decode_sequence(raw, offset):
    if offset + 4 > len(raw):
        raise ProtocolError("truncated sequence count")
    count = int.from_bytes(raw[offset: offset + 4], "big")
    offset += 4
    items = []
    for _ in range(count):
        item, offset = _decode_bytes(raw, offset)
        items.append(item)
    return items, offset


def reference_decode_tuple(raw, offset=0):
    tuple_id, offset = _decode_bytes(raw, offset)
    payload, offset = _decode_bytes(raw, offset)
    fields, offset = _decode_sequence(raw, offset)
    metadata, offset = _decode_bytes(raw, offset)
    return (
        EncryptedTuple(
            tuple_id=tuple_id,
            payload=payload,
            search_fields=tuple(fields),
            metadata=metadata,
        ),
        offset,
    )


def reference_decode_relation(raw):
    schema_bytes, offset = _decode_bytes(raw, 0)
    schema = RelationSchema.parse(schema_bytes.decode("utf-8"))
    bodies, offset = _decode_sequence(raw, offset)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after encrypted relation")
    tuples = []
    for body in bodies:
        encrypted_tuple, consumed = reference_decode_tuple(body, 0)
        if consumed != len(body):
            raise ProtocolError("trailing bytes after encrypted tuple")
        tuples.append(encrypted_tuple)
    return EncryptedRelation(schema=schema, encrypted_tuples=tuple(tuples))


#: What "the reference rejects this frame" looks like: its own error, or the
#: two exceptions the parent let escape from the schema field.
REFERENCE_REJECTS = (ProtocolError, SchemaError, UnicodeDecodeError)


def assert_same_verdict(frame: bytes) -> None:
    try:
        expected = reference_decode_relation(frame)
    except REFERENCE_REJECTS:
        with pytest.raises(ProtocolError):
            decode_encrypted_relation(frame)
    else:
        assert decode_encrypted_relation(frame) == expected


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

short_bytes = st.binary(max_size=40)
encrypted_tuples = st.builds(
    EncryptedTuple,
    tuple_id=short_bytes,
    payload=st.binary(max_size=90),
    search_fields=st.lists(short_bytes, max_size=4).map(tuple),
    metadata=short_bytes,
)
relations = st.lists(encrypted_tuples, max_size=6).map(
    lambda tuples: EncryptedRelation(schema=SCHEMA, encrypted_tuples=tuple(tuples))
)


@given(relation=relations)
@settings(max_examples=150, deadline=None)
def test_valid_relations_decode_equal(relation):
    frame = encode_encrypted_relation(relation)
    assert decode_encrypted_relation(frame) == relation == reference_decode_relation(frame)


@given(encrypted_tuple=encrypted_tuples, prefix=short_bytes, suffix=short_bytes)
@settings(max_examples=150, deadline=None)
def test_tuple_decoder_reports_the_same_next_offset(encrypted_tuple, prefix, suffix):
    frame = prefix + encode_encrypted_tuple(encrypted_tuple) + suffix
    decoded, consumed = decode_encrypted_tuple(frame, len(prefix))
    assert (decoded, consumed) == reference_decode_tuple(frame, len(prefix))
    assert decoded == encrypted_tuple and consumed == len(frame) - len(suffix)


@given(encrypted_tuple=encrypted_tuples, junk=st.binary(max_size=60), data=st.data())
@settings(max_examples=300, deadline=None)
def test_tuple_decoder_on_damaged_bytes(encrypted_tuple, junk, data):
    """One tuple's body: truncated, overwritten, or not a tuple at all."""
    frame = bytearray(encode_encrypted_tuple(encrypted_tuple))
    position = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    overwritten = bytes(frame[:position]) + junk[:4] + bytes(frame[position + len(junk[:4]):])
    for damaged in (bytes(frame[:position]), overwritten, junk):
        try:
            expected = reference_decode_tuple(damaged)
        except ProtocolError:
            with pytest.raises(ProtocolError):
                decode_encrypted_tuple(damaged)
        else:
            assert decode_encrypted_tuple(damaged) == expected


@given(relation=relations, data=st.data())
@settings(max_examples=300, deadline=None)
def test_truncated_frames(relation, data):
    frame = encode_encrypted_relation(relation)
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    assert_same_verdict(frame[:cut])


@given(relation=relations, data=st.data())
@settings(max_examples=400, deadline=None)
def test_bit_flipped_frames(relation, data):
    frame = bytearray(encode_encrypted_relation(relation))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        position = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        frame[position] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
    assert_same_verdict(bytes(frame))


@given(relation=relations, data=st.data())
@settings(max_examples=400, deadline=None)
def test_inflated_and_deflated_length_fields(relation, data):
    """Overwrite four bytes anywhere (length fields included) with another count."""
    frame = bytearray(encode_encrypted_relation(relation))
    position = data.draw(st.integers(min_value=0, max_value=len(frame) - 4))
    current = int.from_bytes(frame[position: position + 4], "big")
    value = data.draw(
        st.sampled_from([0, 1, current + 1, current + 4, max(current - 1, 0), len(frame),
                         2**31, 2**32 - 1])
    )
    frame[position: position + 4] = (value % 2**32).to_bytes(4, "big")
    assert_same_verdict(bytes(frame))


@given(junk=st.binary(max_size=200))
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes(junk):
    assert_same_verdict(junk)


def frame_with_counts(tuple_count: int, field_count: int) -> bytes:
    """A short frame whose sequence counts promise far more than it holds."""
    declaration = b"Emp(name:string[14], dept:string[5], salary:int[6])"
    one_tuple = (
        (4).to_bytes(4, "big") + b"\x01\x02\x03\x04"      # tuple id
        + (0).to_bytes(4, "big")                           # payload
        + field_count.to_bytes(4, "big")                   # search-field count
    )
    return (
        len(declaration).to_bytes(4, "big") + declaration
        + tuple_count.to_bytes(4, "big")
        + len(one_tuple).to_bytes(4, "big") + one_tuple
    )


@pytest.mark.parametrize(
    "frame",
    [frame_with_counts(2**32 - 1, 0), frame_with_counts(1, 2**32 - 1)],
    ids=["tuple count", "field count"],
)
def test_a_huge_count_on_a_short_frame_fails_without_allocating(frame):
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError):
            decode_encrypted_relation(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert_same_verdict(frame)


def test_a_field_may_not_reach_past_its_tuple_body():
    """In-place parsing must keep the bound the per-tuple slice used to give."""
    first = EncryptedTuple(b"id-1", b"payload-1", (b"f1",), b"")
    second = EncryptedTuple(b"id-2", b"payload-2", (b"f2",), b"meta")
    frame = bytearray(
        encode_encrypted_relation(EncryptedRelation(SCHEMA, (first, second)))
    )
    # Grow the first tuple's metadata length so it would swallow bytes of the
    # second tuple while the outer body length still says where it ends.
    body_start = frame.index(b"id-1") - 4
    metadata_prefix = body_start + len(encode_encrypted_tuple(first)) - 4
    frame[metadata_prefix: metadata_prefix + 4] = (8).to_bytes(4, "big")
    with pytest.raises(ProtocolError):
        decode_encrypted_relation(bytes(frame))
    assert_same_verdict(bytes(frame))


# --------------------------------------------------------------------------- #
# Hostile frames: both walks, the same verdict and message
# --------------------------------------------------------------------------- #

SAMPLE = EncryptedRelation(SCHEMA, (
    EncryptedTuple(b"id-1", b"payload-1", (b"f1", b""), b""),
    EncryptedTuple(b"", b"", (), b"meta"),
    EncryptedTuple(b"id-3", b"p" * 40, (b"field",) * 3, b"m"),
))
SAMPLE_FRAME = encode_encrypted_relation(SAMPLE)


def python_walk_outcome(decode, raw):
    """What ``decode(raw)`` gives with the native kernel unloaded."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "kernel", None)
        return outcome(decode, raw)


def outcome(decode, raw):
    try:
        return "decoded", decode(raw)
    except ProtocolError as exc:
        return "error", str(exc)


def assert_same_on_both_walks(decode, raw) -> None:
    assert outcome(decode, raw) == python_walk_outcome(decode, raw)


def test_truncation_at_every_offset():
    for cut in range(len(SAMPLE_FRAME)):
        assert_same_on_both_walks(decode_encrypted_relation, SAMPLE_FRAME[:cut])
        assert_same_verdict(SAMPLE_FRAME[:cut])


def test_truncation_at_every_offset_inside_an_evaluation_result():
    """The relation is parsed in place: its end is the prefix's, not the frame's."""
    statistics = (7).to_bytes(8, "big") + (9).to_bytes(8, "big")
    for cut in range(len(SAMPLE_FRAME)):
        damaged = cut.to_bytes(4, "big") + SAMPLE_FRAME[:cut] + statistics
        assert outcome(decode_evaluation_result, damaged)[0] == "error"
        assert_same_on_both_walks(decode_evaluation_result, damaged)


_TUPLE_COUNT = 4 + int.from_bytes(SAMPLE_FRAME[:4], "big")
#: Offsets of SAMPLE_FRAME's count and length prefixes; the first tuple's
#: field count follows its id ("id-1") and payload ("payload-1").
PREFIXES = {
    "schema length": 0,
    "tuple count": _TUPLE_COUNT,
    "first tuple body length": _TUPLE_COUNT + 4,
    "first tuple id length": _TUPLE_COUNT + 8,
    "first field count": _TUPLE_COUNT + 8 + (4 + 4) + (4 + 9),
}


@pytest.mark.parametrize("value", [2**32 - 1, 2**32 - 20, 2**31, 2**31 - 1, 2**24])
@pytest.mark.parametrize("prefix", PREFIXES)
def test_a_prefix_near_two_to_the_32_is_rejected_without_allocating(prefix, value):
    frame = bytearray(SAMPLE_FRAME)
    position = PREFIXES[prefix]
    frame[position:position + 4] = value.to_bytes(4, "big")
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError):
            decode_encrypted_relation(bytes(frame))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert_same_on_both_walks(decode_encrypted_relation, bytes(frame))


@pytest.mark.parametrize("container", [bytearray, memoryview], ids=lambda c: c.__name__)
def test_bytes_like_frames_decode_as_bytes_do(container):
    for raw in (SAMPLE_FRAME, SAMPLE_FRAME[:-1], SAMPLE_FRAME + b"!"):
        verdict = outcome(decode_encrypted_relation, container(raw))
        assert verdict[0] == outcome(decode_encrypted_relation, raw)[0]
        assert verdict == python_walk_outcome(decode_encrypted_relation, container(raw))
        if verdict[0] == "decoded":
            assert verdict[1] == SAMPLE


@given(relation=relations, prefix=short_bytes, suffix=short_bytes)
@settings(max_examples=150, deadline=None)
def test_the_kernel_walks_every_regular_frame_in_place(match_kernel, relation, prefix, suffix):
    """``decode_tuples`` declines nothing regular, so the walks above are its own.

    It reads ``raw[start:end]`` where it lies, sets the framed memo, and
    returns ``None`` for anything else: here, the same span a byte short or
    a byte long.  Bounds outside ``raw`` are a caller's bug.
    """
    if match_kernel == "python":
        pytest.skip("the kernel on its own")
    frame = encode_encrypted_relation(relation)
    start = len(prefix) + 4 + int.from_bytes(frame[:4], "big")
    raw = prefix + frame + suffix
    end = len(prefix) + len(frame)
    walked = native.kernel.decode_tuples(raw, start, end, EncryptedTuple)
    assert walked == relation.encrypted_tuples
    assert [t.framed for t in walked] == [prefixed(encode_encrypted_tuple(t)) for t in relation]
    assert all(type(t) is EncryptedTuple for t in walked)
    assert native.kernel.decode_tuples(raw, start, end - 1, EncryptedTuple) is None
    if suffix:
        assert native.kernel.decode_tuples(raw, start, end + 1, EncryptedTuple) is None
    for bounds in ((-1, end), (start, len(raw) + 1), (end, start - 1)):
        with pytest.raises(ValueError):
            native.kernel.decode_tuples(raw, *bounds, EncryptedTuple)


# --------------------------------------------------------------------------- #
# The framed memo: a decoded tuple re-emits the bytes it arrived in
# --------------------------------------------------------------------------- #
#
# A decoded ``EncryptedTuple`` keeps the span it was parsed from, length
# prefix included, and the encoders return it instead of encoding the tuple
# again.
# Re-encoding whatever a decoder accepts must give exactly what the parent
# gave (decode with the reference, encode afresh); for every frame an encoder
# wrote, that is the input itself.  Only a schema declaration has more than
# one accepted spelling (``Int[6]``, ``[06]``): it is parsed into a schema
# and spelled canonically again, with or without the memo.

def reference_decode_evaluation_result(raw, offset=0):
    relation_bytes, offset = _decode_bytes(raw, offset)
    if offset + 16 > len(raw):
        raise ProtocolError("truncated evaluation statistics")
    examined = int.from_bytes(raw[offset: offset + 8], "big")
    token_evaluations = int.from_bytes(raw[offset + 8: offset + 16], "big")
    return (
        EvaluationResult(
            matching=reference_decode_relation(relation_bytes),
            examined=examined,
            token_evaluations=token_evaluations,
        ),
        offset + 16,
    )


def reference_decode_result_batch(raw):
    bodies, offset = _decode_sequence(raw, 0)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after result batch")
    results = []
    for body in bodies:
        result, consumed = reference_decode_evaluation_result(body, 0)
        if consumed != len(body):
            raise ProtocolError("trailing bytes after evaluation result")
        results.append(result)
    return tuple(results)


def whole_frame(decode):
    """A decoder of a whole frame, as one returning what it consumed."""
    return lambda raw: (decode(raw), len(raw))


#: decoder -> (decode, reference decode, encode); both decoders return the
#: decoded object and the number of bytes it took.
CODECS = {
    "tuple": (decode_encrypted_tuple, reference_decode_tuple, encode_encrypted_tuple),
    "relation": (
        whole_frame(decode_encrypted_relation),
        whole_frame(reference_decode_relation),
        encode_encrypted_relation,
    ),
    "evaluation result": (
        decode_evaluation_result,
        reference_decode_evaluation_result,
        encode_evaluation_result,
    ),
    "result batch": (
        whole_frame(decode_result_batch),
        whole_frame(reference_decode_result_batch),
        encode_result_batch,
    ),
}

counts = st.integers(min_value=0, max_value=2**64 - 1)
evaluation_results = st.builds(
    EvaluationResult, matching=relations, examined=counts, token_evaluations=counts
)
#: decoder -> the objects it decodes.
OBJECTS = {
    "tuple": encrypted_tuples,
    "relation": relations,
    "evaluation result": evaluation_results,
    "result batch": st.lists(evaluation_results, max_size=3),
}


def assert_reemitted_as_the_parent_did(codec: str, raw: bytes) -> bool:
    """Re-encode what ``codec`` decodes from ``raw``; False if it rejects it."""
    decode, reference_decode, encode = CODECS[codec]
    try:
        decoded, consumed = decode(raw)
    except ProtocolError:
        return False
    expected, expected_consumed = reference_decode(raw)
    assert consumed == expected_consumed
    assert encode(decoded) == encode(expected)
    return True


@pytest.mark.parametrize("codec", CODECS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_decoded_frame_reencodes_to_its_input(codec, data):
    frame = CODECS[codec][2](data.draw(OBJECTS[codec]))
    decoded, consumed = CODECS[codec][0](frame)
    assert consumed == len(frame)
    assert CODECS[codec][2](decoded) == frame
    assert assert_reemitted_as_the_parent_did(codec, frame)


@pytest.mark.parametrize("codec", CODECS)
@given(data=st.data(), junk=st.binary(max_size=8))
@settings(max_examples=300, deadline=None)
def test_every_accepted_frame_reencodes_as_the_parent_did(codec, data, junk):
    """Damaged frames: truncated, bit-flipped, a length overwritten, junk after."""
    frame = bytearray(CODECS[codec][2](data.draw(OBJECTS[codec])))
    damage = data.draw(st.sampled_from(["truncate", "flip", "length", "append"]))
    if damage == "truncate":
        del frame[data.draw(st.integers(min_value=0, max_value=len(frame))):]
    elif damage == "flip":
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            position = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
            frame[position] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
    elif damage == "length" and len(frame) >= 4:
        position = data.draw(st.integers(min_value=0, max_value=len(frame) - 4))
        current = int.from_bytes(frame[position: position + 4], "big")
        value = data.draw(st.sampled_from([0, current + 1, max(current - 1, 0)]))
        frame[position: position + 4] = (value % 2**32).to_bytes(4, "big")
    else:
        frame += junk
    assert_reemitted_as_the_parent_did(codec, bytes(frame))


@pytest.mark.parametrize("codec", CODECS)
@given(junk=st.binary(max_size=120))
@settings(max_examples=150, deadline=None)
def test_arbitrary_accepted_bytes_reencode_as_the_parent_did(codec, junk):
    assert_reemitted_as_the_parent_did(codec, junk)


@given(encrypted_tuple=encrypted_tuples, prefix=short_bytes, suffix=short_bytes)
@settings(max_examples=150, deadline=None)
def test_the_memo_is_exactly_the_span_parsed(encrypted_tuple, prefix, suffix):
    body = encode_encrypted_tuple(encrypted_tuple)
    decoded, _ = decode_encrypted_tuple(prefix + body + suffix, len(prefix))
    assert decoded.framed == prefixed(body)
    assert encrypted_tuple.framed is None


@given(relation=relations)
@settings(max_examples=150, deadline=None)
def test_the_memo_is_invisible(relation):
    decoded = decode_encrypted_relation(encode_encrypted_relation(relation))
    assert decoded == relation and hash(decoded) == hash(relation)
    assert repr(decoded) == repr(relation)
    for twin, copy in zip(relation, decoded):
        assert copy.framed is not None
        assert copy == twin and hash(copy) == hash(twin) and repr(copy) == repr(twin)
        assert dataclasses.fields(copy) == dataclasses.fields(twin)
        assert dataclasses.astuple(copy) == dataclasses.astuple(twin)
        assert dataclasses.replace(copy).framed is None
        changed = dataclasses.replace(copy, metadata=copy.metadata + b"!")
        assert changed.framed is None
        assert encode_encrypted_tuple(changed) == encode_encrypted_tuple(
            dataclasses.replace(twin, metadata=twin.metadata + b"!")
        )


def send(provider, kind: MessageKind, body: bytes) -> bytes:
    response = parse_message(
        provider.handle_message(MessageV2(kind=kind, relation_name="Emp", body=body).to_bytes())
    )
    assert response.kind is not MessageKind.ERROR, response.body
    return response.body


@pytest.mark.parametrize("store", ["memory", "file"])
def test_stored_tuples_are_reemitted_as_they_arrived(store, tmp_path):
    """``STORE_RELATION``, ``INSERT_TUPLES`` (of one tuple and of several) and
    the file store keep the memo or rebuild it, and a query answer is
    byte-identical to a fresh encode."""
    storage = InMemoryStorageBackend() if store == "memory" else FileStorageBackend(tmp_path)
    provider = OutsourcedDatabaseServer(storage=storage)
    dph = create("index", SCHEMA, bytes(range(32)), rng=DeterministicRng(3))
    provider.register_evaluator("Emp", dph.server_evaluator())
    rows = [RelationTuple(SCHEMA, {"name": f"e{i}", "dept": "HR", "salary": i}) for i in range(6)]
    stored = dph.encrypt_relation(Relation(SCHEMA, rows[:3]))
    inserted = tuple(dph.encrypt_tuple(row) for row in rows[3:])
    send(provider, MessageKind.STORE_RELATION, encode_encrypted_relation(stored))
    for batch in (inserted[:1], inserted[1:]):
        send(provider, MessageKind.INSERT_TUPLES, encode_insert_tuples(b"", batch))

    fresh = stored.encrypted_tuples + inserted
    held = provider.stored_relation("Emp").encrypted_tuples
    assert held == fresh
    assert [t.framed for t in held] == [prefixed(encode_encrypted_tuple(t)) for t in fresh]
    query = dph.encrypt_query(Selection.equals("dept", "HR"))
    answer = send(provider, MessageKind.QUERY, encode_encrypted_query(query))
    result, _ = decode_evaluation_result(answer)
    assert result.matching.encrypted_tuples == fresh
    assert answer == encode_evaluation_result(
        dataclasses.replace(result, matching=EncryptedRelation(SCHEMA, fresh))
    )


# --------------------------------------------------------------------------- #
# The memo equals a fresh encode wherever it is set
# --------------------------------------------------------------------------- #

def fresh_frame(encrypted_tuple: EncryptedTuple) -> bytes:
    """The tuple framed from its fields alone (``replace`` drops any memo)."""
    return prefixed(encode_encrypted_tuple(dataclasses.replace(encrypted_tuple)))


def per_tuple_relation_frame(relation: EncryptedRelation) -> bytes:
    """A relation frame built one tuple at a time, as the parent encoder built it."""
    declaration = encode_encrypted_relation(EncryptedRelation(relation.schema, ()))[:-4]
    return (
        declaration
        + len(relation).to_bytes(4, "big")
        + b"".join(fresh_frame(t) for t in relation)
    )


@given(relation=relations)
@settings(max_examples=150, deadline=None)
def test_the_walked_memo_is_a_fresh_frame(relation):
    frame = encode_encrypted_relation(relation)
    decoded = decode_encrypted_relation(frame)
    assert [t.framed for t in decoded] == [fresh_frame(t) for t in relation]
    result, _ = decode_evaluation_result(
        encode_evaluation_result(EvaluationResult(relation, 3, 4))
    )
    assert [t.framed for t in result.matching] == [fresh_frame(t) for t in relation]


@given(inserted=st.lists(encrypted_tuples, max_size=3), postings=st.binary(max_size=24))
@settings(max_examples=150, deadline=None)
def test_an_insert_body_memo_is_a_fresh_frame(inserted, postings):
    body = encode_insert_tuples(postings, inserted)
    for raw in (body, bytearray(body)):
        decoded_postings, decoded = decode_insert_tuples(raw)
        assert decoded_postings == postings and decoded == tuple(inserted)
        assert [t.framed for t in decoded] == [fresh_frame(t) for t in inserted]
    assert encode_insert_tuples(postings, decoded) == body


@given(relation=relations, postings=st.binary(max_size=24), data=st.data())
@settings(max_examples=200, deadline=None)
def test_an_insert_body_walks_its_tuples_as_a_relation_frame(relation, postings, data):
    """An ``INSERT_TUPLES`` body's tuples are a relation frame's count and
    frames: cut anywhere, they get the relation frame's verdict and message."""
    body = encode_insert_tuples(postings, relation.encrypted_tuples)
    frame = encode_encrypted_relation(relation)
    head = 4 + len(postings)
    schema_head = len(frame) - (len(body) - head)
    assert body[head:] == frame[schema_head:]
    cut = data.draw(st.integers(min_value=0, max_value=len(body) - head - 1))
    with pytest.raises(ProtocolError) as expected:
        decode_encrypted_relation(frame[: schema_head + cut])
    with pytest.raises(ProtocolError, match=re.escape(str(expected.value))):
        decode_insert_tuples(body[: head + cut])


@given(relation=relations, picks=st.lists(st.booleans(), min_size=6, max_size=6))
@settings(max_examples=150, deadline=None)
def test_a_mixed_relation_encodes_as_the_per_tuple_encoder(relation, picks):
    """Memo-carrying tuples beside fresh ones: the join falls back per tuple."""
    decoded = decode_encrypted_relation(encode_encrypted_relation(relation))
    mixed = EncryptedRelation(SCHEMA, tuple(
        memo if pick else fresh for memo, fresh, pick in zip(decoded, relation, picks)
    ))
    expected = per_tuple_relation_frame(relation)
    assert encode_encrypted_relation(mixed) == expected
    assert encode_evaluation_result(EvaluationResult(mixed, 5, 9)) == (
        prefixed(expected) + (5).to_bytes(8, "big") + (9).to_bytes(8, "big")
    )


def test_a_replaced_tuple_carries_no_memo():
    decoded = decode_encrypted_relation(SAMPLE_FRAME)
    for memo, twin in zip(decoded, SAMPLE):
        assert memo.framed == fresh_frame(twin)
        assert dataclasses.replace(memo).framed is None
        assert dataclasses.replace(memo, tuple_id=b"other").framed is None
        assert twin.framed is None


@given(relation=relations, appended=st.lists(encrypted_tuples, max_size=3))
@settings(max_examples=40, deadline=None)
def test_a_file_store_append_round_trips_the_memo(tmp_path_factory, relation, appended):
    """Append memo-less and memo-carrying tuples; the file is a per-tuple
    frame, and every loaded memo is a fresh frame."""
    storage = FileStorageBackend(tmp_path_factory.mktemp("store"))
    storage.save("Emp", relation)
    storage.append("Emp", appended)
    storage.append("Emp", decode_insert_tuples(encode_insert_tuples(b"", appended))[1])
    everything = EncryptedRelation(
        SCHEMA, relation.encrypted_tuples + tuple(appended) * 2
    )
    assert storage._path("Emp").read_bytes() == (
        per_tuple_relation_frame(everything)
    )
    loaded = storage.load("Emp")
    assert loaded == everything
    assert [t.framed for t in loaded] == [fresh_frame(t) for t in everything]
