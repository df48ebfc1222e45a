"""Wire format of the outsourcing protocol.

The client (Alex) and the service provider (Eve) exchange only ciphertext
objects; this module defines a compact, self-describing byte encoding for them
so the protocol layer is genuinely message-based (and so the storage /
bandwidth overhead experiments E8-E9 measure realistic serialized sizes, not
Python object graphs).

Every operation a session performs is one envelope (:class:`MessageV2`):
the data operations (``STORE_RELATION``, ``INSERT_TUPLES``, ``QUERY``,
tuple-id-addressed ``DELETE_TUPLES``, multi-query ``BATCH_QUERY``, the
metadata read ``LIST_TUPLE_IDS``), the encrypted-index operations, and the
DDL and metadata operations -- ``REGISTER_EVALUATOR`` (the keyless
evaluator's public-parameter description, rebuilt by the provider through
the allowlist of :mod:`repro.outsourcing.evaluators`), ``FETCH_RELATION``,
``TUPLE_COUNT``, ``DROP_RELATION`` and ``RELATION_NAMES``.  Answers reuse a
handful of kinds: ``ACK`` carrying a count, ``QUERY_RESULT`` carrying an
evaluation result, ``TUPLE_IDS`` / ``RELATIONS`` carrying a sequence.  So
whatever Eve is asked to do, she is asked in bytes that
:meth:`~repro.outsourcing.server.OutsourcedDatabaseServer.handle_message`
parses, audits and times.

A write is one envelope carrying its index postings (an encoded
:class:`~repro.index.wire.IndexDelta`, no bytes without an index): see
:func:`encode_insert_tuples` and :func:`encode_delete_tuples`.

Which kind answers which is declared once, here: :data:`ANSWERS` maps each
request kind to its one answer kind (a refusal is ``ERROR``),
:data:`ANSWER_CODECS` gives each answer kind's body codec and
:data:`REPLAY_UNSAFE` lists the kinds a transport never resends.  The
provider, the shard router and the request helper all read them, so a new
kind is one row here, one provider branch and one router plan.

* **v2** -- ``V2_MAGIC | version | kind | relation_name | body``.
* **v3** -- byte-for-byte the v2 layout with version byte ``3`` and exactly
  :data:`TRACE_ID_SIZE` trailing bytes carrying a trace id (see
  :mod:`repro.obs.trace`).  The fixed trailing length makes trace handling
  O(1) on raw frames: :func:`attach_trace` upgrades a serialized v2
  envelope without re-encoding it and :func:`peek_trace_id` reads the id
  without parsing.  Responses never carry trace ids; only requests do.

So the version byte is a one-bit trace flag, not something peers agree on:
every peer built from this tree reads both layouts, and a sender attaches a
trace id whenever it has one.  A frame that does not start with
:data:`V2_MAGIC` -- the retired unversioned v1 framing, or garbage -- or that
carries any other version byte is a :class:`ProtocolError`.

Encoding conventions: all integers are big-endian; variable-length byte
strings are length-prefixed with 4 bytes; sequences are prefixed with a
4-byte element count.  A decoded tuple keeps its frame, length included, as
``EncryptedTuple.framed``, so a relation or a result of decoded tuples is
one join over those memos.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterable, Sequence

from repro import native
from repro.core.dph import (
    EncryptedQuery,
    EncryptedRelation,
    EncryptedTuple,
    EvaluationResult,
)
from repro.relational.errors import SchemaError
from repro.relational.schema import RelationSchema

#: The two envelope version bytes: untraced, and with a trace id appended.
PROTOCOL_V2 = 2
PROTOCOL_V3 = 3

#: Size of the trace id a v3 envelope carries as its trailing bytes.
TRACE_ID_SIZE = 16

#: Leading magic of every envelope, followed by its version byte.
V2_MAGIC = b"DPH"


#: The 4-byte big-endian length / count prefix.
_U32 = struct.Struct(">I")

_new_object = object.__new__
_set = object.__setattr__
_framed = attrgetter("framed")

#: Distinct schema declarations whose parse -- and, the other way, distinct
#: schemas whose declaration -- is remembered (LRU).
SCHEMA_MEMO_SIZE = 64


class ProtocolError(Exception):
    """A message could not be encoded or decoded."""


# --------------------------------------------------------------------------- #
# Primitive encoders
# --------------------------------------------------------------------------- #

def _encode_bytes(value: bytes) -> bytes:
    return len(value).to_bytes(4, "big") + value


def _span(raw: bytes, offset: int) -> tuple[int, int]:
    """``(start, end)`` of the length-prefixed byte string at ``offset``."""
    start = offset + 4
    if start > len(raw):
        raise ProtocolError("truncated length prefix")
    end = start + int.from_bytes(raw[offset:start], "big")
    if end > len(raw):
        raise ProtocolError("truncated byte string")
    return start, end


def _decode_bytes(raw: bytes, offset: int) -> tuple[bytes, int]:
    start, end = _span(raw, offset)
    return raw[start:end], end


def _encode_sequence(items: list[bytes]) -> bytes:
    return len(items).to_bytes(4, "big") + b"".join(_encode_bytes(i) for i in items)


def _decode_sequence(raw: bytes, offset: int) -> tuple[list[bytes], int]:
    if offset + 4 > len(raw):
        raise ProtocolError("truncated sequence count")
    count = int.from_bytes(raw[offset: offset + 4], "big")
    offset += 4
    items = []
    for _ in range(count):
        item, offset = _decode_bytes(raw, offset)
        items.append(item)
    return items, offset


# --------------------------------------------------------------------------- #
# Ciphertext object encoders
# --------------------------------------------------------------------------- #

def encode_encrypted_tuple(encrypted_tuple: EncryptedTuple) -> bytes:
    """Serialize one tuple ciphertext: the body it was decoded from, if any."""
    framed = encrypted_tuple.framed
    if framed is not None:
        return framed[4:]
    parts = [
        _U32.pack(len(encrypted_tuple.tuple_id)),
        encrypted_tuple.tuple_id,
        _U32.pack(len(encrypted_tuple.payload)),
        encrypted_tuple.payload,
        _U32.pack(len(encrypted_tuple.search_fields)),
    ]
    for field in encrypted_tuple.search_fields:
        parts += (_U32.pack(len(field)), field)
    parts += (_U32.pack(len(encrypted_tuple.metadata)), encrypted_tuple.metadata)
    return b"".join(parts)


def frame_encrypted_tuple(encrypted_tuple: EncryptedTuple) -> bytes:
    """One tuple ciphertext as a relation frame carries it, body length
    first: its ``framed`` memo, or a fresh encode."""
    framed = encrypted_tuple.framed
    return _encode_bytes(encode_encrypted_tuple(encrypted_tuple)) if framed is None else framed


def _decode_tuple_at(
    raw: bytes, offset: int, end: int, framed: bool = False
) -> tuple[EncryptedTuple, int]:
    """Parse the tuple ciphertext that starts at ``offset`` and must end by ``end``.

    Walks the length prefixes in place (only the parts themselves are sliced
    out).  Offsets only grow, so one comparison with ``end`` after the walk
    bounds every part; the search-field loop checks it per field so a hostile
    count stops at the first field it cannot back with bytes.

    The ciphertext keeps its ``framed`` memo: one slice from the body's
    length on when ``framed`` says a relation frame holds it, else the
    length packed before the body.  It is built by ``object.__setattr__``
    without the frozen dataclass ``__init__``; writing its ``__dict__`` is
    quicker, but raised a provider's peak RSS several times more than the
    memo's own bytes do.
    """
    read_length = _U32.unpack_from
    begin = offset
    try:
        start = offset + 4
        offset = start + read_length(raw, offset)[0]
        tuple_id = raw[start:offset]
        start = offset + 4
        offset = start + read_length(raw, offset)[0]
        payload = raw[start:offset]
        count = read_length(raw, offset)[0]
        offset += 4
        fields = []
        for _ in range(count):
            start = offset + 4
            offset = start + read_length(raw, offset)[0]
            if offset > end:
                raise ProtocolError("truncated byte string")
            fields.append(raw[start:offset])
        start = offset + 4
        offset = start + read_length(raw, offset)[0]
        metadata = raw[start:offset]
    except struct.error as exc:
        raise ProtocolError("truncated length prefix") from exc
    if offset > end:
        raise ProtocolError("truncated byte string")
    encrypted_tuple = _new_object(EncryptedTuple)
    _set(encrypted_tuple, "tuple_id", tuple_id)
    _set(encrypted_tuple, "payload", payload)
    _set(encrypted_tuple, "search_fields", tuple(fields))
    _set(encrypted_tuple, "metadata", metadata)
    memo = raw[begin - 4:offset] if framed else _U32.pack(offset - begin) + raw[begin:offset]
    _set(encrypted_tuple, "framed", memo)
    return encrypted_tuple, offset


def decode_encrypted_tuple(raw: bytes, offset: int = 0) -> tuple[EncryptedTuple, int]:
    """Parse one tuple ciphertext, returning it and the next offset."""
    return _decode_tuple_at(raw, offset, len(raw))


def _relation_parts(encrypted_relation: EncryptedRelation) -> list[bytes]:
    """An encrypted relation's frame as parts to join: an empty head (the
    slot for a result's relation length), the schema declaration, the count
    and each tuple's ``framed`` memo, or its fresh frame when one lacks it."""
    tuples = encrypted_relation.encrypted_tuples
    framed = list(map(_framed, tuples))
    if not all(framed):
        framed = list(map(frame_encrypted_tuple, tuples))
    schema = _encode_bytes(_schema_declaration(encrypted_relation.schema).encode("utf-8"))
    return [b"", schema, len(tuples).to_bytes(4, "big"), *framed]


def encode_encrypted_relation(encrypted_relation: EncryptedRelation) -> bytes:
    """Serialize an encrypted relation (schema travels as its public declaration)."""
    return b"".join(_relation_parts(encrypted_relation))


def decode_encrypted_relation(raw: bytes) -> EncryptedRelation:
    """Parse an encrypted relation in one walk over the frame.

    The schema declaration is public but not trusted: bytes that do not
    parse as one are a :class:`ProtocolError` like any other malformed part.
    """
    return _decode_relation_at(raw, 0, len(raw))


def _decode_relation_at(raw: bytes, start: int, end: int) -> EncryptedRelation:
    """Parse the encrypted relation that fills ``raw[start:end]``.

    With the native kernel loaded its ``decode_tuples`` walks the tuples in
    place, building each as :func:`_decode_tuple_at` does; on any irregular
    framing it returns ``None`` and the Python walk below, the reference,
    runs over the slice to raise its own :class:`ProtocolError`.  A
    bytes-like frame is read as the bytes it holds.
    """
    if not isinstance(raw, bytes):
        raw = bytes(memoryview(raw))
    kernel = native.kernel
    if kernel is not None and end - start >= 4:
        offset = start + 4 + _U32.unpack_from(raw, start)[0]
        if offset <= end:
            schema = _schema_at(raw[start + 4:offset])
            tuples = kernel.decode_tuples(raw, offset, end, EncryptedTuple)
            if tuples is not None:
                return EncryptedRelation(schema=schema, encrypted_tuples=tuples)
    if start or end != len(raw):
        raw = raw[start:end]
    return _walk_relation(raw)


def _schema_at(declaration: bytes) -> RelationSchema:
    try:
        return _parse_schema_declaration(declaration)
    except (SchemaError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed schema declaration: {exc}") from exc


def _walk_relation(raw: bytes) -> EncryptedRelation:
    """The Python walk of :func:`decode_encrypted_relation` over a whole frame."""
    schema_bytes, offset = _decode_bytes(raw, 0)
    schema = _schema_at(schema_bytes)
    return EncryptedRelation(schema=schema, encrypted_tuples=_walk_tuples(raw, offset))


def _walk_tuples(raw: bytes, offset: int) -> tuple[EncryptedTuple, ...]:
    """The Python walk of the counted tuple frames from ``offset`` to the end."""
    total = len(raw)
    tuples = []
    try:
        count = _U32.unpack_from(raw, offset)[0]
        offset += 4
        for _ in range(count):
            end = offset + 4 + _U32.unpack_from(raw, offset)[0]
            if end > total:
                raise ProtocolError("truncated byte string")
            encrypted_tuple, offset = _decode_tuple_at(raw, offset + 4, end, True)
            if offset != end:
                raise ProtocolError("trailing bytes after encrypted tuple")
            tuples.append(encrypted_tuple)
    except struct.error as exc:
        raise ProtocolError("truncated length prefix") from exc
    if offset != total:
        raise ProtocolError("trailing bytes after encrypted relation")
    return tuple(tuples)


def encode_encrypted_query(encrypted_query: EncryptedQuery) -> bytes:
    """Serialize an encrypted query."""
    return (
        _encode_bytes(encrypted_query.scheme_name.encode("utf-8"))
        + _encode_sequence(list(encrypted_query.tokens))
        + _encode_bytes(encrypted_query.metadata)
    )


def decode_encrypted_query(raw: bytes) -> EncryptedQuery:
    """Parse an encrypted query: a UTF-8 scheme name and at least one token."""
    name, offset = _decode_bytes(raw, 0)
    tokens, offset = _decode_sequence(raw, offset)
    metadata, offset = _decode_bytes(raw, offset)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after encrypted query")
    if not tokens:
        raise ProtocolError("an encrypted query needs at least one token")
    try:
        scheme_name = name.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"scheme name {name!r} is not valid UTF-8") from exc
    return EncryptedQuery(scheme_name=scheme_name, tokens=tuple(tokens), metadata=metadata)


@functools.lru_cache(maxsize=SCHEMA_MEMO_SIZE)
def _schema_declaration(schema: RelationSchema) -> str:
    """The wire declaration of an (immutable) schema, formatted once per schema."""
    columns = ", ".join(
        f"{a.name}:{a.attribute_type.value}[{a.max_length}]" for a in schema.attributes
    )
    return f"{schema.name}({columns})"


@functools.lru_cache(maxsize=SCHEMA_MEMO_SIZE)
def _parse_schema_declaration(declaration: bytes) -> RelationSchema:
    """The (immutable) schema a wire declaration names, parsed once per spelling.

    Every reply and stored file carries one and a session sees a handful.
    The bytes are an untrusted peer's, hence the bound; a declaration that
    does not parse raises and is therefore never cached.
    """
    return RelationSchema.parse(declaration.decode("utf-8"))


# --------------------------------------------------------------------------- #
# Body codecs
# --------------------------------------------------------------------------- #

def encode_tuple_ids(tuple_ids: Sequence[bytes]) -> bytes:
    """Serialize a ``TUPLE_IDS`` body: an id list."""
    return _encode_sequence(list(tuple_ids))


def decode_tuple_ids(raw: bytes) -> tuple[bytes, ...]:
    """Parse a ``TUPLE_IDS`` body."""
    ids, offset = _decode_sequence(raw, 0)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after tuple id list")
    return tuple(ids)


def encode_insert_tuples(postings: bytes, encrypted_tuples: Sequence[EncryptedTuple]) -> bytes:
    """Serialize an ``INSERT_TUPLES`` body: the posting additions, length-prefixed,
    then the tuples as a relation frame carries them (count, then frames)."""
    frames = map(frame_encrypted_tuple, encrypted_tuples)
    return b"".join([_encode_bytes(postings), _U32.pack(len(encrypted_tuples)), *frames])


def decode_insert_tuples(raw: bytes) -> tuple[bytes, tuple[EncryptedTuple, ...]]:
    """Parse an ``INSERT_TUPLES`` body into ``(postings, tuples)`` as a relation's
    tuples are walked, each keeping its ``framed`` memo."""
    if not isinstance(raw, bytes):
        raw = bytes(memoryview(raw))
    postings, offset = _decode_bytes(raw, 0)
    kernel = native.kernel
    if kernel is not None:
        tuples = kernel.decode_tuples(raw, offset, len(raw), EncryptedTuple)
        if tuples is not None:
            return postings, tuples
    return postings, _walk_tuples(raw, offset)


def encode_delete_tuples(tuple_ids: Sequence[bytes], postings: bytes) -> bytes:
    """Serialize a ``DELETE_TUPLES`` body: the id list, then the posting removals."""
    return _encode_sequence(list(tuple_ids)) + postings


def decode_delete_tuples(raw: bytes) -> tuple[tuple[bytes, ...], bytes]:
    """Parse a ``DELETE_TUPLES`` body: ``(tuple ids, postings)``."""
    ids, offset = _decode_sequence(raw, 0)
    return tuple(ids), raw[offset:]


def encode_query_batch(queries: Iterable[EncryptedQuery]) -> bytes:
    """Serialize the query list of a ``BATCH_QUERY`` request."""
    return _encode_sequence([encode_encrypted_query(q) for q in queries])


def decode_query_batch(raw: bytes) -> tuple[EncryptedQuery, ...]:
    """Parse a ``BATCH_QUERY`` body."""
    bodies, offset = _decode_sequence(raw, 0)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after query batch")
    return tuple(decode_encrypted_query(body) for body in bodies)


def encode_evaluation_result(result: EvaluationResult) -> bytes:
    """Serialize a server evaluation result (matches plus work statistics)
    in one join: the relation's length and parts, then the statistics."""
    parts = _relation_parts(result.matching)
    parts[0] = sum(map(len, parts)).to_bytes(4, "big")
    parts += (result.examined.to_bytes(8, "big"), result.token_evaluations.to_bytes(8, "big"))
    return b"".join(parts)


def decode_evaluation_result(raw: bytes, offset: int = 0) -> tuple[EvaluationResult, int]:
    """Parse an evaluation result, returning it and the next offset.

    The relation is parsed where it lies in ``raw``, not sliced out first.
    """
    start, offset = _span(raw, offset)
    if offset + 16 > len(raw):
        raise ProtocolError("truncated evaluation statistics")
    examined = int.from_bytes(raw[offset: offset + 8], "big")
    token_evaluations = int.from_bytes(raw[offset + 8: offset + 16], "big")
    return (
        EvaluationResult(
            matching=_decode_relation_at(raw, start, offset),
            examined=examined,
            token_evaluations=token_evaluations,
        ),
        offset + 16,
    )


def decode_query_result(raw: bytes) -> EvaluationResult:
    """Parse a ``QUERY_RESULT`` body: one evaluation result, nothing after it."""
    result, consumed = decode_evaluation_result(raw)
    if consumed != len(raw):
        raise ProtocolError("trailing bytes after evaluation result")
    return result


def encode_result_batch(results: Iterable[EvaluationResult]) -> bytes:
    """Serialize the result list of a ``BATCH_RESULT`` response."""
    return _encode_sequence([encode_evaluation_result(r) for r in results])


def decode_result_batch(raw: bytes) -> tuple[EvaluationResult, ...]:
    """Parse a ``BATCH_RESULT`` body."""
    bodies, offset = _decode_sequence(raw, 0)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after result batch")
    return tuple(decode_query_result(body) for body in bodies)


def encode_count(count: int) -> bytes:
    """Serialize the non-negative count carried by an ``ACK`` body."""
    if count < 0:
        raise ProtocolError("counts are non-negative")
    return count.to_bytes(8, "big")


def decode_count(raw: bytes) -> int:
    """Parse an ``ACK`` count body."""
    if len(raw) != 8:
        raise ProtocolError("malformed count body")
    return int.from_bytes(raw, "big")


def encode_relation_names(names: Sequence[str]) -> bytes:
    """Serialize a ``RELATIONS`` body: the relation names, UTF-8."""
    return _encode_sequence([name.encode("utf-8") for name in names])


def decode_relation_names(raw: bytes) -> tuple[str, ...]:
    """Parse a ``RELATIONS`` body."""
    names, offset = _decode_sequence(raw, 0)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after relation names")
    try:
        return tuple(name.decode("utf-8") for name in names)
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"relation name is not valid UTF-8: {exc}") from exc


def encode_evaluator_description(description: dict) -> bytes:
    """Serialize a ``REGISTER_EVALUATOR`` body: the evaluator's description as JSON."""
    text = json.dumps(description, sort_keys=True, separators=(",", ":"))
    return text.encode("utf-8")


def decode_evaluator_description(raw: bytes) -> dict:
    """Parse a ``REGISTER_EVALUATOR`` body into its description object.

    The bytes are a peer's: anything but one JSON object -- nesting deeper
    than the parser's recursion limit included -- is a :class:`ProtocolError`.
    """
    try:
        description = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ProtocolError(f"malformed evaluator description: {exc}") from exc
    if not isinstance(description, dict):
        raise ProtocolError("an evaluator description is a JSON object")
    return description


# --------------------------------------------------------------------------- #
# Message envelope
# --------------------------------------------------------------------------- #

class MessageKind(Enum):
    """Protocol message types."""

    STORE_RELATION = "store-relation"
    INSERT_TUPLES = "insert-tuples"
    QUERY = "query"
    QUERY_RESULT = "query-result"
    ERROR = "error"
    ACK = "ack"
    DELETE_TUPLES = "delete-tuples"
    BATCH_QUERY = "batch-query"
    BATCH_RESULT = "batch-result"
    LIST_TUPLE_IDS = "list-tuple-ids"
    TUPLE_IDS = "tuple-ids"
    INDEX_PUT = "index-put"
    INDEX_LOOKUP = "index-lookup"
    # DDL and metadata:
    REGISTER_EVALUATOR = "deploy-evaluator"
    FETCH_RELATION = "fetch-relation"
    TUPLE_COUNT = "count-tuples"
    DROP_RELATION = "delete-relation"
    RELATION_NAMES = "list-relations"
    RELATIONS = "relations"


#: The one kind each request kind is answered with (a refusal is ``ERROR``).
ANSWERS = {
    MessageKind.STORE_RELATION: MessageKind.ACK,
    MessageKind.INSERT_TUPLES: MessageKind.ACK,
    MessageKind.QUERY: MessageKind.QUERY_RESULT,
    MessageKind.DELETE_TUPLES: MessageKind.TUPLE_IDS,
    MessageKind.BATCH_QUERY: MessageKind.BATCH_RESULT,
    MessageKind.LIST_TUPLE_IDS: MessageKind.TUPLE_IDS,
    MessageKind.INDEX_PUT: MessageKind.ACK,
    MessageKind.INDEX_LOOKUP: MessageKind.QUERY_RESULT,
    MessageKind.REGISTER_EVALUATOR: MessageKind.ACK,
    MessageKind.FETCH_RELATION: MessageKind.QUERY_RESULT,
    MessageKind.TUPLE_COUNT: MessageKind.ACK,
    MessageKind.DROP_RELATION: MessageKind.ACK,
    MessageKind.RELATION_NAMES: MessageKind.RELATIONS,
}

#: Body codecs ``(decode, encode)`` of the answer kinds.
ANSWER_CODECS = {
    MessageKind.ACK: (decode_count, encode_count),
    MessageKind.QUERY_RESULT: (decode_query_result, encode_evaluation_result),
    MessageKind.BATCH_RESULT: (decode_result_batch, encode_result_batch),
    MessageKind.TUPLE_IDS: (decode_tuple_ids, encode_tuple_ids),
    MessageKind.RELATIONS: (decode_relation_names, encode_relation_names),
}

#: Request kinds a transport never resends once they may have been delivered:
#: a replayed insert adds a second copy, a replayed drop finds no relation and
#: a replayed delete finds its ids gone, so it answers none of the removed
#: tuples.  The postings ride in the writes, so they are never resent either.
REPLAY_UNSAFE = frozenset({
    MessageKind.INSERT_TUPLES,
    MessageKind.DROP_RELATION,
    MessageKind.DELETE_TUPLES,
})


@dataclass(frozen=True)
class MessageV2:
    """A protocol message: a kind, a target relation name, and a body.

    The frame is ``V2_MAGIC | version (1 byte) | kind | relation_name | body``
    with the usual length prefixes on the three variable parts.  When
    ``trace_id`` is set the envelope serializes as v3: the same layout with
    version byte ``3`` and the :data:`TRACE_ID_SIZE` id bytes appended.
    """

    kind: MessageKind
    relation_name: str
    body: bytes = b""
    trace_id: bytes | None = None

    @property
    def version(self) -> int:
        """The envelope version (3 when a trace id rides along)."""
        return PROTOCOL_V2 if self.trace_id is None else PROTOCOL_V3

    def to_bytes(self) -> bytes:
        """Serialize the envelope."""
        if self.trace_id is not None and len(self.trace_id) != TRACE_ID_SIZE:
            raise ProtocolError(
                f"trace ids are {TRACE_ID_SIZE} bytes, got {len(self.trace_id)}"
            )
        return (
            V2_MAGIC
            + bytes([self.version])
            + _encode_bytes(self.kind.value.encode("utf-8"))
            + _encode_bytes(self.relation_name.encode("utf-8"))
            + _encode_bytes(self.body)
            + (self.trace_id or b"")
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MessageV2":
        """Parse an envelope, rejecting foreign magic and unknown versions."""
        version, kind, relation_name, start, end = _envelope_view(raw)
        trace_id = raw[end:] if version == PROTOCOL_V3 else None
        return cls(kind, relation_name, raw[start:end], trace_id)


def peek_version(raw: bytes) -> int:
    """The envelope version of a raw frame, without parsing the payload.

    Every envelope announces itself with :data:`V2_MAGIC`; a frame that
    does not (the retired v1 framing, or garbage) is refused.
    """
    if raw[: len(V2_MAGIC)] != V2_MAGIC:
        raise ProtocolError("not a versioned protocol envelope")
    if len(raw) < len(V2_MAGIC) + 1:
        raise ProtocolError("truncated versioned envelope")
    return raw[len(V2_MAGIC)]


def parse_message(raw: bytes) -> MessageV2:
    """Parse one envelope frame."""
    return MessageV2.from_bytes(raw)


def peek_envelope(raw: bytes) -> tuple[int, MessageKind, str]:
    """``(version, kind, relation_name)`` of an envelope, its body not copied.

    Performs every structural check the full parse does, so a dispatcher can
    learn an envelope's routing key at ``O(header)`` cost even for a frame
    carrying a whole relation.
    """
    return _envelope_view(raw)[:3]


def _envelope_view(raw: bytes) -> tuple[int, MessageKind, str, int, int]:
    """``(version, kind, relation_name, body start, body end)`` of an envelope.

    The one structural check -- magic and version, room for a v3 trace id,
    length prefixes accounting for exactly the frame, kind and name
    decoding -- shared by :func:`peek_envelope` and the full parse.
    """
    version = peek_version(raw)
    if version not in (PROTOCOL_V2, PROTOCOL_V3):
        raise ProtocolError(f"unsupported protocol version {version}")
    end = len(raw)
    if version == PROTOCOL_V3:
        if end < len(V2_MAGIC) + 1 + TRACE_ID_SIZE:
            raise ProtocolError("truncated trace id")
        end -= TRACE_ID_SIZE
    kind_bytes, offset = _decode_bytes(raw, len(V2_MAGIC) + 1)
    name_bytes, offset = _decode_bytes(raw, offset)
    start = offset + 4
    if start > len(raw):
        raise ProtocolError("truncated length prefix")
    body_end = start + int.from_bytes(raw[offset:start], "big")
    if body_end < end:
        raise ProtocolError("trailing bytes after message")
    if body_end > end:
        raise ProtocolError("truncated byte string")
    try:
        kind = MessageKind(kind_bytes.decode("utf-8"))
    except ValueError as exc:  # covers UnicodeDecodeError too
        raise ProtocolError(f"unknown message kind {kind_bytes!r}") from exc
    try:
        relation_name = name_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"relation name {name_bytes!r} is not valid UTF-8") from exc
    return version, kind, relation_name, start, end


def attach_trace(raw: bytes, trace_id: bytes) -> bytes:
    """Upgrade a serialized v2 envelope to v3, appending ``trace_id``.

    O(1) on the frame structure -- the version byte flips and the id bytes
    are appended; the kind/name/body encoding is reused verbatim, never
    re-parsed.  A frame that already carries one is a caller bug.
    """
    if len(trace_id) != TRACE_ID_SIZE:
        raise ProtocolError(
            f"trace ids are {TRACE_ID_SIZE} bytes, got {len(trace_id)}"
        )
    version = peek_version(raw)
    if version != PROTOCOL_V2:
        raise ProtocolError(f"cannot attach a trace id to a v{version} envelope")
    header = len(V2_MAGIC)
    return V2_MAGIC + bytes([PROTOCOL_V3]) + raw[header + 1:] + trace_id


def peek_trace_id(raw: bytes, version: int | None = None) -> bytes | None:
    """The trace id of a raw v3 frame (None for untraced versions), O(1);
    a caller that already peeked the frame's ``version`` passes it along."""
    if (peek_version(raw) if version is None else version) != PROTOCOL_V3:
        return None
    if len(raw) < len(V2_MAGIC) + 1 + TRACE_ID_SIZE:
        raise ProtocolError("truncated trace id")
    return raw[-TRACE_ID_SIZE:]

