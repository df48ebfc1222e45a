"""Wire-format objects for the encrypted inverted index.

One posting form crosses the trust boundary: a ``(label, tuple_id)`` pair,
the label an opaque PRF output and the id the tuple's public id.

* The ``INDEX_PUT`` body (:func:`encode_index_snapshot`) is every posting
  of a relation at once, shipped when a table is created or attached.
* :class:`IndexDelta` is incremental maintenance riding in the write it
  maintains: pairs to add, carried by the ``INSERT_TUPLES`` of the
  inserted tuples, or to remove, carried by the ``DELETE_TUPLES`` of the
  deleted ones.  The empty delta -- what a session without an index
  sends -- encodes as no bytes at all.
* :class:`IndexLookupRequest` is an ``INDEX_LOOKUP`` body: the trapdoor
  labels for a query's predicates plus the ordinary encrypted query, so a
  provider without an installed index (a restarted shard, a mid-rebalance
  arrival) answers by scan instead of failing.

Everything here is deliberately dumb bytes-in/bytes-out: the PRF key
material lives in :mod:`repro.index.client`, the provider's index in
:mod:`repro.index.access`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dph import EncryptedQuery
from repro.outsourcing.protocol import (
    ProtocolError,
    _decode_bytes,
    _decode_sequence,
    _encode_bytes,
    _encode_sequence,
    decode_encrypted_query,
    encode_encrypted_query,
)

#: Postings: ``(label, tuple_id)`` pairs.
Postings = tuple[tuple[bytes, bytes], ...]


class IndexingError(ValueError):
    """A malformed index object or an index invariant violation.

    Subclasses :class:`ValueError` so the provider's message handler turns
    it into an ``ERROR`` envelope instead of letting it escape.
    """


@dataclass(frozen=True)
class IndexDelta:
    """Incremental posting maintenance: pairs of ``(label, tuple_id)``."""

    additions: Postings = ()
    removals: Postings = ()

    def __bool__(self) -> bool:
        return bool(self.additions or self.removals)


@dataclass(frozen=True)
class IndexLookupRequest:
    """Trapdoor labels plus the scan-fallback query they stand in for."""

    labels: tuple[bytes, ...]
    fallback_query: EncryptedQuery


def _encode_pairs(pairs: Postings) -> bytes:
    return _encode_sequence(
        [_encode_bytes(label) + _encode_bytes(tuple_id) for label, tuple_id in pairs]
    )


def _decode_pairs(raw: bytes, offset: int) -> tuple[Postings, int]:
    blobs, offset = _decode_sequence(raw, offset)
    pairs = []
    for blob in blobs:
        label, inner = _decode_bytes(blob, 0)
        tuple_id, inner = _decode_bytes(blob, inner)
        if inner != len(blob):
            raise ProtocolError("trailing bytes after index posting pair")
        pairs.append((label, tuple_id))
    return tuple(pairs), offset


def encode_index_snapshot(postings: Postings) -> bytes:
    """The ``INDEX_PUT`` body: every posting of a relation."""
    return _encode_pairs(postings)


def decode_index_snapshot(raw: bytes) -> Postings:
    postings, offset = _decode_pairs(raw, 0)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after index postings")
    return postings


def encode_index_delta(delta: IndexDelta) -> bytes:
    if not delta:
        return b""
    return _encode_pairs(delta.additions) + _encode_pairs(delta.removals)


def decode_index_delta(raw: bytes) -> IndexDelta:
    if not raw:
        return IndexDelta()
    additions, offset = _decode_pairs(raw, 0)
    removals, offset = _decode_pairs(raw, offset)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after index delta")
    return IndexDelta(additions=additions, removals=removals)


def encode_index_lookup(request: IndexLookupRequest) -> bytes:
    # Every lookup carries its fallback; the 0x01 byte before it keeps the
    # body byte-identical to what sessions have always sent.
    return (
        _encode_sequence(list(request.labels))
        + b"\x01"
        + encode_encrypted_query(request.fallback_query)
    )


def decode_index_lookup(raw: bytes) -> IndexLookupRequest:
    labels, offset = _decode_sequence(raw, 0)
    if offset >= len(raw):
        raise ProtocolError("truncated index lookup request")
    if raw[offset] != 1:
        raise ProtocolError(
            f"index lookup fallback flag {raw[offset]}: every lookup carries its fallback query"
        )
    fallback = decode_encrypted_query(raw[offset + 1:])
    return IndexLookupRequest(labels=tuple(labels), fallback_query=fallback)
