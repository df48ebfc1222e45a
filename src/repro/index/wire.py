"""Wire-format objects for the encrypted inverted index.

Three ciphertext objects cross the trust boundary:

* :class:`IndexSnapshot` -- the full index for one relation, shipped by
  ``INDEX_PUT`` when a table is created or attached.  Labels are opaque
  PRF outputs; each label maps to fixed-capacity buckets of public tuple
  ids, the last bucket padded with dummy ids so the provider sees only a
  bucket *count* per label, never an exact posting count.
* :class:`IndexDelta` -- incremental maintenance riding in the write it
  maintains: ``(label, tuple_id)`` pairs to add, carried by the
  ``INSERT_TUPLES`` of the inserted tuples, or to tombstone, carried by the
  ``DELETE_TUPLES`` of the deleted ones.  The empty delta -- what a session
  without an index sends -- encodes as no bytes at all.
* :class:`IndexLookupRequest` -- an ``INDEX_LOOKUP`` body: the trapdoor
  labels for a query's predicates plus the ordinary encrypted fallback
  query, so a provider without an installed index (a restarted shard, a
  mid-rebalance arrival) can answer by scan instead of failing.

Everything here is deliberately dumb bytes-in/bytes-out: the PRF key
material lives in :mod:`repro.index.client`, the serving logic in
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


class IndexingError(ValueError):
    """A malformed index object or an index invariant violation.

    Subclasses :class:`ValueError` so the provider's message handler turns
    it into an ``ERROR`` envelope instead of letting it escape.
    """


@dataclass(frozen=True)
class IndexSnapshot:
    """A complete encrypted inverted index for one relation.

    ``entries`` maps an opaque label to its ordered buckets; every bucket
    except possibly the last is exactly ``bucket_capacity`` ids long, and
    the last is padded to capacity with dummy ids by the client.
    """

    bucket_capacity: int
    entries: dict[bytes, tuple[tuple[bytes, ...], ...]]

    def posting_slots(self) -> int:
        """Total id slots across all buckets (real postings + padding)."""
        return sum(
            len(bucket) for buckets in self.entries.values() for bucket in buckets
        )


@dataclass(frozen=True)
class IndexDelta:
    """Incremental posting maintenance: pairs of ``(label, tuple_id)``."""

    additions: tuple[tuple[bytes, bytes], ...] = ()
    removals: tuple[tuple[bytes, bytes], ...] = ()

    def __bool__(self) -> bool:
        return bool(self.additions or self.removals)


@dataclass(frozen=True)
class IndexLookupRequest:
    """Trapdoor labels plus the scan-fallback query they stand in for."""

    labels: tuple[bytes, ...]
    fallback_query: EncryptedQuery | None = None


def encode_index_snapshot(snapshot: IndexSnapshot) -> bytes:
    if snapshot.bucket_capacity < 1:
        raise IndexingError("bucket capacity must be positive")
    label_blobs = []
    for label, buckets in snapshot.entries.items():
        bucket_blobs = [_encode_sequence(list(bucket)) for bucket in buckets]
        label_blobs.append(_encode_bytes(label) + _encode_sequence(bucket_blobs))
    return snapshot.bucket_capacity.to_bytes(4, "big") + _encode_sequence(label_blobs)


def decode_index_snapshot(raw: bytes) -> IndexSnapshot:
    if len(raw) < 4:
        raise ProtocolError("truncated index snapshot")
    bucket_capacity = int.from_bytes(raw[:4], "big")
    if bucket_capacity < 1:
        raise ProtocolError("index snapshot declares non-positive bucket capacity")
    label_blobs, offset = _decode_sequence(raw, 4)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after index snapshot")
    entries: dict[bytes, tuple[tuple[bytes, ...], ...]] = {}
    for blob in label_blobs:
        label, inner = _decode_bytes(blob, 0)
        bucket_blobs, inner = _decode_sequence(blob, inner)
        if inner != len(blob):
            raise ProtocolError("trailing bytes after index snapshot entry")
        buckets = []
        for bucket_blob in bucket_blobs:
            ids, used = _decode_sequence(bucket_blob, 0)
            if used != len(bucket_blob):
                raise ProtocolError("trailing bytes after index bucket")
            if len(ids) > bucket_capacity:
                raise ProtocolError("index bucket exceeds declared capacity")
            buckets.append(tuple(ids))
        entries[label] = tuple(buckets)
    return IndexSnapshot(bucket_capacity=bucket_capacity, entries=entries)


def _encode_pairs(pairs: tuple[tuple[bytes, bytes], ...]) -> bytes:
    return _encode_sequence(
        [_encode_bytes(label) + _encode_bytes(tuple_id) for label, tuple_id in pairs]
    )


def _decode_pairs(raw: bytes, offset: int) -> tuple[tuple[tuple[bytes, bytes], ...], int]:
    blobs, offset = _decode_sequence(raw, offset)
    pairs = []
    for blob in blobs:
        label, inner = _decode_bytes(blob, 0)
        tuple_id, inner = _decode_bytes(blob, inner)
        if inner != len(blob):
            raise ProtocolError("trailing bytes after index posting pair")
        pairs.append((label, tuple_id))
    return tuple(pairs), offset


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
    body = _encode_sequence(list(request.labels))
    if request.fallback_query is None:
        return body + b"\x00"
    return body + b"\x01" + encode_encrypted_query(request.fallback_query)


def decode_index_lookup(raw: bytes) -> IndexLookupRequest:
    labels, offset = _decode_sequence(raw, 0)
    if offset >= len(raw):
        raise ProtocolError("truncated index lookup request")
    flag = raw[offset]
    offset += 1
    if flag == 0:
        if offset != len(raw):
            raise ProtocolError("trailing bytes after index lookup request")
        return IndexLookupRequest(labels=tuple(labels))
    if flag != 1:
        raise ProtocolError(f"unknown index lookup fallback flag {flag}")
    fallback = decode_encrypted_query(raw[offset:])
    return IndexLookupRequest(labels=tuple(labels), fallback_query=fallback)
