"""Client-side construction and maintenance of the encrypted inverted index.

:class:`TableIndexer` is the key-holding half of ``repro.index``: it turns
plaintext attribute values into PRF-derived labels (the same keyed-PRF
construction the secure-index SSE backend uses for its per-word labels),
builds an :class:`~repro.index.wire.IndexSnapshot` when a relation is
first outsourced, and emits :class:`~repro.index.wire.IndexDelta` posting
updates for every insert and delete.

What the provider learns from the shipped objects:

* labels are PRF outputs under a per-table subkey -- unlinkable to the
  values they encode and to the labels of any other table;
* postings are chunked into fixed-capacity buckets with the final bucket
  padded by dummy ids and shuffled, so a snapshot reveals only the bucket
  *count* per label (frequency rounded up to a multiple of the capacity),
  not exact counts;
* deltas necessarily reveal that one tuple touched ``len(schema)`` labels
  -- that is the incremental-maintenance leakage documented in the README.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.core.dph import EncryptedRelation
from repro.crypto.kdf import derive_key
from repro.crypto.prf import Prf
from repro.crypto.rng import RandomSource, SystemRng
from repro.index.wire import IndexDelta, IndexSnapshot, IndexingError
from repro.relational.encoding import ValueCodec
from repro.relational.query import Query, selection_predicates
from repro.relational.relation import Relation, RelationTuple
from repro.relational.schema import RelationSchema

#: Label length in bytes -- matches the secure-index SSE construction.
LABEL_LEN = 32

#: Default ids per bucket.  Small enough that padding waste stays modest,
#: large enough that low-frequency keywords are indistinguishable.
DEFAULT_BUCKET_CAPACITY = 8

#: Length of the public tuple-id nonces (see repro.core.dph.TUPLE_ID_LEN);
#: dummy padding ids are drawn at the same length so they are
#: indistinguishable from real ids.
_TUPLE_ID_LEN = 16


class TableIndexer:
    """Build and maintain the encrypted inverted index of one table."""

    def __init__(
        self,
        schema: RelationSchema,
        key: bytes,
        *,
        bucket_capacity: int = DEFAULT_BUCKET_CAPACITY,
        rng: RandomSource | None = None,
    ) -> None:
        if bucket_capacity < 1:
            raise IndexingError("bucket capacity must be positive")
        self._schema = schema
        self._label = Prf(derive_key(key, "index/label")).fixed(LABEL_LEN)
        # Per attribute, in schema order: the label input's ``name || 0x00`` prefix.
        self._keywords = tuple(
            (attribute, attribute.name.encode("ascii") + b"\x00")
            for attribute in schema.attributes
        )
        self._bucket_capacity = bucket_capacity
        self._rng = rng if rng is not None else SystemRng()

    @property
    def bucket_capacity(self) -> int:
        return self._bucket_capacity

    def label(self, attribute_name: str, value: object) -> bytes:
        """The opaque index label of one ``attribute = value`` keyword."""
        attribute, prefix = self._keywords[self._schema.position(attribute_name)]
        return self._label(prefix + ValueCodec.encode(attribute, value))

    def tuple_labels(self, row: RelationTuple | Mapping[str, object]) -> tuple[bytes, ...]:
        """All labels one tuple contributes postings to: one per attribute, in schema order.

        A plain mapping must name exactly the schema's attributes; one that
        misses an attribute (the tuple would be stored yet never found through
        it) or carries an unknown one raises :class:`IndexingError`.
        """
        if isinstance(row, RelationTuple):
            value_of = row.value
        else:
            if row.keys() != frozenset(self._schema.attribute_names):
                raise IndexingError(
                    f"row attributes {sorted(row)} are not the attributes of "
                    f"relation {self._schema.name!r}"
                )
            value_of = row.__getitem__
        return tuple(
            self._label(prefix + ValueCodec.encode(attribute, value_of(attribute.name)))
            for attribute, prefix in self._keywords
        )

    def query_labels(self, query: Query) -> tuple[bytes, ...]:
        """The trapdoor labels of a selection query's equality predicates.

        Raises :class:`~repro.relational.query.QueryError` for query shapes
        the index cannot serve; callers fall back to the scan path.
        """
        predicates = selection_predicates(query)
        return tuple(self.label(p.attribute, p.value) for p in predicates)

    def snapshot(
        self, relation: Relation, encrypted: EncryptedRelation
    ) -> IndexSnapshot:
        """Build the full index from a plaintext relation and its ciphertext.

        ``relation`` and ``encrypted`` must be positionally aligned (tuple i
        of the plaintext encrypts to ciphertext i), which is how
        ``encrypt_relation`` produces them.
        """
        if len(relation.tuples) != len(encrypted.encrypted_tuples):
            raise IndexingError(
                "plaintext relation and ciphertext relation have different sizes"
            )
        postings: dict[bytes, list[bytes]] = {}
        id_len = _TUPLE_ID_LEN
        for row, encrypted_tuple in zip(relation.tuples, encrypted.encrypted_tuples):
            id_len = len(encrypted_tuple.tuple_id)
            for label in self.tuple_labels(row):
                postings.setdefault(label, []).append(encrypted_tuple.tuple_id)
        entries: dict[bytes, tuple[tuple[bytes, ...], ...]] = {}
        labels = list(postings)
        self._rng.shuffle(labels)  # don't leak keyword insertion order
        for label in labels:
            entries[label] = self._bucketize(postings[label], id_len)
        return IndexSnapshot(bucket_capacity=self._bucket_capacity, entries=entries)

    def _bucketize(
        self, tuple_ids: list[bytes], id_len: int
    ) -> tuple[tuple[bytes, ...], ...]:
        """Chunk postings into capacity-sized buckets, padding the last."""
        capacity = self._bucket_capacity
        buckets = []
        for start in range(0, len(tuple_ids), capacity):
            chunk = list(tuple_ids[start : start + capacity])
            if len(chunk) < capacity:
                # Dummy ids are fresh random nonces of the real id length:
                # absent from the provider's store, they match no fetch and
                # are indistinguishable from live ids.
                chunk.extend(
                    self._rng.bytes(id_len) for _ in range(capacity - len(chunk))
                )
                self._rng.shuffle(chunk)
            buckets.append(tuple(chunk))
        return tuple(buckets)

    def insert_delta(
        self, row: RelationTuple | Mapping[str, object], tuple_id: bytes
    ) -> IndexDelta:
        """The posting additions generated by inserting one tuple."""
        return IndexDelta(
            additions=tuple((label, tuple_id) for label in self.tuple_labels(row))
        )

    def remove_delta(
        self, rows_with_ids: Iterable[tuple[RelationTuple | Mapping[str, object], bytes]]
    ) -> IndexDelta:
        """The posting removals generated by deleting the given tuples."""
        removals = []
        for row, tuple_id in rows_with_ids:
            for label in self.tuple_labels(row):
                removals.append((label, tuple_id))
        return IndexDelta(removals=tuple(removals))
