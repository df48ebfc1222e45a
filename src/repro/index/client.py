"""Client-side construction and maintenance of the encrypted inverted index.

:class:`TableIndexer` is the key-holding half of ``repro.index``: it turns
plaintext attribute values into PRF-derived labels (the same keyed-PRF
construction the secure-index SSE backend uses for its per-word labels)
and pairs each label with the public id of the tuple that holds the value.
The same ``(label, tuple_id)`` postings (:meth:`TableIndexer.snapshot`)
make up the ``INDEX_PUT`` shipped when a session attaches a stored table
and the :class:`~repro.index.wire.IndexDelta` of every insert and delete, a
new table's first rows included.

What the provider learns from the shipped postings:

* labels are PRF outputs under a per-table subkey -- unlinkable to the
  values they encode and to the labels of any other table;
* each label's posting set is the exact set of live tuple ids holding
  that value, so at rest, without any query, the provider learns every
  indexed attribute's equality pattern (which tuples share a value, and
  how many do) -- the leak the paper's Section 1 attacks exploit in
  bucketization and hashed indexes (ROADMAP item 3);
* a delta reveals that one tuple touched ``len(schema)`` labels -- the
  incremental-maintenance leakage documented in the README.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.core.dph import EncryptedTuple
from repro.crypto.kdf import derive_key
from repro.crypto.prf import Prf
from repro.index.wire import IndexDelta, IndexingError, Postings
from repro.relational.encoding import ValueCodec
from repro.relational.query import Query, selection_predicates
from repro.relational.relation import RelationTuple
from repro.relational.schema import RelationSchema

#: Label length in bytes -- matches the secure-index SSE construction.
LABEL_LEN = 32


class TableIndexer:
    """Build and maintain the encrypted inverted index of one table."""

    def __init__(self, schema: RelationSchema, key: bytes) -> None:
        self._schema = schema
        self._label = Prf(derive_key(key, "index/label")).fixed(LABEL_LEN)
        # Per attribute, in schema order: the label input's ``name || 0x00`` prefix.
        self._keywords = tuple(
            (attribute, attribute.name.encode("ascii") + b"\x00")
            for attribute in schema.attributes
        )

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
        self, rows: Sequence[RelationTuple], encrypted_tuples: Sequence[EncryptedTuple]
    ) -> Postings:
        """Every posting of ``rows``, each label paired with its row's tuple
        id; ``encrypted_tuples`` are the rows' ciphertexts, in row order."""
        if len(rows) != len(encrypted_tuples):
            raise IndexingError("plaintext rows and ciphertexts have different counts")
        labels_of = self.tuple_labels
        return tuple(
            (label, encrypted_tuple.tuple_id)
            for row, encrypted_tuple in zip(rows, encrypted_tuples)
            for label in labels_of(row)
        )

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
