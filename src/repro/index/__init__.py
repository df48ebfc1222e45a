"""Encrypted inverted indexes on the serving path.

The paper's outsourcing model answers every exact select with an O(data)
linear scan: the provider applies the searchable scheme's evaluator to each
stored ciphertext.  This package puts a *client-maintained encrypted
inverted index* next to the data so the provider can answer the same
selects in O(result).  The index is its postings: ``(label, tuple_id)``
pairs, where a label is a PRF output of one ``attribute = value`` keyword
and the id is the public id of a tuple holding that value.

* :mod:`repro.index.wire` -- what travels on the protocol: every posting
  of a relation (the ``INDEX_PUT`` body), the posting deltas riding in the
  ``INSERT_TUPLES`` / ``DELETE_TUPLES`` of the write they maintain, and
  the lookup request carrying trapdoor labels plus a scan-fallback query
  (the ``INDEX_LOOKUP`` body).
* :mod:`repro.index.client` -- :class:`TableIndexer`, the key-holding side:
  derives per-keyword labels with a keyed PRF (the same construction as
  the secure-index SSE backend) and pairs them with tuple ids.
* :mod:`repro.index.access` -- :class:`RelationIndex`, the provider's
  ``label -> ids`` map, which ``OutsourcedDatabaseServer.index_lookup``
  intersects before fetching by id.

The provider learns each indexed attribute's equality pattern at rest
(see :mod:`repro.index.client`).  The index is *soft state*: the
provider's stored relation remains the source of truth, and a provider
that lost (or never had) the index answers the embedded fallback query
with a scan -- degraded to O(data), never wrong.  Conversely the index can
only ever return a superset of stale postings (ids the store no longer
holds fetch nothing), so an indexed lookup never misses a live tuple that
was indexed.
"""

from repro.index.access import RelationIndex
from repro.index.client import TableIndexer
from repro.index.wire import (
    IndexDelta,
    IndexLookupRequest,
    IndexingError,
    decode_index_delta,
    decode_index_lookup,
    decode_index_snapshot,
    encode_index_delta,
    encode_index_lookup,
    encode_index_snapshot,
)

__all__ = [
    "RelationIndex",
    "TableIndexer",
    "IndexDelta",
    "IndexLookupRequest",
    "IndexingError",
    "decode_index_delta",
    "decode_index_lookup",
    "decode_index_snapshot",
    "encode_index_delta",
    "encode_index_lookup",
    "encode_index_snapshot",
]
