"""Encrypted inverted indexes on the serving path.

The paper's outsourcing model answers every exact select with an O(data)
linear scan: the provider applies the searchable scheme's evaluator to each
stored ciphertext.  This package puts a *client-maintained encrypted
inverted index* next to the data so the provider can answer the same
selects in O(result):

* :mod:`repro.index.wire` -- the ciphertext index objects that travel on
  the protocol: a snapshot of PRF-derived keyword labels mapping to capped,
  padded buckets of public tuple ids (the ``INDEX_PUT`` body), incremental
  posting deltas (riding in the ``INSERT_TUPLES`` / ``DELETE_TUPLES`` of
  the write they maintain), and the lookup request carrying trapdoor labels
  plus a scan-fallback query (the ``INDEX_LOOKUP`` body).
* :mod:`repro.index.client` -- :class:`TableIndexer`, the key-holding side:
  derives per-keyword labels with a keyed PRF (the same construction as
  the secure-index SSE backend), builds snapshots from plaintext rows and
  deltas from every insert/delete.
* :mod:`repro.index.access` -- the server side: pluggable
  :class:`AccessMethod` strategies.  :class:`ScanAccess` is today's
  evaluator scan (kept as the fallback); :class:`IndexAccess` holds the
  client-shipped index and answers lookups by bucket intersection plus
  fetch-by-id.

The index is *soft state*: the provider's stored relation remains the
source of truth, and a provider that lost (or never had) the index answers
the embedded fallback query with a scan -- degraded to O(data), never
wrong.  Conversely the index can only ever return a superset of stale
postings (ids the store no longer holds fetch nothing), so an indexed
lookup never misses a live tuple that was indexed.
"""

from repro.index.access import AccessMethod, IndexAccess, RelationIndex, ScanAccess
from repro.index.client import DEFAULT_BUCKET_CAPACITY, TableIndexer
from repro.index.wire import (
    IndexDelta,
    IndexLookupRequest,
    IndexSnapshot,
    IndexingError,
    decode_index_delta,
    decode_index_lookup,
    decode_index_snapshot,
    encode_index_delta,
    encode_index_lookup,
    encode_index_snapshot,
)

__all__ = [
    "AccessMethod",
    "IndexAccess",
    "RelationIndex",
    "ScanAccess",
    "DEFAULT_BUCKET_CAPACITY",
    "TableIndexer",
    "IndexDelta",
    "IndexLookupRequest",
    "IndexSnapshot",
    "IndexingError",
    "decode_index_delta",
    "decode_index_lookup",
    "decode_index_snapshot",
    "encode_index_delta",
    "encode_index_lookup",
    "encode_index_snapshot",
]
