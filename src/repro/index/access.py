"""The provider's copy of one relation's encrypted inverted index.

:class:`RelationIndex` maps each opaque label to the set of tuple ids
posted under it: the postings of ``INDEX_PUT``, then the additions and
removals each ``INSERT_TUPLES`` / ``DELETE_TUPLES`` carries.
:meth:`~repro.outsourcing.server.OutsourcedDatabaseServer.index_lookup`
intersects the sets of a query's trapdoor labels and fetches those ids
from the store, O(result) work per query on the in-memory store.

The index is *soft state*: losing it (restart, new shard, rebalance)
merely degrades that provider to the scan fallback embedded in every
``INDEX_LOOKUP`` -- it can never make an answer wrong, because the stored
relation stays the source of truth and candidate ids that the store does
not hold simply fetch nothing.
"""

from __future__ import annotations

from typing import Iterable

from repro.index.wire import IndexDelta, Postings


class RelationIndex:
    """One relation's postings, as the provider holds them: label -> ids.

    Additions add and removals discard, so replaying a delta changes
    nothing, and a label whose last id goes is forgotten.
    """

    def __init__(self, postings: Postings = ()) -> None:
        self.postings: dict[bytes, set[bytes]] = {}
        self.apply_delta(IndexDelta(additions=postings))

    def apply_delta(self, delta: IndexDelta) -> None:
        postings = self.postings
        for label, tuple_id in delta.additions:
            ids = postings.get(label)
            if ids is None:
                postings[label] = {tuple_id}
            else:
                ids.add(tuple_id)
        for label, tuple_id in delta.removals:
            ids = postings.get(label)
            if ids is not None:
                ids.discard(tuple_id)
                if not ids:
                    del postings[label]

    def candidates(self, labels: Iterable[bytes]) -> set[bytes]:
        """Intersection of the posting sets of ``labels``.

        A label with no postings makes the whole intersection empty, and so
        does asking for no label.  The result may hold stale ids, which
        fetch nothing from the store.  For one label it is the index's own
        set, which callers only read.
        """
        result: set[bytes] | None = None
        for label in labels:
            ids = self.postings.get(label)
            if not ids:
                return set()
            result = ids if result is None else result & ids
        return result if result is not None else set()

    def stats(self) -> dict[str, int]:
        return {
            "labels": len(self.postings),
            "postings": sum(map(len, self.postings.values())),
        }
