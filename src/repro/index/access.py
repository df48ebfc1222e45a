"""The provider's copy of one relation's encrypted inverted index.

:class:`RelationIndex` maps each opaque label to the tuple ids posted under
it: the postings of ``INDEX_PUT``, then the additions and removals each
``INSERT_TUPLES`` / ``DELETE_TUPLES`` carries.  The ids are the store's own
objects (the provider interns them against the stored or appended tuples),
in the order posted, which is store order.
:meth:`~repro.outsourcing.server.OutsourcedDatabaseServer.index_lookup`
intersects the ids of a query's trapdoor labels and fetches them from the
store by identity and in store order, O(result) work per query on the
in-memory store.  The index is soft state (see :mod:`repro.index`).
"""

from __future__ import annotations

from typing import Iterable

from repro.index.wire import IndexDelta, Postings


class RelationIndex:
    """One relation's postings, as the provider holds them: label -> ids,
    the keys of a dict in posting order.

    Additions add and removals discard, so replaying a delta changes
    nothing, and a label whose last id goes is forgotten.  ``stored`` maps
    an id to the store's own object for it; an id it lacks is kept as posted.
    """

    def __init__(self, postings: Postings = (), stored: dict | None = None) -> None:
        self.postings: dict[bytes, dict[bytes, None]] = {}
        self.apply_delta(IndexDelta(additions=postings), stored)

    def apply_delta(self, delta: IndexDelta, stored: dict | None = None) -> None:
        postings = self.postings
        own = (stored or {}).get
        for label, tuple_id in delta.additions:
            postings.setdefault(label, {})[own(tuple_id, tuple_id)] = None
        for label, tuple_id in delta.removals:
            ids = postings.get(label)
            if ids is not None:
                ids.pop(tuple_id, None)
                if not ids:
                    del postings[label]

    def candidates(self, labels: Iterable[bytes]) -> dict[bytes, None]:
        """The ids posted under every one of ``labels``, in posting order.

        A label with no postings makes the whole intersection empty, and so
        does asking for no label.  The result may hold stale ids, which
        fetch nothing from the store.  For one label it is the index's own
        dict, which callers only read; an intersection walks the smallest.
        """
        found = sorted((self.postings.get(label) or {} for label in labels), key=len)
        if len(found) < 2:
            return found[0] if found else {}
        return {i: None for i in found[0] if all(i in ids for ids in found[1:])}
