"""Server-side access methods: how a provider answers an exact select.

The provider's evaluate path is a strategy choice between two
:class:`AccessMethod` implementations:

* :class:`ScanAccess` -- the paper's baseline: run the relation's keyless
  evaluator over every stored ciphertext, O(data) work per query.
* :class:`IndexAccess` -- the client shipped an encrypted inverted index
  (``INDEX_PUT``, then the posting deltas each ``INSERT_TUPLES`` /
  ``DELETE_TUPLES`` carries): intersect the posting sets of the
  query's trapdoor labels and fetch the candidate ciphertexts from the
  store by public tuple id, O(result) work per query on the in-memory
  store.

:class:`RelationIndex` is the provider's in-memory view of one relation's
index.  It is *soft state*: losing it (restart, new shard, rebalance)
merely degrades that provider to the scan fallback embedded in every
``INDEX_LOOKUP`` -- it can never make an answer wrong, because the stored
relation stays the source of truth and candidate ids that the store does
not hold simply fetch nothing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable

from repro.core.dph import EvaluationResult
from repro.index.wire import IndexDelta, IndexLookupRequest, IndexSnapshot
from repro.obs import MetricsRegistry
from repro.outsourcing.storage import StorageBackend


class RelationIndex:
    """One relation's encrypted inverted index, as the provider holds it.

    Buckets arriving in a snapshot are kept *sealed* exactly as shipped
    (they already carry the client's padding).  Incremental additions
    accumulate per label in an open spill list that is sealed into a new
    bucket whenever it reaches capacity -- the bucket-cap overflow spill.
    Removals tombstone ids instead of rewriting sealed buckets, so sealed
    bucket counts never shrink (the provider cannot distinguish a removal
    of a real id from one of a dummy).
    """

    def __init__(self, bucket_capacity: int) -> None:
        if bucket_capacity < 1:
            raise ValueError("bucket capacity must be positive")
        self.bucket_capacity = bucket_capacity
        self._sealed: dict[bytes, list[tuple[bytes, ...]]] = {}
        self._spill: dict[bytes, list[bytes]] = {}
        self._members: dict[bytes, set[bytes]] = {}
        self._tombstones: dict[bytes, set[bytes]] = {}

    @classmethod
    def from_snapshot(cls, snapshot: IndexSnapshot) -> "RelationIndex":
        index = cls(snapshot.bucket_capacity)
        for label, buckets in snapshot.entries.items():
            index._sealed[label] = list(buckets)
            members = index._members.setdefault(label, set())
            for bucket in buckets:
                members.update(bucket)
        return index

    def apply_delta(self, delta: IndexDelta) -> None:
        """Apply posting additions/removals; idempotent under replay."""
        for label, tuple_id in delta.additions:
            tombstones = self._tombstones.get(label)
            if tombstones and tuple_id in tombstones:
                tombstones.discard(tuple_id)  # resurrection after delete
                continue
            members = self._members.setdefault(label, set())
            if tuple_id in members:
                continue  # replayed addition
            members.add(tuple_id)
            spill = self._spill.setdefault(label, [])
            spill.append(tuple_id)
            if len(spill) >= self.bucket_capacity:
                self._sealed.setdefault(label, []).append(tuple(spill))
                spill.clear()
        for label, tuple_id in delta.removals:
            if tuple_id in self._members.get(label, ()):  # ignore unknown postings
                self._tombstones.setdefault(label, set()).add(tuple_id)

    def candidates(self, labels: Iterable[bytes]) -> set[bytes]:
        """Intersection of the live posting sets of ``labels``.

        A label with no postings (never indexed, or emptied by deletes)
        makes the whole intersection empty.  The result may contain dummy
        padding ids and stale ids; both fetch nothing from the store.

        Tombstones are always members (:meth:`apply_delta` tombstones no
        other id), so a label without any is not copied: for one label the
        result may be the index's own set, which callers only read.
        """
        result: set[bytes] | None = None
        for label in labels:
            live = self._members.get(label, frozenset())
            tombstones = self._tombstones.get(label)
            if tombstones:
                live = live - tombstones
            result = live if result is None else result & live
            if not result:
                return set()
        return result if result is not None else set()

    def live_posting_count(self, label: bytes) -> int:
        """Live (non-tombstoned) posting slots of one label, dummies included."""
        return len(self._members.get(label, ())) - len(self._tombstones.get(label, ()))

    def sealed_bucket_count(self, label: bytes | None = None) -> int:
        if label is not None:
            return len(self._sealed.get(label, ()))
        return sum(len(buckets) for buckets in self._sealed.values())

    def spill_length(self, label: bytes) -> int:
        return len(self._spill.get(label, ()))

    def stats(self) -> dict[str, int]:
        return {
            "labels": len(self._members),
            "sealed_buckets": self.sealed_bucket_count(),
            "spilled_postings": sum(len(s) for s in self._spill.values()),
            "tombstones": sum(len(t) for t in self._tombstones.values()),
            "bucket_capacity": self.bucket_capacity,
        }


class AccessMethod(ABC):
    """A strategy for answering one exact select at the provider."""

    name: str

    @abstractmethod
    def can_serve(self, relation_name: str, request: IndexLookupRequest) -> bool:
        """Whether this method can answer the lookup for that relation."""

    @abstractmethod
    def search(self, relation_name: str, request: IndexLookupRequest) -> EvaluationResult:
        """Answer the lookup against the stored ciphertext relation."""


class ScanAccess(AccessMethod):
    """The baseline linear scan: evaluate the fallback query over all tuples.

    ``evaluate`` is the server's own scheme-checked query execution, so the
    scan path through an ``INDEX_LOOKUP`` is byte-for-byte the path a plain
    ``QUERY`` takes.
    """

    name = "scan"

    def __init__(
        self, evaluate: Callable[[str, object], EvaluationResult]
    ) -> None:
        self._evaluate = evaluate

    def can_serve(self, relation_name: str, request: IndexLookupRequest) -> bool:
        return request.fallback_query is not None

    def search(self, relation_name: str, request: IndexLookupRequest) -> EvaluationResult:
        return self._evaluate(relation_name, request.fallback_query)


class IndexAccess(AccessMethod):
    """Answer exact selects via the client-shipped encrypted inverted index.

    Holds one :class:`RelationIndex` per relation and fetches a lookup's
    candidates from the provider's store (``StorageBackend.fetch``), which
    is the one ``tuple_id -> ciphertext`` map: O(result) on the in-memory
    store, and always as current as the store itself.
    """

    name = "index"

    def __init__(
        self, storage: StorageBackend, metrics: MetricsRegistry | None = None
    ) -> None:
        self._storage = storage
        self._indexes: dict[str, RelationIndex] = {}
        # Registry-backed counters (thread-safe under the dispatch pool);
        # the old attribute names stay readable as properties below.
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._puts = self._metrics.counter("index_puts_total")
        self._deltas = self._metrics.counter("index_deltas_total")
        self._lookups = self._metrics.counter("index_lookups_total")

    @property
    def puts(self) -> int:
        """Snapshots installed so far."""
        return self._puts.value

    @property
    def deltas(self) -> int:
        """Posting deltas applied so far."""
        return self._deltas.value

    @property
    def lookups(self) -> int:
        """Lookups served from the index so far."""
        return self._lookups.value

    # -- index lifecycle ------------------------------------------------- #

    def put(self, relation_name: str, snapshot: IndexSnapshot) -> None:
        """Install (or replace) a relation's index from a full snapshot."""
        self._indexes[relation_name] = RelationIndex.from_snapshot(snapshot)
        self._puts.inc()

    def apply_delta(self, relation_name: str, delta: IndexDelta) -> bool:
        """Apply a posting delta; ``False`` when the relation has no index.

        A provider without the index (restarted, freshly added shard)
        acknowledges deltas as no-ops: the index is soft state and the
        next lookup simply scans.
        """
        index = self._indexes.get(relation_name)
        if index is None:
            return False
        index.apply_delta(delta)
        self._deltas.inc()
        return True

    def index_for(self, relation_name: str) -> RelationIndex | None:
        return self._indexes.get(relation_name)

    # -- serving --------------------------------------------------------- #

    def can_serve(self, relation_name: str, request: IndexLookupRequest) -> bool:
        return relation_name in self._indexes

    def search(self, relation_name: str, request: IndexLookupRequest) -> EvaluationResult:
        candidate_ids = self._indexes[relation_name].candidates(request.labels)
        fetched = self._storage.fetch(relation_name, candidate_ids)
        self._lookups.inc()
        return EvaluationResult(
            matching=fetched,
            examined=len(fetched),  # the O(result) headline stat
            token_evaluations=0,
        )

    # -- storage mutation hooks ------------------------------------------ #

    def note_store(self, relation_name: str) -> None:
        """A full relation (re)store invalidates its index."""
        self._indexes.pop(relation_name, None)

    def note_drop(self, relation_name: str) -> None:
        self._indexes.pop(relation_name, None)

    # -- reporting ------------------------------------------------------- #

    def stats(self) -> dict[str, object]:
        return {
            "indexed_relations": sorted(self._indexes),
            "puts": self.puts,
            "deltas": self.deltas,
            "lookups": self.lookups,
            "relations": {
                name: index.stats() for name, index in sorted(self._indexes.items())
            },
        }
