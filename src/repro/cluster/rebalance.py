"""Tuple migration when the shard fleet changes shape.

Consistent hashing guarantees that membership changes strand only a small
fraction of tuples on the wrong shards (roughly ``1/N`` on an add); this
module repairs exactly those.  The desired placement of a tuple is the set
of its R ring successors (:meth:`ConsistentHashRing.successors`, R = the
``replication`` factor, 1 when unreplicated).  For every relation the
rebalance snapshots the whole fleet, indexes the physical copies by public
tuple id, and then makes reality match the ring:

* a tuple missing from one of its R successors is **copied there first**
  (insert-first: a crash mid-migration degrades to a transient surplus
  copy -- deduplicated by every read path -- rather than data loss, and
  never drops below the replication factor);
* only after all copies of a relation are placed are the **stale copies
  deleted** from shards outside the successor set.

Re-running the rebalance converges: correctly placed tuples are never
touched, and a crash between the insert and delete phases just leaves
work the next run finishes.  This also makes the rebalance the repair
path for *under-replication* -- a tuple that lost a copy (a shard wiped
and re-added, a failed replicated insert that was retried) is re-copied
from any surviving holder.

The migration is not atomic with respect to concurrent writers; run it from
the coordinator while no other session mutates the affected relations (a
concurrent delete may land on a copy before it is placed, and the copy
then comes back).

Everything here drives the fleet's shards through the router's plan rows
(:meth:`ShardRouter.each_shard <repro.cluster.router.ShardRouter.each_shard>`:
``FETCH_RELATION`` / ``INSERT_TUPLES`` / ``DELETE_TUPLES`` envelopes, one
write per shard and relation, with no postings), so in-process shards and
``tcp://`` proxies migrate identically.  The fleet may
hold shards that are *not* on the ring (a leaving shard being drained): they
serve as copy sources and end up holding nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.cluster.executor import ClusterError
from repro.cluster.ring import ConsistentHashRing
from repro.outsourcing import protocol
from repro.outsourcing.protocol import MessageKind


@dataclass
class RebalanceReport:
    """What a migration did: scanned/copied/deleted counts by relation."""

    #: Physical tuple copies inspected across all shards and relations.
    scanned: int = 0
    #: Copies created on a missing successor shard.
    moved: int = 0
    #: Stale physical copies deleted from shards outside the successor set.
    removed: int = 0
    per_relation: dict[str, int] = field(default_factory=dict)
    #: ``(source, target) -> count`` of migrated tuple copies.
    per_edge: dict[tuple[str, str], int] = field(default_factory=dict)

    def record_move(self, relation: str, source: str, target: str) -> None:
        self.moved += 1
        self.per_relation[relation] = self.per_relation.get(relation, 0) + 1
        self.per_edge[(source, target)] = self.per_edge.get((source, target), 0) + 1

    def summary(self) -> str:
        """One-line human rendering (printed by the CLI)."""
        if not self.moved and not self.removed:
            return f"rebalance: {self.scanned} tuple(s) scanned, nothing to move"
        edges = ", ".join(
            f"{source}->{target}: {count}"
            for (source, target), count in sorted(self.per_edge.items())
        )
        trailer = f", {self.removed} stale cop(ies) removed" if self.removed else ""
        return (
            f"rebalance: moved {self.moved}/{self.scanned} tuple cop(ies) "
            f"({edges}){trailer}"
        )


def _index_copies(
    fleet, relation_name: str, report: RebalanceReport
) -> dict[bytes, tuple[Any, set[str]]]:
    """``tuple_id -> (encrypted_tuple, holder shard ids)`` for one relation.

    Snapshots every shard up front so freshly migrated copies are not
    re-scanned on their destination shard.
    """
    placement: dict[bytes, tuple[Any, set[str]]] = {}
    stored = fleet.each_shard(MessageKind.FETCH_RELATION, relation_name)
    for shard_id, result in stored.items():
        relation = result.matching
        report.scanned += len(relation)
        for encrypted_tuple in relation:
            entry = placement.get(encrypted_tuple.tuple_id)
            if entry is None:
                placement[encrypted_tuple.tuple_id] = (encrypted_tuple, {shard_id})
            else:
                entry[1].add(shard_id)
    return placement


def rebalance(
    fleet,
    ring: ConsistentHashRing,
    relation_names: Iterable[str],
    *,
    replication: int = 1,
) -> RebalanceReport:
    """Repair every tuple of the named relations onto its R ring successors.

    ``fleet`` is the :class:`~repro.cluster.router.ShardRouter` whose
    shards hold the copies.  Copies are created before any stale copy is
    deleted (per relation), so a crash at any point leaves every tuple with
    at least as many live copies as before the run.
    """
    unknown = [
        shard_id for shard_id in ring.shard_ids if shard_id not in fleet.shard_ids
    ]
    if unknown:
        raise ClusterError(
            f"the ring names shard(s) {unknown} that have no backend"
        )
    if replication < 1 or replication > len(ring):
        raise ClusterError(
            f"cannot place {replication} replicas on {len(ring)} ring shard(s)"
        )
    report = RebalanceReport()
    for name in relation_names:
        placement = _index_copies(fleet, name, report)
        pending_inserts: dict[str, list[Any]] = {}
        pending_deletes: dict[str, list[bytes]] = {}
        for tuple_id, (encrypted_tuple, holders) in placement.items():
            desired = set(ring.successors(tuple_id, replication))
            if holders == desired:
                continue
            kept = holders & desired
            source = sorted(kept)[0] if kept else sorted(holders)[0]
            for target in sorted(desired - holders):
                pending_inserts.setdefault(target, []).append(encrypted_tuple)
                report.record_move(name, source, target)
            for shard_id in sorted(holders - desired):
                pending_deletes.setdefault(shard_id, []).append(tuple_id)
        # Insert-first: a crash before the deletes leaves surplus copies, not a loss.
        for shard_id, tuples in sorted(pending_inserts.items()):
            body = protocol.encode_insert_tuples(b"", tuples)
            fleet.each_shard(MessageKind.INSERT_TUPLES, name, body, [shard_id])
        for shard_id, tuple_ids in pending_deletes.items():
            body = protocol.encode_delete_tuples(tuple_ids, b"")
            deleted = fleet.each_shard(MessageKind.DELETE_TUPLES, name, body, [shard_id])
            report.removed += len(deleted[shard_id])
    return report
