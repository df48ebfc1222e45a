"""Deterministic consistent-hash ring over shard identifiers.

The cluster's placement function: every encrypted tuple is assigned to one
shard by hashing its *public* tuple id onto a ring of virtual nodes.  The
tuple id is a random nonce chosen at encryption time
(:class:`~repro.core.dph.EncryptedTuple`), so the coordinator's routing
decision is a function of values the provider already sees -- sharding adds
no new leakage beyond which provider stores which ciphertext, and even that
is a function of public randomness, not of any plaintext.

Properties the rest of :mod:`repro.cluster` relies on:

* **Deterministic** -- the ring is a pure function of the shard identifiers
  and the virtual-node count; two coordinators configured with the same
  shard list route identically, with no shared state.
* **Balanced** -- each shard owns many virtual points
  (:data:`DEFAULT_VIRTUAL_NODES` per shard), so 10k keys spread within a
  few percent of the fair share.
* **Stable** -- adding or removing one shard only reassigns the keys that
  move to/from that shard (roughly ``1/N`` of them); every other key keeps
  its shard, which is what makes :mod:`repro.cluster.rebalance` cheap.
* **Replica sets** -- :meth:`ConsistentHashRing.successors` extends
  :meth:`ConsistentHashRing.assign` to a deterministic list of R *distinct*
  shards per key (the ring-order successors), which is the placement rule
  for per-shard replication: every tuple is stored on all R successors, so
  any R-1 shard failures leave at least one copy reachable
  (:meth:`ConsistentHashRing.covers` is the exact feasibility check).
"""

from __future__ import annotations

import bisect
import hashlib
from collections import Counter
from typing import Iterable, Sequence

#: Virtual nodes per shard.  256 keeps the maximum deviation from the fair
#: share around ~10% for clusters up to 8 shards (tests/cluster/test_ring.py
#: pins the <=15% bound at 10k keys).
DEFAULT_VIRTUAL_NODES = 256


class RingError(Exception):
    """The ring cannot satisfy a placement request."""


def _hash_point(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:16], "big")


class ConsistentHashRing:
    """A consistent-hash ring mapping byte keys to shard identifiers."""

    def __init__(
        self,
        shard_ids: Iterable[str] = (),
        *,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
    ) -> None:
        if virtual_nodes < 1:
            raise RingError("a ring needs at least one virtual node per shard")
        self._virtual_nodes = virtual_nodes
        self._shard_ids: list[str] = []
        # Parallel sorted arrays: bisect over _points, index into _owners.
        self._points: list[int] = []
        self._owners: list[str] = []
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    @property
    def shard_ids(self) -> tuple[str, ...]:
        """The shards on the ring, in insertion order."""
        return tuple(self._shard_ids)

    @property
    def virtual_nodes(self) -> int:
        """Virtual nodes per shard."""
        return self._virtual_nodes

    def __len__(self) -> int:
        return len(self._shard_ids)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shard_ids

    def add_shard(self, shard_id: str) -> None:
        """Insert one shard's virtual nodes."""
        if not shard_id:
            raise RingError("shard ids must be non-empty strings")
        if shard_id in self._shard_ids:
            raise RingError(f"shard {shard_id!r} is already on the ring")
        self._shard_ids.append(shard_id)
        for point in self._shard_points(shard_id):
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, shard_id)

    def remove_shard(self, shard_id: str) -> None:
        """Remove one shard's virtual nodes."""
        if shard_id not in self._shard_ids:
            raise RingError(f"shard {shard_id!r} is not on the ring")
        self._shard_ids.remove(shard_id)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != shard_id
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    def _shard_points(self, shard_id: str) -> list[int]:
        label = shard_id.encode("utf-8")
        return [
            _hash_point(b"ring-node\x00" + label + b"\x00" + str(i).encode("ascii"))
            for i in range(self._virtual_nodes)
        ]

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #

    def assign(self, key: bytes) -> str:
        """The shard owning ``key`` (the first virtual node at or after it)."""
        return self.successors(key, 1)[0]

    def successors(self, key: bytes, count: int) -> tuple[str, ...]:
        """The ``count`` distinct shards holding the replicas of ``key``.

        Walks the ring clockwise from the key's position and collects the
        first ``count`` *distinct* shard owners, so
        ``successors(key, 1) == (assign(key),)`` and the list inherits the
        ring's stability: a membership change only touches the successor
        lists whose walk crosses the changed shard's virtual nodes.
        """
        if count < 1:
            raise RingError("a key needs at least one replica")
        if not self._points:
            raise RingError("the ring has no shards")
        if count > len(self._shard_ids):
            raise RingError(
                f"cannot place {count} replicas on {len(self._shard_ids)} shard(s)"
            )
        point = _hash_point(b"ring-key\x00" + key)
        index = bisect.bisect(self._points, point)
        return self._distinct_owners_from(index, count)

    def _distinct_owners_from(self, index: int, count: int) -> tuple[str, ...]:
        """First ``count`` distinct owners at or after virtual node ``index``."""
        total = len(self._points)
        owners: list[str] = []
        for step in range(total):
            owner = self._owners[(index + step) % total]
            if owner not in owners:
                owners.append(owner)
                if len(owners) == count:
                    break
        return tuple(owners)

    def covers(self, live_shard_ids: Iterable[str], count: int) -> bool:
        """Whether ``live_shard_ids`` reach >= 1 of every key's ``count`` replicas.

        The read-failover feasibility check: with replication factor
        ``count``, a scatter that only got answers from ``live_shard_ids``
        is still *complete* -- every tuple reachable at least once -- iff
        every ring segment's successor list intersects the live set.  Fewer
        than ``count`` dead shards always covers (successor lists hold
        ``count`` distinct shards); beyond that the segments are checked
        exactly.
        """
        live = set(live_shard_ids) & set(self._shard_ids)
        if not self._shard_ids:
            return False
        if len(live) == len(self._shard_ids):
            return True
        if not live:
            return False
        count = min(count, len(self._shard_ids))
        if len(self._shard_ids) - len(live) < count:
            return True
        return all(
            any(owner in live for owner in self._distinct_owners_from(index, count))
            for index in range(len(self._points))
        )

    def partition(self, keys: Iterable[bytes]) -> dict[str, list[bytes]]:
        """Group keys by owning shard (every shard present, even when empty)."""
        groups: dict[str, list[bytes]] = {shard_id: [] for shard_id in self._shard_ids}
        for key in keys:
            groups[self.assign(key)].append(key)
        return groups

    def distribution(self, keys: Sequence[bytes]) -> Counter:
        """How many of ``keys`` land on each shard."""
        counts = Counter({shard_id: 0 for shard_id in self._shard_ids})
        counts.update(self.assign(key) for key in keys)
        return counts
