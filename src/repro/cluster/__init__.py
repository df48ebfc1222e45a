"""``repro.cluster`` -- sharded multi-provider outsourcing.

The paper outsources one encrypted relation to one untrusted provider;
this subsystem spreads the same ciphertexts across a *fleet* of providers
and queries them all at once, which is what turns the reproduction into a
horizontally scalable service:

**Placement** (:mod:`repro.cluster.ring`)
    A deterministic consistent-hash ring keyed on the public random tuple
    id, so routing reveals nothing the providers do not already see and
    membership changes strand only ``~1/N`` of the tuples.  The ring also
    yields each key's deterministic *successor list* -- the R distinct
    shards holding its replicas.

**Execution** (:mod:`repro.cluster.executor`)
    Scatter-gather with per-shard timeouts, one outcome per shard, in the
    caller's thread: every ``tcp://`` shard's envelope is sent first,
    in-process shards are called inline (``shard_timeout`` does not bound
    them), then the remote answers are read in turn; a leg that times out
    closes its connection.  It is the only scatter; ``async=1`` on a
    ``cluster://`` URL is accepted and has no effect.

**Topology** (:mod:`repro.cluster.manifest`)
    A :class:`ClusterManifest` -- shard ids/addresses, replication factor
    and ring configuration -- is what every fleet address names:
    :meth:`ClusterManifest.from_url` reads ``cluster://h1:p1,...?replicas=R``
    and ``cluster+file://fleet.json`` (the JSON file ``repro cluster spawn
    --manifest`` writes) alike, and every router opened from an address is
    opened from its manifest.

**Routing** (:mod:`repro.cluster.router`)
    :class:`ShardRouter` -- one ``handle_message`` answering every
    envelope as one
    :class:`~repro.outsourcing.server.OutsourcedDatabaseServer` would, so
    ``EncryptedDatabase.connect("cluster://h1:p1,h2:p2?replicas=2")`` (or
    ``EncryptedDatabase.open(server=ShardRouter([...], replicas=2))``) works
    transparently: inserts go to all R replica shards (fail-fast), deletes
    fan out fleet-wide, queries scatter to all shards and the evaluation
    results merge client-side, deduplicated by tuple id.  A read that
    loses shards fails over to surviving replicas and stays *complete*
    whenever the ring coverage holds; past that it raises
    :class:`ShardFailedError`.  Every answer is the complete one or an
    error, never a partial one.

**Elasticity** (:mod:`repro.cluster.rebalance`)
    Insert-first, replica-aware tuple migration when shards are added or
    removed: every tuple converges onto exactly its R ring successors, a
    mid-migration crash duplicates rather than loses ciphertexts, and
    under-replicated tuples are re-copied from any surviving holder.

Security note: the coordinator runs client-side (trusted).  Each provider
in the fleet observes strictly less than the single-provider deployment --
its ``1/N`` of the ciphertexts plus every query's fan-out -- so the
paper's per-provider security analysis carries over unchanged.
"""

from repro.cluster.executor import (
    ClusterError,
    ShardFailedError,
    ShardOutcome,
    ShardTimeoutError,
    scatter,
)
from repro.cluster.manifest import (
    CLUSTER_FILE_URL_PREFIX,
    CLUSTER_URL_PREFIX,
    FLEET_URL_PREFIXES,
    ClusterManifest,
    ManifestError,
    ShardEntry,
)
from repro.cluster.rebalance import RebalanceReport, rebalance
from repro.cluster.ring import (
    ConsistentHashRing,
    DEFAULT_VIRTUAL_NODES,
    RingError,
)
from repro.cluster.router import ShardRouter, merge_evaluation_results

__all__ = [
    "ClusterError",
    "ShardFailedError",
    "ShardOutcome",
    "ShardTimeoutError",
    "scatter",
    "CLUSTER_FILE_URL_PREFIX",
    "CLUSTER_URL_PREFIX",
    "FLEET_URL_PREFIXES",
    "ClusterManifest",
    "ManifestError",
    "ShardEntry",
    "RebalanceReport",
    "rebalance",
    "ConsistentHashRing",
    "DEFAULT_VIRTUAL_NODES",
    "RingError",
    "ShardRouter",
    "merge_evaluation_results",
]
