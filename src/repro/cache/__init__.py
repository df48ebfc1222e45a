"""Hot-key read caching for the encrypted serving path.

Real multi-user traffic is skewed: a small set of hot query tokens
dominates the read stream.  This package adds a result-cache tier that
absorbs those repeats before they cost a provider round trip, at two
levels of the stack:

* a **client-side** cache inside
  :class:`~repro.api.database.EncryptedDatabase`, keyed on the query's
  own conjuncts and holding the ciphertext answer plus the rows decrypted
  from it (it lives beside the key, in the one party that sees
  plaintext); a write of the session evicts only the cached queries its
  rows can satisfy;
* a **coordinator-side** cache inside
  :class:`~repro.cluster.router.ShardRouter`, shared by every session
  routed through the coordinator, sitting in front of the scatter /
  INDEX_LOOKUP paths so a fleet of sessions absorbs repeated hot-key
  reads before any shard is touched.  Invalidation rides the existing
  write paths; membership changes and rebalances flush conservatively.

Both tiers are the same :class:`ResultCache`: a thread-safe LRU with
optional TTL, per-relation invalidation generations (a put is dropped if
a write landed while its read was in flight), and a global flush epoch.
Metrics (``cache_hits_total`` / ``cache_misses_total`` /
``cache_evictions_total`` / ``cache_invalidations_total`` /
``cache_invalidated_entries_total`` counters and a ``cache_hit_ratio``
gauge, labelled by tier) live in the owner's
:class:`~repro.obs.MetricsRegistry` so they flow through the existing
stats plane; lookups record ``cache.lookup`` trace spans.
"""

from repro.cache.result_cache import (
    CacheConfig,
    CacheError,
    ResultCache,
    coerce_cache_config,
)

__all__ = [
    "CacheConfig",
    "CacheError",
    "ResultCache",
    "coerce_cache_config",
]
