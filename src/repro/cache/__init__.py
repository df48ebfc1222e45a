"""Hot-key read caching for the encrypted serving path.

Real multi-user traffic is skewed: a small set of hot query tokens
dominates the read stream.  This package holds the one result-cache
tier, which absorbs those repeats before they cost a provider round
trip.  It lives inside the session
(:class:`~repro.api.database.EncryptedDatabase`, ``cache=`` or a
``tcp://`` / ``cluster://`` URL's ``?cache=1``), beside the key, in the
one party that may see plaintext: it is keyed on the query's own
conjuncts and holds the ciphertext answer plus the rows decrypted from
it, so a hit costs no ``Eq``, no round trip and no ``D``.  A write of
the session evicts only the cached queries its rows can satisfy; a TTL
bounds how long another writer's change can go unseen.

:class:`ResultCache` is a thread-safe LRU with optional TTL and
per-relation invalidation generations (a put is dropped if a write
landed while its read was in flight).  Metrics
(``cache_hits_total`` / ``cache_misses_total`` /
``cache_evictions_total`` / ``cache_invalidations_total`` /
``cache_invalidated_entries_total`` counters and a ``cache_hit_ratio``
gauge, labelled ``tier="client"``) live in the session's
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
