"""A thread-safe LRU + TTL result cache with write-set invalidation.

One :class:`ResultCache` backs both tiers of the hot-key cache (the
client session's and the coordinator's).  Entries are keyed on
``(relation, token)`` where *token* is opaque to the cache: the raw
request body on the coordinator tier, which therefore holds nothing the
provider has not already seen on the wire; the query's own
``(attribute, value)`` conjuncts on the client tier, which lives in the
key-holder's memory and may therefore hold plaintext -- there the value
is the provider's ciphertext answer plus the rows the session decrypted
from it (see ``repro.api.database._Answer``); the cache itself never
looks inside a value.  An entry may also be
*filed* under eviction tags: hashable values the owner chooses and the
cache only ever hashes and compares (the session uses the first conjunct
of the query; the keyless coordinator files under none).

Correctness model
-----------------

Writes race in-flight reads: a ``delete`` can land between a cache miss
and the provider's answer arriving, and blindly storing that answer
would resurrect the deleted tuple for every later hit.  The cache
therefore runs **generation-checked fills**: readers capture the
relation's :meth:`~ResultCache.generation` *before* the round trip and
hand it back to :meth:`~ResultCache.put`, which silently drops the fill
if any invalidation bumped the generation in between.  Every
invalidation bumps it, however few entries it evicts, so the fence is
relation-wide and as conservative as a wholesale drop.

What an invalidation *evicts* follows the write set.  The writer passes
the tags of everything it may have added or removed;
:meth:`~ResultCache.invalidate` drops the entries filed under one of
them **and every entry of the relation filed under no tag** (an answer
of unknown shape could be changed by any write), and without tags it
drops the whole relation.  That is exact as long as the owner keeps one
rule: *if a write can change an entry's answer, the write's tags include
one of the entry's tags*.  Tags meet by ``hash`` / ``==`` (``1``,
``1.0`` and ``True`` are one tag), the same equality the client's result
filter uses.  The work is O(tags + evicted entries) through a
per-relation, per-tag key index -- never a sweep of the cache -- so
every write path can afford to call it unconditionally, including
failed writes, where evicting what the write *might* have changed costs
a miss instead of a stale hit.

:meth:`~ResultCache.flush` bumps a global epoch covering relations the
cache has never even seen, which is what membership changes and
rebalances use: after shards move, no pre-flush fill may survive.

Observability
-------------

Counters (``cache_hits_total``, ``cache_misses_total``,
``cache_evictions_total``, ``cache_invalidations_total`` -- one per
invalidating call -- and ``cache_invalidated_entries_total`` -- the
entries those calls dropped, which tells precise from wholesale) and
gauges (``cache_entries``, ``cache_hit_ratio``; computed when read, so a
lookup pays for neither) are registered in the owning component's
:class:`~repro.obs.MetricsRegistry` labelled with the cache ``tier``, so
they ride the existing snapshot/merge/Prometheus plane and show up in
``repro stats``.  :meth:`~ResultCache.lookup` records a
``cache.lookup`` trace span with the outcome.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

from repro.obs import MetricsRegistry
from repro.obs import span as trace_span

#: Default entry budget: generous for hot-key traffic (the point of the
#: cache is that the hot set is small) while bounding worst-case memory.
DEFAULT_MAX_ENTRIES = 4096

#: Default TTL.  Generations catch every write the cache's owner sees;
#: the TTL bounds staleness from writers it cannot see (another session
#: writing through a different coordinator, a provider restored from a
#: backup).  ``ttl_s=None`` disables the bound for single-writer setups.
DEFAULT_TTL_S = 60.0


class CacheError(ValueError):
    """An invalid cache configuration."""


@dataclass(frozen=True)
class CacheConfig:
    """Knobs for one :class:`ResultCache` tier."""

    max_entries: int = DEFAULT_MAX_ENTRIES
    ttl_s: float | None = DEFAULT_TTL_S

    def validate(self) -> "CacheConfig":
        if not isinstance(self.max_entries, int) or isinstance(self.max_entries, bool):
            raise CacheError(
                f"cache max_entries must be an int, got {self.max_entries!r}"
            )
        if self.max_entries < 1:
            raise CacheError(
                f"cache max_entries must be >= 1, got {self.max_entries}"
            )
        if self.ttl_s is not None:
            if isinstance(self.ttl_s, bool) or not isinstance(self.ttl_s, (int, float)):
                raise CacheError(f"cache ttl_s must be a number, got {self.ttl_s!r}")
            if self.ttl_s <= 0:
                raise CacheError(f"cache ttl_s must be positive, got {self.ttl_s}")
        return self


def coerce_cache_config(value: Any) -> CacheConfig | None:
    """Normalize the public ``cache=`` option to a config (or None for off).

    Accepted forms: ``None`` / ``False`` (disabled), ``True`` (defaults),
    an ``int`` (entry budget), a ``CacheConfig``, or a dict of
    ``CacheConfig`` fields.  Anything else raises :class:`CacheError`.
    """
    if value is None or value is False:
        return None
    if value is True:
        return CacheConfig()
    if isinstance(value, CacheConfig):
        return value.validate()
    if isinstance(value, int):
        return CacheConfig(max_entries=value).validate()
    if isinstance(value, dict):
        unknown = set(value) - {"max_entries", "ttl_s"}
        if unknown:
            raise CacheError(
                f"unknown cache option(s) {sorted(unknown)} "
                "(supported: max_entries, ttl_s)"
            )
        return CacheConfig(**value).validate()
    raise CacheError(
        f"cache must be a bool, int, dict or CacheConfig, got {type(value).__name__}"
    )


#: The tag of the entries filed under no other: every write evicts them.
_UNTAGGED = object()


class _Entry:
    __slots__ = ("value", "expires_at", "tags")

    def __init__(self, value: Any, expires_at: float | None, tags: tuple) -> None:
        self.value = value
        self.expires_at = expires_at
        self.tags = tags


class ResultCache:
    """Thread-safe LRU + TTL cache with per-relation generations.

    ``metrics`` is the owner's registry (a private one is created when
    omitted, e.g. in unit tests); ``tier`` labels every instrument so the
    client and coordinator tiers stay distinguishable after fleet-wide
    snapshot merging.  ``clock`` is injectable for deterministic TTL
    tests and must be monotonic.
    """

    def __init__(
        self,
        config: CacheConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        tier: str = "client",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._config = (config or CacheConfig()).validate()
        self._clock = clock
        self._tier = tier
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple[str, Hashable], _Entry]" = OrderedDict()
        # relation -> tag -> keys of the live entries filed under it; a key
        # is listed exactly under its entry's ``tags`` (see ``_drop_locked``).
        self._index: dict[str, dict[Hashable, set]] = {}
        self._generations: dict[str, int] = {}
        self._epoch = 0
        registry = metrics if metrics is not None else MetricsRegistry()
        self._metrics = registry
        self._hits = registry.counter("cache_hits_total", tier=tier)
        self._misses = registry.counter("cache_misses_total", tier=tier)
        self._evictions = registry.counter("cache_evictions_total", tier=tier)
        self._invalidations = registry.counter("cache_invalidations_total", tier=tier)
        self._invalidated_entries = registry.counter(
            "cache_invalidated_entries_total", tier=tier
        )
        registry.gauge("cache_entries", tier=tier).set_function(
            lambda: len(self._entries)
        )
        registry.gauge("cache_hit_ratio", tier=tier).set_function(self._hit_ratio)

    @property
    def config(self) -> CacheConfig:
        return self._config

    @property
    def tier(self) -> str:
        return self._tier

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #

    def generation(self, relation: str) -> tuple[int, int]:
        """The fill token for ``relation``; capture *before* the round trip.

        Opaque to callers: hand it back to :meth:`put`, which drops the
        fill if any invalidation or flush happened in between.
        """
        with self._lock:
            return (self._epoch, self._generations.get(relation, 0))

    def lookup(self, relation: str, token: Hashable) -> Any | None:
        """:meth:`get` wrapped in a ``cache.lookup`` trace span."""
        with trace_span("cache.lookup", tier=self._tier, relation=relation) as entry:
            value = self.get(relation, token)
            entry.annotations["outcome"] = "miss" if value is None else "hit"
            return value

    def get(self, relation: str, token: Hashable) -> Any | None:
        """The cached value, or None on miss/expiry (which counts a miss)."""
        key = (relation, token)
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.expires_at is not None and now >= entry.expires_at:
                # TTL eviction happens lazily, on the access that finds the
                # entry dead -- no sweeper thread to manage.
                self._drop_locked(key)
                self._evictions.inc()
                entry = None
            if entry is None:
                self._misses.inc()
                return None
            self._entries.move_to_end(key)
            self._hits.inc()
            return entry.value

    def put(
        self,
        relation: str,
        token: Hashable,
        value: Any,
        generation: tuple[int, int],
        tags: Iterable[Hashable] = (),
    ) -> bool:
        """Fill one entry; returns False if the fill was stale and dropped.

        ``generation`` must come from :meth:`generation` *before* the
        provider round trip that produced ``value``: if a write
        invalidated the relation (or a flush bumped the epoch) while the
        read was in flight, the answer may predate the write and is
        discarded rather than cached.  ``tags`` files the entry for
        :meth:`invalidate`; with none, every write to the relation evicts it.
        """
        # Hashing every tag here means an unhashable one raises before
        # anything is mutated.
        filed_under = tuple(set(tags)) or (_UNTAGGED,)
        with self._lock:
            if generation != (self._epoch, self._generations.get(relation, 0)):
                return False
            expires_at = (
                None
                if self._config.ttl_s is None
                else self._clock() + self._config.ttl_s
            )
            key = (relation, token)
            self._drop_locked(key)  # a re-put is re-filed under the new tags
            self._entries[key] = _Entry(value, expires_at, filed_under)
            filed = self._index.setdefault(relation, {})
            for tag in filed_under:
                filed.setdefault(tag, set()).add(key)
            while len(self._entries) > self._config.max_entries:
                self._drop_locked(next(iter(self._entries)))
                self._evictions.inc()
            return True

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    def invalidate(
        self, relation: str, tags: Iterable[Hashable] | None = None
    ) -> None:
        """A write touched ``relation``: bump its generation, evict what it may change.

        ``tags`` is the write set (see the module docstring): entries
        filed under one of them go, and so do the relation's untagged
        entries.  ``None`` -- a write of unknown extent -- drops every
        entry of the relation.
        """
        with self._lock:
            self._generations[relation] = self._generations.get(relation, 0) + 1
            self._invalidations.inc()
            dropped = 0
            if tags is None:
                for keys in self._index.pop(relation, {}).values():
                    for key in keys:  # listed once per tag it is filed under
                        if self._entries.pop(key, None) is not None:
                            dropped += 1
            else:
                filed = self._index.get(relation, {})
                for tag in (*tags, _UNTAGGED):
                    # Dropping a key unfiles it everywhere, so a later tag
                    # never lists it again.
                    for key in tuple(filed.get(tag, ())):
                        self._drop_locked(key)
                        dropped += 1
            self._invalidated_entries.inc(dropped)

    def flush(self) -> None:
        """Drop everything and fence *all* in-flight fills (epoch bump).

        The conservative hammer for events that move data between shards
        (membership changes, rebalances): even a fill for a relation the
        cache has never seen is dropped if its read started pre-flush.
        """
        with self._lock:
            self._epoch += 1
            self._invalidations.inc()
            self._invalidated_entries.inc(len(self._entries))
            self._entries.clear()
            self._index.clear()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """A JSON-able summary (the ``cluster status`` / smoke-test surface)."""
        with self._lock:
            return {
                "tier": self._tier,
                "entries": len(self._entries),
                "max_entries": self._config.max_entries,
                "ttl_s": self._config.ttl_s,
                "hits": self._hits.value,
                "misses": self._misses.value,
                "evictions": self._evictions.value,
                "invalidations": self._invalidations.value,
                "invalidated_entries": self._invalidated_entries.value,
                "hit_ratio": self._hit_ratio(),
            }

    def _drop_locked(self, key: tuple[str, Hashable]) -> None:
        """Remove one entry (if present) and unfile its key from the index."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        filed = self._index[key[0]]
        for tag in entry.tags:
            keys = filed[tag]
            keys.remove(key)
            if not keys:
                del filed[tag]
        if not filed:
            del self._index[key[0]]

    def _hit_ratio(self) -> float:
        hits = self._hits.value
        lookups = hits + self._misses.value
        return (hits / lookups) if lookups else 0.0
