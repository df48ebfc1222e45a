"""Fleets opened through the ``async`` key of a fleet manifest.

A manifest written when a fleet could scatter on an event loop may carry
``"async": true``.  The key still loads and has no effect: the fleet is
the one the same document without it opens, scattering in the caller's
thread over blocking shard connections.  Lives next to ``tests/conftest.py``
so cluster and cache tests share one spelling of such a document.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster import ClusterManifest, ShardRouter


def async_manifest(
    urls: Sequence[str], shard_ids: Sequence[str], replicas: int = 1
) -> ClusterManifest:
    """An old manifest document, ``"async": true`` included, loaded."""
    return ClusterManifest.from_json(
        {
            "version": 1,
            "replicas": replicas,
            "async": True,
            "shards": [
                {"shard_id": shard_id, "url": url}
                for shard_id, url in zip(shard_ids, urls)
            ],
        }
    )


def async_key_router(
    urls: Sequence[str], shard_ids: Sequence[str], replicas: int = 1, **options
) -> ShardRouter:
    """A router opened from :func:`async_manifest` (runtime ``options`` passed on)."""
    return ShardRouter.from_manifest(async_manifest(urls, shard_ids, replicas), **options)
