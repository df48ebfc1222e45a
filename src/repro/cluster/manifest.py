"""Fleet manifests: the one description of a sharded deployment.

A :class:`ClusterManifest` is a fleet's topology -- the stable shard ids
keying the placement ring, each shard's current address, the replication
factor, the ring's virtual-node count -- and every fleet address resolves
to one through :meth:`ClusterManifest.from_url`:

* ``cluster://h1:p1,h2:p2?replicas=R`` names the shards inline; its shard
  ids are the normalised ``tcp://`` URLs, in URL order, on a ring of
  default virtual nodes.
* ``cluster+file://fleet.json`` loads the topology from a JSON document:

.. code-block:: json

    {
      "version": 1,
      "replicas": 2,
      "virtual_nodes": 256,
      "shards": [
        {"shard_id": "shard-0", "url": "tcp://127.0.0.1:7707"},
        {"shard_id": "shard-1", "url": "tcp://127.0.0.1:7708"}
      ]
    }

``repro cluster spawn --manifest fleet.json`` writes one next to the fleet
it starts, using the shard URLs as ids so that the file and the fleet's
``cluster://`` URL build the same ring.  Shard ids in a file are the ring's
key space: they survive address changes (repoint a shard's URL and its
data placement is untouched) and coordinator restarts.  A document written
before the fleet had one scatter may carry ``"async": true``; it loads,
and opens exactly the fleet the same document without the key opens.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass

from repro.cluster.executor import ClusterError
from repro.cluster.ring import DEFAULT_VIRTUAL_NODES, MAX_VIRTUAL_NODES
from repro.net.client import RemoteError, parse_tcp_url, parse_url_query

#: URL scheme naming a fleet's shards inline: ``cluster://host:port,...``
CLUSTER_URL_PREFIX = "cluster://"

#: URL scheme resolving a fleet through a manifest file on disk.
CLUSTER_FILE_URL_PREFIX = "cluster+file://"

#: Every address :meth:`ClusterManifest.from_url` reads.
FLEET_URL_PREFIXES = (CLUSTER_URL_PREFIX, CLUSTER_FILE_URL_PREFIX)

#: Manifest document version this module reads and writes.
MANIFEST_VERSION = 1


class ManifestError(ClusterError):
    """A fleet manifest could not be read, parsed or validated."""


@dataclass(frozen=True)
class ShardEntry:
    """One shard of the fleet: its stable ring id and current address."""

    shard_id: str
    url: str


@dataclass(frozen=True)
class ClusterManifest:
    """The persisted topology of one sharded deployment."""

    shards: tuple[ShardEntry, ...]
    replicas: int = 1
    virtual_nodes: int = DEFAULT_VIRTUAL_NODES

    def __post_init__(self) -> None:
        if not self.shards:
            raise ManifestError("a fleet manifest needs at least one shard")
        if self.replicas < 1:
            raise ManifestError("the replication factor must be at least 1")
        if self.replicas > len(self.shards):
            raise ManifestError(
                f"replication factor {self.replicas} needs at least that many "
                f"shards, got {len(self.shards)}"
            )
        if not 1 <= self.virtual_nodes <= MAX_VIRTUAL_NODES:
            raise ManifestError(
                f"virtual_nodes {self.virtual_nodes} not in 1..{MAX_VIRTUAL_NODES}")
        seen_ids: set[str] = set()
        seen_urls: set[str] = set()
        for entry in self.shards:
            if not entry.shard_id:
                raise ManifestError("shard ids must be non-empty")
            if entry.shard_id in seen_ids:
                raise ManifestError(f"duplicate shard id {entry.shard_id!r}")
            if entry.url in seen_urls:
                raise ManifestError(f"duplicate shard URL {entry.url!r}")
            seen_ids.add(entry.shard_id)
            seen_urls.add(entry.url)
            try:
                parse_tcp_url(entry.url)
            except RemoteError as exc:
                raise ManifestError(
                    f"shard {entry.shard_id!r}: {exc}"
                ) from exc

    @property
    def shard_ids(self) -> tuple[str, ...]:
        """The stable ring identifiers, in manifest order."""
        return tuple(entry.shard_id for entry in self.shards)

    @property
    def shard_urls(self) -> tuple[str, ...]:
        """The current ``tcp://`` addresses, in manifest order."""
        return tuple(entry.url for entry in self.shards)

    def cluster_url(self) -> str:
        """The equivalent ``cluster://`` URL (topology options included)."""
        hosts = ",".join(url[len("tcp://"):] for url in self.shard_urls)
        query = f"?replicas={self.replicas}" if self.replicas != 1 else ""
        return f"cluster://{hosts}{query}"

    def to_json(self) -> dict:
        """The manifest as its JSON document object."""
        return {
            "version": MANIFEST_VERSION,
            "replicas": self.replicas,
            "virtual_nodes": self.virtual_nodes,
            "shards": [
                {"shard_id": entry.shard_id, "url": entry.url}
                for entry in self.shards
            ],
        }

    @classmethod
    def from_json(cls, document: object) -> "ClusterManifest":
        """Build (and validate) a manifest from its JSON document object."""
        if not isinstance(document, dict):
            raise ManifestError("a fleet manifest is a JSON object")
        version = document.get("version")
        if version != MANIFEST_VERSION:
            raise ManifestError(
                f"unsupported manifest version {version!r} "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        raw_shards = document.get("shards")
        if not isinstance(raw_shards, list):
            raise ManifestError("the manifest's 'shards' field must be a list")
        shards = []
        for index, raw in enumerate(raw_shards):
            if not isinstance(raw, dict):
                raise ManifestError(f"shard entry #{index} is not an object")
            try:
                shards.append(
                    ShardEntry(shard_id=str(raw["shard_id"]), url=str(raw["url"]))
                )
            except KeyError as exc:
                raise ManifestError(
                    f"shard entry #{index} is missing its {exc.args[0]!r} field"
                ) from exc
        try:
            replicas = int(document.get("replicas", 1))
            virtual_nodes = int(document.get("virtual_nodes", DEFAULT_VIRTUAL_NODES))
        except (TypeError, ValueError, OverflowError) as exc:  # 1e400 is an infinity
            raise ManifestError(f"malformed manifest field: {exc}") from exc
        return cls(
            shards=tuple(shards),
            replicas=replicas,
            virtual_nodes=virtual_nodes,
        )

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the manifest atomically (tmp + rename); returns the path."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.to_json(), indent=2) + "\n"
        fd, tmp_name = tempfile.mkstemp(
            dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, target)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise ManifestError(f"cannot write manifest {target}: {exc}") from exc
        return target

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "ClusterManifest":
        """Read and validate a manifest file; any content that is not a
        valid manifest -- bytes that are not UTF-8, nesting deeper than the
        parser's recursion limit included -- is a :class:`ManifestError`."""
        source = pathlib.Path(path)
        try:
            raw = source.read_bytes()
        except (OSError, ValueError) as exc:  # a NUL byte in the path is a ValueError
            raise ManifestError(f"cannot read manifest {source}: {exc}") from exc
        try:
            document = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            raise ManifestError(f"manifest {source} is not valid JSON: {exc}") from exc
        return cls.from_json(document)

    @classmethod
    def from_url(cls, url: str) -> tuple["ClusterManifest", dict]:
        """The fleet a ``cluster://`` or ``cluster+file://`` address names,
        and the session options (``index``, ``cache``, ``async``) it carries.

        A ``cluster://`` URL's options are read strictly: an unknown or
        repeated key, a bad value, a duplicate shard or more replicas than
        shards is a :class:`~repro.cluster.executor.ClusterError`.  A
        ``cluster+file://PATH`` URL takes no options -- the file carries
        the topology, and a stray ``?async=1`` folded into the path would
        surface as a baffling "no such file" instead of the real mistake.
        """
        if url.startswith(CLUSTER_FILE_URL_PREFIX):
            path = url[len(CLUSTER_FILE_URL_PREFIX):]
            if "?" in path or "#" in path:
                raise ManifestError(
                    f"manifest URL {url!r} carries a query or fragment; "
                    "cluster+file:// URLs take no options (the manifest itself "
                    "carries the topology)"
                )
            if not path:
                raise ManifestError(f"manifest URL {url!r} names no file")
            return cls.load(path), {}
        if not url.startswith(CLUSTER_URL_PREFIX):
            raise ClusterError(
                f"unsupported fleet URL {url!r} (want {CLUSTER_URL_PREFIX}host:port,... "
                f"or {CLUSTER_FILE_URL_PREFIX}path/to/fleet.json)"
            )
        rest, _, query = url[len(CLUSTER_URL_PREFIX):].partition("?")
        try:
            options = parse_url_query(query, "cluster", integers=("replicas",))
        except RemoteError as exc:
            raise ClusterError(str(exc)) from exc
        urls = [
            part if part.startswith("tcp://") else f"tcp://{part}"
            for part in (piece.strip() for piece in rest.split(","))
            if part
        ]
        # The manifest's own checks refuse no shards, a shard named twice
        # and more replicas than shards.
        shards = tuple(ShardEntry(shard_id=shard_url, url=shard_url) for shard_url in urls)
        return cls(shards=shards, replicas=options.pop("replicas", 1)), options
