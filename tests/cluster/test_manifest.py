"""Fleet manifests: persistence, validation, and session restore."""

from __future__ import annotations

import json

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.cluster import (
    ClusterManifest,
    ManifestError,
    ShardEntry,
    ShardRouter,
)
from repro.net import ThreadedTcpServer
from repro.net.client import RemoteServerProxy

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(24)]


def manifest_for(*servers, **kwargs) -> ClusterManifest:
    return ClusterManifest(
        shards=tuple(
            ShardEntry(shard_id=f"shard-{index}", url=f"tcp://127.0.0.1:{server.port}")
            for index, server in enumerate(servers)
        ),
        **kwargs,
    )


class TestManifestDocument:
    def test_round_trips_through_disk(self, tmp_path):
        manifest = ClusterManifest(
            shards=(
                ShardEntry("a", "tcp://127.0.0.1:7707"),
                ShardEntry("b", "tcp://127.0.0.1:7708"),
            ),
            replicas=2,
            virtual_nodes=128,
        )
        path = manifest.save(tmp_path / "fleet.json")
        assert ClusterManifest.load(path) == manifest
        document = json.loads(path.read_text())
        assert document["version"] == 1
        assert document["replicas"] == 2
        assert "async" not in document

    def test_cluster_url_carries_the_topology_options(self):
        manifest = ClusterManifest(
            shards=(
                ShardEntry("a", "tcp://h1:1"),
                ShardEntry("b", "tcp://h2:2"),
            ),
            replicas=2,
        )
        assert manifest.cluster_url() == "cluster://h1:1,h2:2?replicas=2"
        plain = ClusterManifest(shards=(ShardEntry("a", "tcp://h1:1"),))
        assert plain.cluster_url() == "cluster://h1:1"

    def test_an_old_async_document_loads_and_is_written_back_without_it(self):
        old = {
            "version": 1,
            "replicas": 2,
            "async": True,
            "shards": [
                {"shard_id": "a", "url": "tcp://h1:1"},
                {"shard_id": "b", "url": "tcp://h2:2"},
            ],
        }
        manifest = ClusterManifest.from_json(old)
        assert manifest == ClusterManifest.from_json({**old, "async": False})
        assert "async" not in manifest.to_json()
        assert manifest.cluster_url() == "cluster://h1:1,h2:2?replicas=2"
        with pytest.raises(TypeError, match="async_transport"):
            ClusterManifest(shards=manifest.shards, async_transport=True)

    def test_validation_rejects_broken_topologies(self):
        entry = ShardEntry("a", "tcp://h:1")
        with pytest.raises(ManifestError, match="at least one shard"):
            ClusterManifest(shards=())
        with pytest.raises(ManifestError, match="replication factor"):
            ClusterManifest(shards=(entry,), replicas=2)
        with pytest.raises(ManifestError, match="duplicate shard id"):
            ClusterManifest(shards=(entry, ShardEntry("a", "tcp://h:2")))
        with pytest.raises(ManifestError, match="duplicate shard URL"):
            ClusterManifest(shards=(entry, ShardEntry("b", "tcp://h:1")))
        with pytest.raises(ManifestError, match="scheme"):
            ClusterManifest(shards=(ShardEntry("a", "http://h:1"),))

    def test_malformed_files_are_manifest_errors(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ManifestError, match="cannot read"):
            ClusterManifest.load(missing)
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            ClusterManifest.load(garbage)
        wrong_version = tmp_path / "future.json"
        wrong_version.write_text(json.dumps({"version": 99, "shards": []}))
        with pytest.raises(ManifestError, match="version"):
            ClusterManifest.load(wrong_version)

    def test_a_manifest_url_loads_its_file(self, tmp_path, monkeypatch):
        manifest = ClusterManifest(shards=(ShardEntry("a", "tcp://h:1"),), replicas=1)
        manifest.save(tmp_path / "fleet.json")
        assert ClusterManifest.from_url(f"cluster+file://{tmp_path}/fleet.json") == (
            manifest, {}
        )
        monkeypatch.chdir(tmp_path)
        assert ClusterManifest.from_url("cluster+file://fleet.json")[0] == manifest
        with pytest.raises(ManifestError, match="names no file"):
            ClusterManifest.from_url("cluster+file://")
        with pytest.raises(ManifestError, match="cannot read"):
            ClusterManifest.from_url(f"cluster+file://{tmp_path}/absent.json")


class TestManifestSessions:
    def test_router_from_manifest_restores_ring_ids(self):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            manifest = manifest_for(one, two, replicas=2)
            router = ShardRouter.from_manifest(manifest)
            try:
                assert router.shard_ids == ("shard-0", "shard-1")
                assert router.replication == 2
                assert all(
                    type(router.shard(i)) is RemoteServerProxy for i in router.shard_ids
                )
            finally:
                router.close()

    def test_cluster_file_session_round_trip(self, tmp_path, secret_key, rng):
        """A session stores through one coordinator, then a second
        coordinator restored purely from the manifest file reads it all
        back -- no re-supplied topology, placement intact."""
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            path = manifest_for(one, two).save(tmp_path / "fleet.json")
            with EncryptedDatabase.connect(
                f"cluster+file://{path}", secret_key, rng=rng
            ) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                assert db.count("Emp") == len(ROWS)
            # a fresh coordinator, topology from the file alone
            with EncryptedDatabase.connect(
                f"cluster+file://{path}", secret_key, rng=rng
            ) as db:
                db.attach_table(EMP_DECL)
                assert db.count("Emp") == len(ROWS)
                assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 12
                db.drop_table("Emp")

    def test_an_old_async_manifest_opens_the_blocking_fleet(self, tmp_path, secret_key):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            document = manifest_for(one, two).to_json()
            path = tmp_path / "fleet.json"
            path.write_text(json.dumps({**document, "async": True}))
            with EncryptedDatabase.connect(f"cluster+file://{path}", secret_key) as db:
                router = db.server
                assert router.shard_ids == ("shard-0", "shard-1")
                assert all(
                    type(router.shard(i)) is RemoteServerProxy for i in router.shard_ids
                )
                db.create_table(EMP_DECL, rows=ROWS)
                assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 12
                db.drop_table("Emp")

    def test_the_manifest_alone_sets_the_replication_factor(self, tmp_path, secret_key):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            path = manifest_for(one, two, replicas=2).save(tmp_path / "fleet.json")
            with EncryptedDatabase.connect(f"cluster+file://{path}", secret_key) as db:
                assert db.server.replication == 2
            with pytest.raises(TypeError, match="replicas"):
                EncryptedDatabase.connect(f"cluster+file://{path}", replicas=1)

    def test_missing_manifest_is_a_database_error(self, tmp_path):
        with pytest.raises(DatabaseError, match="cannot read"):
            EncryptedDatabase.connect(f"cluster+file://{tmp_path}/absent.json")