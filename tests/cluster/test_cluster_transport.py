"""``cluster://`` sessions over real sockets, and the facade's cluster knobs."""

from __future__ import annotations

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.net import ThreadedTcpServer
from repro.outsourcing import OutsourcedDatabaseServer
from repro.relational import Selection
from provider_calls import drop_relation

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(24)]


@pytest.fixture
def fleet():
    with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
        yield one, two


def _url(fleet) -> str:
    one, two = fleet
    return f"cluster://127.0.0.1:{one.port},127.0.0.1:{two.port}"


class TestClusterUrlSessions:
    def test_crud_round_trip_hits_both_shards(self, fleet, secret_key, rng):
        with EncryptedDatabase.connect(_url(fleet), secret_key, rng=rng) as db:
            db.create_table(EMP_DECL, rows=ROWS)
            counts = db.server.per_shard_tuple_counts("Emp")
            assert sum(counts.values()) == len(ROWS)
            assert all(count > 0 for count in counts.values())
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 12
            db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 1})
            assert db.delete(Selection.equals("dept", "IT"), table="Emp") == 12
            assert db.count("Emp") == 13
            db.drop_table("Emp")

    def test_mixed_fleet_of_sockets_and_objects(self, fleet, secret_key, rng):
        one, _ = fleet
        local = OutsourcedDatabaseServer()
        db = EncryptedDatabase.open(
            secret_key, shards=[f"tcp://127.0.0.1:{one.port}", local], rng=rng
        )
        try:
            db.create_table(EMP_DECL, rows=ROWS)
            assert db.count("Emp") == len(ROWS)
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'IT'").relation) == 12
            # the in-process backend really holds its share
            assert local.tuple_count("Emp") > 0
        finally:
            drop_relation(db.server, "Emp")
            db.close()

    def test_mid_session_shard_growth_over_sockets(self, fleet, secret_key, rng):
        one, two = fleet
        with EncryptedDatabase.connect(
            f"cluster://127.0.0.1:{one.port}", secret_key, rng=rng
        ) as db:
            db.create_table(EMP_DECL, rows=ROWS)
            report = db.server.add_shard(f"tcp://127.0.0.1:{two.port}")
            assert report.moved > 0
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 12
            db.drop_table("Emp")

    def test_unreachable_shard_fails_the_connect(self, fleet):
        one, _ = fleet
        with pytest.raises(DatabaseError, match="cannot connect"):
            EncryptedDatabase.connect(
                f"cluster://127.0.0.1:{one.port},127.0.0.1:1", timeout=2.0
            )


class TestFacadeKnobs:
    def test_policy_rejected_for_plain_tcp(self, fleet):
        one, _ = fleet
        with pytest.raises(DatabaseError, match="cluster:// URLs only"):
            EncryptedDatabase.connect(
                f"tcp://127.0.0.1:{one.port}", policy="degraded"
            )

    def test_policy_rejected_for_server_objects(self):
        with pytest.raises(DatabaseError, match="cluster:// URLs only"):
            EncryptedDatabase.connect(OutsourcedDatabaseServer(), policy="degraded")

    def test_shards_exclusive_with_server_and_storage(self, secret_key):
        from repro.outsourcing import InMemoryStorageBackend

        with pytest.raises(DatabaseError):
            EncryptedDatabase.open(
                secret_key,
                server=OutsourcedDatabaseServer(),
                shards=[OutsourcedDatabaseServer()],
            )
        with pytest.raises(DatabaseError):
            EncryptedDatabase.open(
                secret_key,
                storage=InMemoryStorageBackend(),
                shards=[OutsourcedDatabaseServer()],
            )

    def test_bad_cluster_url_is_a_database_error(self):
        with pytest.raises(DatabaseError):
            EncryptedDatabase.connect("cluster://")

    def test_degraded_policy_reaches_the_router(self, fleet, secret_key):
        with EncryptedDatabase.connect(
            _url(fleet), secret_key, policy="degraded", shard_timeout=30.0
        ) as db:
            assert db.server.policy == "degraded"

    def test_url_replicas_reach_the_router(self, fleet, secret_key):
        with EncryptedDatabase.connect(
            _url(fleet) + "?replicas=2", secret_key
        ) as db:
            assert db.server.replication == 2

    def test_replicas_rejected_for_plain_tcp(self, fleet):
        one, _ = fleet
        with pytest.raises(DatabaseError, match="cluster:// URLs only"):
            EncryptedDatabase.connect(f"tcp://127.0.0.1:{one.port}", replicas=2)


class TestReplicatedClusterOverSockets:
    def test_killing_one_provider_keeps_reads_complete(self, secret_key, rng):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            three = ThreadedTcpServer().start()
            url = (
                f"cluster://127.0.0.1:{one.port},127.0.0.1:{two.port},"
                f"127.0.0.1:{three.port}?replicas=2"
            )
            with EncryptedDatabase.connect(
                url, secret_key, rng=rng, timeout=10.0
            ) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 12
                three.stop()  # a provider dies mid-workload
                outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                assert len(outcome.relation) == 12  # complete, not partial
                assert db.count("Emp") == len(ROWS)
                stats = db.server.stats
                assert stats.as_dict()["failover_reads"] >= 1
                assert stats.as_dict()["degraded_reads"] == 0
