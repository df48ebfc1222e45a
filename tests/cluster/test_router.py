"""ShardRouter: CRUD routing, merging, partial failure, duck-type fidelity."""

from __future__ import annotations

import pytest

import threading

from repro.api import DatabaseError, EncryptedDatabase
from repro.cluster import (
    ClusterError,
    ClusterStats,
    DEGRADED,
    ShardRouter,
    parse_cluster_options,
    parse_cluster_url,
)
from repro.index import IndexDelta
from repro.outsourcing import OutsourcedDatabaseServer, ServerError
from repro.relational import Selection
from provider_calls import (
    delete_tuples,
    execute_query,
    insert_tuples,
    relation_names,
    stored_relation,
    tuple_count,
)

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(30)]


class FlakyServer(OutsourcedDatabaseServer):
    """A shard that can be switched off to exercise partial-failure paths.

    Overriding ``handle_message`` alone makes it "down": every data
    operation the router performs reaches a shard as an envelope.
    """

    def __init__(self):
        super().__init__()
        self.down = False

    def _check(self):
        if self.down:
            raise ConnectionError("shard is down")

    def handle_message(self, raw: bytes) -> bytes:
        self._check()
        return super().handle_message(raw)


@pytest.fixture
def backends():
    return [OutsourcedDatabaseServer() for _ in range(3)]


@pytest.fixture
def db(backends, secret_key, rng):
    session = EncryptedDatabase.open(secret_key, shards=backends, rng=rng)
    session.create_table(EMP_DECL, rows=ROWS)
    return session


class TestRouting:
    def test_tuples_spread_across_every_shard(self, db):
        counts = db.server.per_shard_tuple_counts("Emp")
        assert set(counts) == {"shard-0", "shard-1", "shard-2"}
        assert sum(counts.values()) == len(ROWS)
        assert all(count > 0 for count in counts.values())

    def test_merged_select_finds_matches_on_every_shard(self, db):
        outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        assert len(outcome.relation) == 15

    def test_insert_lands_on_the_ring_assigned_shard(self, db):
        db.insert("Emp", {"name": "Zoe", "dept": "NEW", "salary": 1})
        assert len(db.select(Selection.equals("dept", "NEW"), table="Emp").relation) == 1
        # every physically stored tuple sits exactly where the ring says
        router = db.server
        for shard_id in router.shard_ids:
            for t in router.shard(shard_id).stored_relation("Emp"):
                assert router.shard_for(t.tuple_id) == shard_id

    def test_delete_spans_shards_and_counts_truthfully(self, db):
        deleted = db.delete("SELECT * FROM Emp WHERE dept = 'HR'")
        assert deleted == 15
        assert db.count("Emp") == 15
        assert len(db.select(Selection.equals("dept", "HR"), table="Emp").relation) == 0

    def test_update_keeps_placement_consistent(self, db):
        updated = db.update(Selection.equals("name", "emp3"), {"salary": 9}, table="Emp")
        assert updated == 1
        router = db.server
        for shard_id in router.shard_ids:
            for t in router.shard(shard_id).stored_relation("Emp"):
                assert router.shard_for(t.tuple_id) == shard_id

    def test_batch_queries_merge_element_wise(self, db):
        outcomes = db.select_many(
            [Selection.equals("dept", "HR"), Selection.equals("dept", "IT")],
            table="Emp",
        )
        assert [len(o.relation) for o in outcomes] == [15, 15]

    def test_stored_relation_reassembles_the_fleet(self, db):
        assert len(stored_relation(db.server, "Emp")) == len(ROWS)
        assert len(db.retrieve_all("Emp")) == len(ROWS)

    def test_drop_removes_the_relation_everywhere(self, db, backends):
        db.drop_table("Emp")
        for backend in backends:
            assert backend.relation_names == ()


class TestDuckType:
    def test_relation_names_unions_shards(self, db):
        assert relation_names(db.server) == ("Emp",)

    def test_unknown_relation_errors_like_a_server(self, db):
        with pytest.raises(DatabaseError):
            db.count("Nope")


class TestPartialFailure:
    def _cluster(self, policy):
        shards = [FlakyServer(), FlakyServer(), FlakyServer()]
        router = ShardRouter(shards, policy=policy)
        db = EncryptedDatabase.open(server=router)
        db.create_table(EMP_DECL, rows=ROWS)
        return db, router, shards

    def test_fail_fast_read_surfaces_the_failure(self):
        db, router, shards = self._cluster("fail_fast")
        shards[1].down = True
        with pytest.raises(DatabaseError, match="shard is down"):
            db.select("SELECT * FROM Emp WHERE dept = 'HR'")

    def test_degraded_read_serves_the_survivors(self):
        db, router, shards = self._cluster(DEGRADED)
        full = len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation)
        assert full == 15
        handle = db.table("Emp")
        hr_on_lost_shard = sum(
            1
            for t in shards[1].stored_relation("Emp")
            if handle.scheme.decrypt_tuple(t)["dept"] == "HR"
        )
        assert hr_on_lost_shard > 0  # the outage actually hides matches
        shards[1].down = True
        partial = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        assert len(partial.relation) == full - hr_on_lost_shard
        assert router.stats.as_dict()["degraded_reads"] >= 1
        assert router.stats.last_missing_shard_ids == ("shard-1",)

    def test_degraded_with_every_shard_down_still_fails(self):
        db, router, shards = self._cluster(DEGRADED)
        for shard in shards:
            shard.down = True
        with pytest.raises(DatabaseError):
            db.select("SELECT * FROM Emp WHERE dept = 'HR'")

    def test_writes_are_always_fail_fast(self):
        db, router, shards = self._cluster(DEGRADED)
        # ids physically owned by shard-2, captured before the outage
        lost_ids = [t.tuple_id for t in shards[2].stored_relation("Emp")]
        assert lost_ids
        shards[2].down = True
        with pytest.raises(ServerError, match="shard is down"):
            delete_tuples(router, "Emp", lost_ids)
        # a degraded *read* of the same table still works meanwhile
        assert db.select("SELECT * FROM Emp WHERE dept = 'IT'").relation is not None

    def test_insert_to_a_down_shard_fails_loudly(self):
        db, router, shards = self._cluster(DEGRADED)
        for shard in shards:
            shard.down = True
        with pytest.raises(DatabaseError):
            db.insert("Emp", {"name": "X", "dept": "HR", "salary": 1})


def _copy_holders(router, name):
    """``tuple_id -> holder shard ids`` from the physical per-shard stores."""
    holders = {}
    for shard_id in router.shard_ids:
        for t in router.shard(shard_id).stored_relation(name):
            holders.setdefault(t.tuple_id, set()).add(shard_id)
    return holders


def _assert_fully_replicated(router, name):
    """Every tuple is stored on exactly its R ring successors."""
    holders = _copy_holders(router, name)
    assert holders, "relation is empty"
    for tuple_id, shard_ids in holders.items():
        assert shard_ids == set(router.replica_shards(tuple_id))


class TestReplication:
    def _cluster(self, shard_count=3, replicas=2, policy="fail_fast"):
        shards = [FlakyServer() for _ in range(shard_count)]
        router = ShardRouter(shards, replicas=replicas, policy=policy)
        db = EncryptedDatabase.open(server=router)
        db.create_table(EMP_DECL, rows=ROWS)
        return db, router, shards

    def test_store_places_every_tuple_on_its_replica_set(self):
        db, router, _ = self._cluster()
        assert router.replication == 2
        _assert_fully_replicated(router, "Emp")
        # physical copies are 2x the logical relation
        physical = sum(router.per_shard_tuple_counts("Emp").values())
        assert physical == 2 * len(ROWS)

    def test_insert_writes_all_replicas(self):
        db, router, _ = self._cluster()
        db.insert("Emp", {"name": "Zoe", "dept": "NEW", "salary": 1})
        _assert_fully_replicated(router, "Emp")
        assert len(db.select(Selection.equals("dept", "NEW"), table="Emp").relation) == 1

    def test_queries_are_duplicate_free_with_all_shards_up(self):
        db, router, _ = self._cluster()
        outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        assert len(outcome.relation) == 15  # 2 physical copies each, answered once
        assert db.count("Emp") == len(ROWS)
        assert len(stored_relation(db.server, "Emp")) == len(ROWS)

    def test_reads_fail_over_when_one_replica_is_down(self):
        db, router, shards = self._cluster()  # fail_fast policy!
        shards[1].down = True
        outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        assert len(outcome.relation) == 15  # complete, not degraded
        assert router.stats.as_dict()["failover_reads"] >= 1
        assert router.stats.as_dict()["degraded_reads"] == 0
        assert router.stats.last_failover_shard_ids == ("shard-1",)

    def test_batch_reads_fail_over_too(self):
        db, router, shards = self._cluster()
        shards[2].down = True
        outcomes = db.select_many(
            [Selection.equals("dept", "HR"), Selection.equals("dept", "IT")],
            table="Emp",
        )
        assert [len(o.relation) for o in outcomes] == [15, 15]
        assert router.stats.as_dict()["degraded_reads"] == 0

    def test_stored_relation_and_count_survive_one_dead_shard(self):
        db, router, shards = self._cluster()
        shards[0].down = True
        assert len(stored_relation(router, "Emp")) == len(ROWS)
        assert tuple_count(router, "Emp") == len(ROWS)
        assert len(db.retrieve_all("Emp")) == len(ROWS)

    def test_too_many_failures_surface_the_right_shards(self):
        db, router, shards = self._cluster()
        shards[0].down = True
        shards[1].down = True  # 2 dead >= R=2: coverage is broken
        query = db.table("Emp").scheme.encrypt_query(Selection.equals("dept", "HR"))
        with pytest.raises(ServerError, match="failed on 2/3 shard") as excinfo:
            execute_query(router, "Emp", query)
        message = str(excinfo.value)
        assert "shard-0: shard is down" in message
        assert "shard-1: shard is down" in message and "shard-2" not in message

    def test_replicated_writes_fail_fast_when_a_replica_is_down(self):
        db, router, shards = self._cluster()
        handle = db.table("Emp")
        encrypted = handle.scheme.encrypt_tuple(
            db._make_tuple(handle.schema, {"name": "X", "dept": "HR", "salary": 1})
        )
        victim = router.replica_shards(encrypted.tuple_id)[1]
        router.shard(victim).down = True
        with pytest.raises(ServerError, match="shard is down"):
            insert_tuples(router, "Emp", [encrypted])
        router.shard(victim).down = False
        insert_tuples(router, "Emp", [encrypted])
        _assert_fully_replicated(router, "Emp")

    def test_deletes_fail_fast_and_count_logically(self):
        db, router, shards = self._cluster()
        deleted = db.delete("SELECT * FROM Emp WHERE dept = 'HR'")
        assert deleted == 15  # logical, not 30 physical copies
        assert db.count("Emp") == 15
        shards[2].down = True
        with pytest.raises(DatabaseError):
            db.delete("SELECT * FROM Emp WHERE dept = 'IT'")

    def test_update_keeps_full_replication(self):
        db, router, _ = self._cluster()
        assert db.update(Selection.equals("name", "emp3"), {"salary": 9}, table="Emp") == 1
        _assert_fully_replicated(router, "Emp")
        assert db.count("Emp") == len(ROWS)

    def test_remove_shard_restores_the_replication_factor(self):
        db, router, _ = self._cluster(shard_count=3, replicas=2)
        report = router.remove_shard("shard-1")
        assert report.moved > 0
        assert router.shard_ids == ("shard-0", "shard-2")
        _assert_fully_replicated(router, "Emp")
        assert db.count("Emp") == len(ROWS)
        assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 15

    def test_add_shard_rebalances_replica_sets(self):
        db, router, _ = self._cluster(shard_count=3, replicas=2)
        report = router.add_shard(FlakyServer())
        assert report is not None
        _assert_fully_replicated(router, "Emp")
        assert router.rebalance().moved == 0  # converged
        assert db.count("Emp") == len(ROWS)

    def test_removal_below_the_replication_factor_is_refused(self):
        db, router, _ = self._cluster(shard_count=2, replicas=2)
        with pytest.raises(ClusterError, match="replication factor"):
            router.remove_shard("shard-0")

    def test_full_failover_round_trip_after_losing_a_shard(self):
        # the acceptance scenario: 3 shards, replicas=2, one dies mid-workload
        db, router, shards = self._cluster(shard_count=3, replicas=2)
        before = len(db.select("SELECT * FROM Emp WHERE dept = 'IT'").relation)
        shards[0].down = True
        after = db.select("SELECT * FROM Emp WHERE dept = 'IT'")
        assert len(after.relation) == before == 15
        assert router.stats.as_dict()["degraded_reads"] == 0
        assert router.stats.as_dict()["failover_reads"] >= 1


class TestDuplicateSafety:
    """Crash-left duplicates must never change query multiplicities."""

    def _duplicated_cluster(self, secret_key, rng):
        backends = [OutsourcedDatabaseServer() for _ in range(2)]
        db = EncryptedDatabase.open(secret_key, shards=backends, rng=rng)
        db.create_table(EMP_DECL, rows=ROWS)
        router = db.server
        # simulate the rebalancer crashing mid-migration: the insert at the
        # new owner happened, the delete at the old owner did not
        victim = router.shard("shard-0").stored_relation("Emp").encrypted_tuples[0]
        other = "shard-1" if router.shard_for(victim.tuple_id) == "shard-0" else "shard-0"
        router.shard(other).insert_tuples("Emp", [victim], IndexDelta())
        return db, router, victim

    def test_query_returns_exactly_one_copy(self, secret_key, rng):
        db, router, victim = self._duplicated_cluster(secret_key, rng)
        plaintext = db.table("Emp").scheme.decrypt_tuple(victim)
        outcome = db.select(Selection.equals("name", plaintext["name"]), table="Emp")
        assert len(outcome.relation) == 1

    def test_counts_do_not_inflate(self, secret_key, rng):
        db, router, _ = self._duplicated_cluster(secret_key, rng)
        physical = sum(router.per_shard_tuple_counts("Emp").values())
        assert physical == len(ROWS) + 1  # the duplicate is really there
        assert db.count("Emp") == len(ROWS)  # ...and counted once
        assert len(stored_relation(router, "Emp")) == len(ROWS)
        assert len(db.retrieve_all("Emp")) == len(ROWS)

    def test_delete_kills_every_copy_and_counts_once(self, secret_key, rng):
        db, router, victim = self._duplicated_cluster(secret_key, rng)
        plaintext = db.table("Emp").scheme.decrypt_tuple(victim)
        deleted = db.delete(Selection.equals("name", plaintext["name"]), table="Emp")
        assert deleted == 1
        assert sum(router.per_shard_tuple_counts("Emp").values()) == len(ROWS) - 1
        assert db.count("Emp") == len(ROWS) - 1


class TestStatsThreadSafety:
    def test_concurrent_mutations_are_not_lost(self):
        stats = ClusterStats()
        rounds = 500
        snapshots: list[dict] = []

        def hammer(shard_id: str):
            for _ in range(rounds):
                stats.record_scatter_read()
                stats.record_routed_insert()
                stats.record_degraded_read((shard_id,))
                stats.record_failover_read((shard_id,))
                snapshots.append(stats.as_dict())

        threads = [
            threading.Thread(target=hammer, args=(f"s{i}",)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert stats.as_dict()["scatter_reads"] == 8 * rounds
        assert stats.as_dict()["routed_inserts"] == 8 * rounds
        assert stats.as_dict()["degraded_reads"] == 8 * rounds
        assert stats.as_dict()["failover_reads"] == 8 * rounds
        for snapshot in snapshots:  # every snapshot is internally consistent
            assert snapshot["degraded_reads"] <= snapshot["scatter_reads"] * 2
            assert tuple(snapshot["last_missing_shard_ids"]) != ()


class TestConstruction:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ClusterError):
            ShardRouter([])

    def test_shard_id_count_must_match(self):
        with pytest.raises(ClusterError):
            ShardRouter([OutsourcedDatabaseServer()], shard_ids=["a", "b"])

    def test_duplicate_shard_ids_rejected(self):
        with pytest.raises(ClusterError):
            ShardRouter(
                [OutsourcedDatabaseServer(), OutsourcedDatabaseServer()],
                shard_ids=["a", "a"],
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ClusterError):
            ShardRouter([OutsourcedDatabaseServer()], policy="hope")

    def test_parse_cluster_url(self):
        assert parse_cluster_url("cluster://h1:1,h2:2") == (
            "tcp://h1:1", "tcp://h2:2"
        )
        with pytest.raises(ClusterError):
            parse_cluster_url("tcp://h1:1")
        with pytest.raises(ClusterError):
            parse_cluster_url("cluster://")
        with pytest.raises(ClusterError):
            parse_cluster_url("cluster://h1:1,h1:1")
        with pytest.raises(ClusterError):
            parse_cluster_url("cluster://h1:notaport")

    def test_parse_cluster_options(self):
        urls, options = parse_cluster_options("cluster://h1:1,h2:2?replicas=2")
        assert urls == ("tcp://h1:1", "tcp://h2:2")
        assert options == {"replicas": 2}
        assert parse_cluster_options("cluster://h1:1")[1] == {}
        assert parse_cluster_options("cluster://h1:1?cache=1")[1] == {"cache": True}
        with pytest.raises(ClusterError, match="unknown cluster URL option"):
            parse_cluster_options("cluster://h1:1?quorum=2")
        with pytest.raises(ClusterError, match="integer"):
            parse_cluster_options("cluster://h1:1?replicas=two")

    def test_option_typos_rejected_with_supported_list(self):
        # A silently dropped ?asnyc=1 would quietly run the session on the
        # wrong transport -- the error must name the typo and the options.
        with pytest.raises(
            ClusterError,
            match=r"unknown cluster URL option 'asnyc' "
            r"\(supported: replicas, async, index, cache\)",
        ):
            parse_cluster_options("cluster://h1:1?asnyc=1")
        from repro.net.client import RemoteError, parse_tcp_options

        with pytest.raises(
            RemoteError,
            match=r"unknown provider URL option 'asnyc' "
            r"\(supported: async, index, cache\)",
        ):
            parse_tcp_options("tcp://h1:1?asnyc=1")

    def test_connect_surfaces_url_typos_as_database_errors(self):
        with pytest.raises(DatabaseError, match="unknown provider URL option"):
            EncryptedDatabase.connect("tcp://h1:1?asnyc=1")
        with pytest.raises(DatabaseError, match="unknown cluster URL option"):
            EncryptedDatabase.connect("cluster://h1:1?asnyc=1")
        with pytest.raises(DatabaseError, match="takes? no options"):
            EncryptedDatabase.connect("cluster+file:///fleet.json?cache=1")

    def test_manifest_url_rejects_query_and_fragment(self):
        from repro.cluster.manifest import ManifestError, parse_cluster_file_url

        assert str(parse_cluster_file_url("cluster+file:///a/fleet.json")).endswith(
            "fleet.json"
        )
        with pytest.raises(ManifestError, match="query or fragment"):
            parse_cluster_file_url("cluster+file:///a/fleet.json?async=1")
        with pytest.raises(ManifestError, match="query or fragment"):
            parse_cluster_file_url("cluster+file:///a/fleet.json#frag")

    def test_replication_factor_validation(self):
        with pytest.raises(ClusterError, match="replication factor"):
            ShardRouter([OutsourcedDatabaseServer()], replicas=0)
        with pytest.raises(ClusterError, match="needs at least"):
            ShardRouter(
                [OutsourcedDatabaseServer(), OutsourcedDatabaseServer()], replicas=3
            )
        with pytest.raises(ClusterError, match="conflicting replication"):
            ShardRouter.connect("cluster://h1:1,h2:2?replicas=2", replicas=1)

    def test_session_replicas_requires_shards(self, secret_key):
        with pytest.raises(DatabaseError, match="sharded sessions only"):
            EncryptedDatabase.open(secret_key, replicas=2)
        db = EncryptedDatabase.open(
            secret_key,
            shards=[OutsourcedDatabaseServer(), OutsourcedDatabaseServer()],
            replicas=2,
        )
        assert db.server.replication == 2
