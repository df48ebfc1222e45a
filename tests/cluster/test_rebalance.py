"""Elastic membership: shard add/remove with tuple migration."""

from __future__ import annotations

import pytest

from repro.api import EncryptedDatabase
from repro.cluster import ClusterError, ShardRouter, rebalance
from repro.index import IndexDelta
from repro.outsourcing import OutsourcedDatabaseServer
from repro.relational import Selection
from provider_calls import stored_relation

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(40)]


def _placement_is_consistent(router, name):
    for shard_id in router.shard_ids:
        for t in router.shard(shard_id).stored_relation(name):
            assert router.shard_for(t.tuple_id) == shard_id


@pytest.fixture
def db(secret_key, rng):
    session = EncryptedDatabase.open(
        secret_key,
        shards=[OutsourcedDatabaseServer(), OutsourcedDatabaseServer()],
        rng=rng,
    )
    session.create_table(EMP_DECL, rows=ROWS)
    return session


class TestAddShard:
    def test_add_migrates_the_ring_share(self, db):
        router = db.server
        report = router.add_shard(OutsourcedDatabaseServer())
        assert report.moved > 0
        assert report.scanned == len(ROWS)
        # only moves *onto* the new shard (consistent hashing stability)
        assert all(target == "shard-2" for _, target in report.per_edge)
        assert router.per_shard_tuple_counts("Emp")["shard-2"] == report.moved
        _placement_is_consistent(router, "Emp")

    def test_queries_stay_correct_after_growth(self, db):
        db.server.add_shard(OutsourcedDatabaseServer())
        assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 20
        assert db.count("Emp") == len(ROWS)
        db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 1})
        assert len(db.select(Selection.equals("dept", "HR"), table="Emp").relation) == 21
        _placement_is_consistent(db.server, "Emp")

    def test_add_without_rebalance_defers_migration(self, db):
        router = db.server
        assert router.add_shard(OutsourcedDatabaseServer(), rebalance=False) is None
        # data still where it was, but the new shard serves (empty) queries
        assert router.per_shard_tuple_counts("Emp")["shard-2"] == 0
        assert len(db.select("SELECT * FROM Emp WHERE dept = 'IT'").relation) == 20
        report = router.rebalance()
        assert report.moved > 0
        _placement_is_consistent(router, "Emp")

    def test_delete_reaches_tuples_misplaced_by_a_deferred_rebalance(self, db):
        router = db.server
        router.add_shard(OutsourcedDatabaseServer(), rebalance=False)
        # many tuples now sit off their ring owner; deletes fan out to the
        # whole fleet, so they must still land
        assert db.delete("SELECT * FROM Emp WHERE dept = 'HR'") == 20
        assert db.count("Emp") == 20
        assert len(db.select(Selection.equals("dept", "HR"), table="Emp").relation) == 0

    def test_rebalance_converges(self, db):
        router = db.server
        router.add_shard(OutsourcedDatabaseServer())
        second = router.rebalance()
        assert second.moved == 0
        assert second.scanned == len(ROWS)

    def test_add_requires_known_evaluators(self, db):
        # a second router over the same backends never saw register_evaluator
        blind = ShardRouter([db.server.shard("shard-0"), db.server.shard("shard-1")])
        with pytest.raises(ClusterError, match="no evaluator"):
            blind.add_shard(OutsourcedDatabaseServer())

    def test_duplicate_shard_id_rejected(self, db):
        with pytest.raises(ClusterError, match="duplicate"):
            db.server.add_shard(OutsourcedDatabaseServer(), shard_id="shard-0")


class TestRemoveShard:
    def test_remove_drains_the_leaving_shard(self, db):
        router = db.server
        victim = router.shard("shard-1")
        held = victim.tuple_count("Emp")
        assert held > 0
        report = router.remove_shard("shard-1")
        assert report.moved == held
        assert router.shard_ids == ("shard-0",)
        assert victim.relation_names == ()  # drained and dropped
        assert db.count("Emp") == len(ROWS)
        assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 20

    def test_grow_then_shrink_loses_nothing(self, db):
        router = db.server
        router.add_shard(OutsourcedDatabaseServer())
        router.remove_shard("shard-0")
        assert db.count("Emp") == len(ROWS)
        assert len(db.retrieve_all("Emp")) == len(ROWS)
        _placement_is_consistent(router, "Emp")

    def test_shrink_then_grow_picks_a_free_default_id(self, db):
        router = db.server
        router.remove_shard("shard-0")
        report = router.add_shard(OutsourcedDatabaseServer())  # must not collide
        assert report is not None
        assert len(router.shard_ids) == 2
        assert db.count("Emp") == len(ROWS)
        _placement_is_consistent(router, "Emp")

    def test_cannot_remove_the_last_shard(self, secret_key):
        db = EncryptedDatabase.open(secret_key, shards=[OutsourcedDatabaseServer()])
        db.create_table(EMP_DECL, rows=ROWS[:2])
        with pytest.raises(ClusterError, match="last shard"):
            db.server.remove_shard("shard-0")

    def test_unknown_shard_rejected(self, db):
        with pytest.raises(ClusterError, match="no shard"):
            db.server.remove_shard("shard-9")


class TestCrashMidMigration:
    """The insert-first rebalancer may die between its insert and delete
    phases; the duplicate it leaves must not change what queries answer,
    and the next rebalance must clean it up."""

    def _crash_rebalance(self, db):
        """Crash-inject the rebalancer: inserts applied, deletes refused."""
        router = db.server
        router.add_shard(OutsourcedDatabaseServer(), rebalance=False)
        saboteurs = []
        for shard_id in router.shard_ids:
            backend = router.shard(shard_id)

            def refuse(name, tuple_ids, delta):
                raise ConnectionError("crashed before the delete phase")

            backend.delete_tuples = refuse  # shadow the bound method
            saboteurs.append(backend)
        with pytest.raises(ConnectionError):
            router.rebalance()
        for backend in saboteurs:  # un-shadow: restore the class method
            del backend.delete_tuples
        return router

    def test_queries_answer_each_tuple_once_despite_duplicates(self, db):
        router = self._crash_rebalance(db)
        physical = sum(router.per_shard_tuple_counts("Emp").values())
        assert physical > len(ROWS)  # the crash really left duplicates
        assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 20
        assert len(db.select("SELECT * FROM Emp WHERE dept = 'IT'").relation) == 20

    def test_counts_do_not_inflate_despite_duplicates(self, db):
        router = self._crash_rebalance(db)
        assert db.count("Emp") == len(ROWS)
        assert len(stored_relation(router, "Emp")) == len(ROWS)
        assert len(db.retrieve_all("Emp")) == len(ROWS)

    def test_rerunning_the_rebalance_converges_and_cleans_up(self, db):
        router = self._crash_rebalance(db)
        report = router.rebalance()
        assert report.removed > 0  # the stale copies died this time
        assert sum(router.per_shard_tuple_counts("Emp").values()) == len(ROWS)
        _placement_is_consistent(router, "Emp")
        assert router.rebalance().moved == 0


class TestReplicatedRebalance:
    REPLICAS = 2

    @pytest.fixture
    def rdb(self, secret_key, rng):
        session = EncryptedDatabase.open(
            secret_key,
            shards=[OutsourcedDatabaseServer() for _ in range(3)],
            replicas=self.REPLICAS,
            rng=rng,
        )
        session.create_table(EMP_DECL, rows=ROWS)
        return session

    def _holders(self, router, name):
        holders = {}
        for shard_id in router.shard_ids:
            for t in router.shard(shard_id).stored_relation(name):
                holders.setdefault(t.tuple_id, set()).add(shard_id)
        return holders

    def _fully_replicated(self, router, name):
        for tuple_id, shard_ids in self._holders(router, name).items():
            assert shard_ids == set(router.replica_shards(tuple_id))

    def test_steady_state_has_nothing_to_move(self, rdb):
        report = rdb.server.rebalance()
        assert report.moved == 0 and report.removed == 0
        assert report.scanned == self.REPLICAS * len(ROWS)

    def test_repairs_under_replication(self, rdb):
        router = rdb.server
        # wound one replica set: drop a single copy behind the router's back
        tuple_id, holders = next(iter(self._holders(router, "Emp").items()))
        victim = sorted(holders)[0]
        router.shard(victim).delete_tuples("Emp", [tuple_id], IndexDelta())
        report = router.rebalance()
        assert report.moved == 1
        # copied from a surviving holder onto the wounded shard, nothing removed
        assert report.per_edge == {(sorted(holders - {victim})[0], victim): 1}
        assert report.removed == 0
        self._fully_replicated(router, "Emp")

    def test_add_shard_keeps_replica_sets_complete(self, rdb):
        router = rdb.server
        report = router.add_shard(OutsourcedDatabaseServer())
        assert report.moved > 0
        self._fully_replicated(router, "Emp")
        assert router.rebalance().moved == 0
        assert rdb.count("Emp") == len(ROWS)

    def test_remove_shard_restores_the_replication_factor(self, rdb):
        router = rdb.server
        router.remove_shard("shard-2")
        self._fully_replicated(router, "Emp")
        assert rdb.count("Emp") == len(ROWS)
        assert len(rdb.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 20


class TestRebalanceFunction:
    def test_rejects_a_ring_without_backends(self, db):
        from repro.cluster import ConsistentHashRing

        ring = ConsistentHashRing(["shard-0", "ghost"])
        with pytest.raises(ClusterError, match="ghost"):
            rebalance(db.server, ring, ["Emp"])

    def test_report_summary_renders(self, db):
        report = db.server.add_shard(OutsourcedDatabaseServer())
        assert "moved" in report.summary()
        assert db.server.rebalance().summary().endswith("nothing to move")
