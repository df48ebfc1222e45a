"""Coordinator cache in ShardRouter: shared hits, invalidation, failover.

The correctness bar (ISSUE 10): cache-on results must be byte-identical
to cache-off under interleaved writes, degraded reads must never be
cached, and replication/failover (including a shard killed mid-workload)
must never resurrect stale entries.
"""

from __future__ import annotations

import pytest

from repro.api import EncryptedDatabase
from repro.cluster import DEGRADED, ShardRouter
from repro.crypto.rng import DeterministicRng
from repro.outsourcing import OutsourcedDatabaseServer
from repro.relational import Selection

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(30)]


class FlakyServer(OutsourcedDatabaseServer):
    """A shard that can be switched off to exercise failure paths."""

    def __init__(self):
        super().__init__()
        self.down = False
        self.handled = 0

    def _check(self):
        if self.down:
            raise ConnectionError("shard is down")

    def handle_message(self, raw: bytes) -> bytes:
        self._check()
        self.handled += 1
        return super().handle_message(raw)


def _rows(outcome):
    return sorted(tuple(t.values()) for t in outcome.relation)


def _fleet(secret_key, *, sessions=2, replicas=1, policy="fail_fast", cache=True):
    shards = [FlakyServer() for _ in range(3)]
    router = ShardRouter(shards, replicas=replicas, policy=policy, cache=cache)
    opened = [
        EncryptedDatabase.open(secret_key, server=router, rng=DeterministicRng(i))
        for i in range(sessions)
    ]
    opened[0].create_table(EMP_DECL, rows=ROWS)
    for session in opened[1:]:
        session.attach_table(EMP_DECL)
    return router, shards, opened


def _shard_messages(shards):
    return sum(shard.handled for shard in shards)


class TestSharedHits:
    def test_second_session_hits_without_touching_any_shard(self, secret_key):
        router, shards, (db1, db2) = _fleet(secret_key)
        first = db1.select(Selection.equals("dept", "HR"), table="Emp")
        before = _shard_messages(shards)
        second = db2.select(Selection.equals("dept", "HR"), table="Emp")
        assert _shard_messages(shards) == before
        assert _rows(first) == _rows(second)
        assert router.cache.stats()["hits"] == 1

    def test_batch_elements_share_the_single_query_namespace(self, secret_key):
        router, shards, (db1, db2) = _fleet(secret_key)
        db1.select(Selection.equals("dept", "HR"), table="Emp")
        db1.select(Selection.equals("dept", "IT"), table="Emp")
        before = _shard_messages(shards)
        outcomes = db2.select_many(
            [Selection.equals("dept", "HR"), Selection.equals("dept", "IT")],
            table="Emp",
        )
        assert _shard_messages(shards) == before
        assert [len(o.relation) for o in outcomes] == [15, 15]

    def test_cluster_status_reports_the_cache(self, secret_key):
        router, _, (db1, _) = _fleet(secret_key)
        db1.select(Selection.equals("dept", "HR"), table="Emp")
        status = router.cluster_status()
        entry = status["coordinator-cache"]
        assert entry["ok"] and entry["cache"]["tier"] == "coordinator"

    def test_close_is_idempotent_for_shared_sessions(self, secret_key):
        router, _, (db1, db2) = _fleet(secret_key)
        db1.close()
        db2.close()  # second close of the shared router must be a no-op
        router.close()


class TestWriteInvalidation:
    def test_insert_through_one_session_is_seen_by_the_other(self, secret_key):
        router, _, (db1, db2) = _fleet(secret_key)
        assert len(db2.select(Selection.equals("dept", "HR"), table="Emp").relation) == 15
        db1.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 1})
        assert len(db2.select(Selection.equals("dept", "HR"), table="Emp").relation) == 16

    def test_fleet_wide_delete_invalidates(self, secret_key):
        router, _, (db1, db2) = _fleet(secret_key)
        db2.select(Selection.equals("dept", "IT"), table="Emp")
        assert db1.delete(Selection.equals("dept", "IT"), table="Emp") == 15
        assert len(db2.select(Selection.equals("dept", "IT"), table="Emp").relation) == 0
        assert router.cache.stats()["invalidations"] > 0

    def test_update_through_one_session_is_seen_by_the_other(self, secret_key):
        router, _, (db1, db2) = _fleet(secret_key)
        db2.select(Selection.equals("name", "emp4"), table="Emp")
        db1.update(Selection.equals("name", "emp4"), {"salary": 2}, table="Emp")
        outcome = db2.select(Selection.equals("name", "emp4"), table="Emp")
        assert [t["salary"] for t in outcome.relation] == [2]

    def test_membership_change_flushes(self, secret_key):
        router, _, (db1,) = _fleet(secret_key, sessions=1)
        db1.select(Selection.equals("dept", "HR"), table="Emp")
        assert len(router.cache) > 0
        router.add_shard(OutsourcedDatabaseServer())
        assert len(router.cache) == 0
        # post-rebalance reads are correct and refill the cache
        assert len(db1.select(Selection.equals("dept", "HR"), table="Emp").relation) == 15

    def test_rebalance_flushes(self, secret_key):
        router, _, (db1,) = _fleet(secret_key, sessions=1)
        db1.select(Selection.equals("dept", "HR"), table="Emp")
        router.rebalance()
        assert len(router.cache) == 0


class TestDegradedAndFailover:
    def test_degraded_read_is_served_but_never_cached(self, secret_key):
        router, shards, (db1,) = _fleet(secret_key, sessions=1, policy=DEGRADED)
        full = len(db1.select(Selection.equals("dept", "HR"), table="Emp").relation)
        router.cache.flush()
        shards[1].down = True
        partial = db1.select(Selection.equals("dept", "HR"), table="Emp")
        assert len(partial.relation) < full
        assert len(router.cache) == 0  # the incomplete answer was not stored
        shards[1].down = False
        healed = db1.select(Selection.equals("dept", "HR"), table="Emp")
        assert len(healed.relation) == full  # no replay of the degraded answer

    def test_failover_read_with_replicas_is_complete_and_cacheable(self, secret_key):
        router, shards, (db1, db2) = _fleet(secret_key, replicas=2)
        full = _rows(db1.select(Selection.equals("dept", "HR"), table="Emp"))
        router.cache.flush()
        shards[2].down = True  # kill one shard mid-workload; R=2 covers it
        survived = db1.select(Selection.equals("dept", "HR"), table="Emp")
        assert _rows(survived) == full
        # the failover answer was complete, so it MAY be cached -- and a
        # hit must serve the same bytes to the other session
        again = db2.select(Selection.equals("dept", "HR"), table="Emp")
        assert _rows(again) == full

    def test_replicated_fleet_killed_mid_workload_matches_uncached(self, secret_key):
        """The acceptance-criteria scenario: replicated fleet, one shard
        dies mid-stream, interleaved writes -- cache-on stays byte-identical
        to cache-off at every step.  Writes are always fail-fast, so the
        post-kill write fails in both runs; what matters is that the failed
        write still invalidates conservatively and later failover reads
        never resurrect a pre-write answer."""
        from repro.api import DatabaseError

        def run(cache: bool) -> list:
            router, shards, (db1, db2) = _fleet(
                secret_key, replicas=2, cache=cache
            )
            observed = []

            def observe():
                for probe in ("HR", "IT"):
                    observed.append(
                        _rows(db2.select(Selection.equals("dept", probe), table="Emp"))
                    )

            observe()
            db1.insert("Emp", {"name": "mid1", "dept": "HR", "salary": 5})
            observe()
            db1.delete(Selection.equals("name", "emp7"), table="Emp")
            db1.update(Selection.equals("name", "emp2"), {"salary": 3}, table="Emp")
            observe()
            shards[0].down = True  # mid-workload kill; R=2 keeps reads complete
            observe()
            with pytest.raises(DatabaseError, match="shard is down"):
                db1.delete(Selection.equals("name", "emp9"), table="Emp")
            observe()
            return observed

        assert run(True) == run(False)


class TestEquivalenceUnderInterleavedWrites:
    def test_cache_on_matches_cache_off(self, secret_key):
        def run(cache: bool) -> list:
            router, _, (db1, db2) = _fleet(secret_key, cache=cache)
            observed = []
            probes = [
                Selection.equals("dept", "HR"),
                Selection.equals("dept", "IT"),
                Selection.equals("name", "emp11"),
            ]

            def observe():
                for probe in probes:
                    observed.append(_rows(db2.select(probe, table="Emp")))

            observe()
            db1.insert("Emp", {"name": "w1", "dept": "IT", "salary": 8})
            observe()
            db1.delete(Selection.equals("name", "emp11"), table="Emp")
            observe()
            db1.update(Selection.equals("dept", "HR"), {"salary": 6}, table="Emp")
            observe()
            db2.insert("Emp", {"name": "w2", "dept": "HR", "salary": 4})
            observe()
            return observed

        assert run(True) == run(False)

    def test_cache_on_off_agree_over_envelope_transport(self, secret_key):
        """Same discipline through the protocol-envelope path (handle_message),
        which remote cluster sessions ride."""

        def run(cache: bool) -> list:
            shards = [OutsourcedDatabaseServer() for _ in range(3)]
            router = ShardRouter(shards, cache=cache)
            db = EncryptedDatabase.open(
                secret_key, server=router, rng=DeterministicRng(3)
            )
            db.create_table(EMP_DECL, rows=ROWS)
            observed = []
            for _ in range(2):  # second pass hits the cache when enabled
                observed.append(_rows(db.select(Selection.equals("dept", "HR"), table="Emp")))
            db.insert("Emp", {"name": "x", "dept": "HR", "salary": 2})
            observed.append(_rows(db.select(Selection.equals("dept", "HR"), table="Emp")))
            return observed

        assert run(True) == run(False)
