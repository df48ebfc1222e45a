"""Regression: indexed lookups survive a crash-injected rebalance.

The insert-first rebalancer can die between its insert and delete phases
(the moral equivalent of a SIGKILL mid-migration), leaving transient
duplicate copies and shards whose index never saw the migrated tuples.
``INDEX_LOOKUP`` must keep answering exactly what a scan answers: merged
across shards, deduplicated by public tuple id, never missing a tuple
and never double-counting one.
"""

from __future__ import annotations

import pytest

from repro.api import EncryptedDatabase
from repro.cluster import ShardRouter
from repro.outsourcing import OutsourcedDatabaseServer

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(40)]


def _names(outcome):
    return sorted(t.value("name") for t in outcome.relation.tuples)


@pytest.fixture
def crashed(secret_key, rng):
    """An indexed 2-shard session grown to 3, crashed mid-rebalance."""
    db = EncryptedDatabase.open(
        secret_key,
        server=ShardRouter([OutsourcedDatabaseServer(), OutsourcedDatabaseServer()]),
        rng=rng,
        index=True,
    )
    db.create_table(EMP_DECL, rows=ROWS)
    router = db.server
    router.add_shard(OutsourcedDatabaseServer(), rebalance=False)
    saboteurs = []
    for shard_id in router.shard_ids:
        backend = router.shard(shard_id)

        def refuse(name, tuple_ids, delta):
            raise ConnectionError("killed before the delete phase")

        backend.delete_tuples = refuse  # shadow the bound method
        saboteurs.append(backend)
    with pytest.raises(ConnectionError):
        router.rebalance()
    for backend in saboteurs:
        del backend.delete_tuples
    return db


class TestIndexedLookupsUnderCrashDuplicates:
    def test_crash_really_left_duplicates(self, crashed):
        counts = crashed.server.per_shard_tuple_counts("Emp")
        assert sum(counts.values()) > len(ROWS)
        assert counts["shard-2"] > 0  # the migration's inserts landed

    def test_indexed_results_equal_scan_results(self, crashed, secret_key):
        assert crashed.index_enabled
        scan = EncryptedDatabase.open(secret_key, server=crashed.server)
        scan.attach_table(EMP_DECL)
        for where in ("dept = 'HR'", "dept = 'IT'", "name = 'emp17'"):
            indexed = crashed.select(f"SELECT * FROM Emp WHERE {where}")
            scanned = scan.select(f"SELECT * FROM Emp WHERE {where}")
            assert _names(indexed) == _names(scanned), where

    def test_duplicates_are_answered_once(self, crashed):
        outcome = crashed.select("SELECT * FROM Emp WHERE dept = 'HR'")
        names = _names(outcome)
        assert names == sorted(n for n, d, _ in ROWS if d == "HR")
        assert len(names) == len(set(names))  # dedup by tuple id held

    def test_crud_keeps_matching_scans_after_the_crash(self, crashed, secret_key):
        assert crashed.delete("SELECT * FROM Emp WHERE name = 'emp1'") == 1
        crashed.update("SELECT * FROM Emp WHERE name = 'emp3'", {"dept": "OPS"})
        crashed.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 1})
        scan = EncryptedDatabase.open(secret_key, server=crashed.server)
        scan.attach_table(EMP_DECL)
        for where in ("dept = 'HR'", "dept = 'OPS'", "name = 'emp1'"):
            indexed = crashed.select(f"SELECT * FROM Emp WHERE {where}")
            scanned = scan.select(f"SELECT * FROM Emp WHERE {where}")
            assert _names(indexed) == _names(scanned), where

    def test_recovery_rebalance_keeps_lookups_consistent(self, crashed, secret_key):
        report = crashed.server.rebalance()
        assert report.removed > 0  # the stale copies died this time
        scan = EncryptedDatabase.open(secret_key, server=crashed.server)
        scan.attach_table(EMP_DECL)
        for where in ("dept = 'HR'", "dept = 'IT'"):
            indexed = crashed.select(f"SELECT * FROM Emp WHERE {where}")
            scanned = scan.select(f"SELECT * FROM Emp WHERE {where}")
            assert _names(indexed) == _names(scanned), where
