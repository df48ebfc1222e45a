"""Index maintenance edge cases on the serving path.

Covers the corners the happy path skips: labels emptied by the last
delete, a lookup outage that must not leave a
session maintaining no index, an indexed fleet against its unindexed twin,
and the exact-delete protocol op under duplicates and replays.
"""

from __future__ import annotations

import contextlib

import pytest

from provider_calls import store_relation
from repro.api import DatabaseError, EncryptedDatabase
from repro.cluster import ShardRouter
from repro.index import IndexDelta
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import MessageKind
from repro.outsourcing.server import ServerError

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(20)]


def _names(outcome):
    return sorted(t.value("name") for t in outcome.relation.tuples)


@pytest.fixture
def db(secret_key, rng):
    session = EncryptedDatabase.open(secret_key, rng=rng, index=True)
    session.create_table(EMP_DECL, rows=ROWS)
    return session


class TestEmptiedLabels:
    def test_deleting_every_match_empties_the_label(self, db):
        assert db.delete("SELECT * FROM Emp WHERE dept = 'HR'") == 10
        outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        assert len(outcome.relation) == 0
        # the emptied label answers from the index (0 fetched), not by scan
        assert db.index_enabled
        assert outcome.evaluation.examined == 0

    def test_other_labels_survive_the_emptying(self, db):
        db.delete("SELECT * FROM Emp WHERE dept = 'HR'")
        outcome = db.select("SELECT * FROM Emp WHERE dept = 'IT'")
        assert len(outcome.relation) == 10
        assert outcome.evaluation.examined == 10

    def test_reinserting_after_emptying_resurrects_the_label(self, db):
        db.delete("SELECT * FROM Emp WHERE dept = 'HR'")
        db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 1})
        outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        assert _names(outcome) == ["Zoe"]
        assert outcome.evaluation.examined == 1


class LookupOutage(OutsourcedDatabaseServer):
    """Refuses ``INDEX_LOOKUP`` while ``down``, as it refuses any unknown kind."""

    down = False

    def _dispatch(self, request):
        if self.down and request.kind is MessageKind.INDEX_LOOKUP:
            raise ServerError(f"cannot serve message kind {request.kind.value!r}")
        return super()._dispatch(request)


class TestRefusedLookupLeavesNoSessionBehind:
    def test_every_session_sees_the_insert_or_raises(self, secret_key, rng):
        """One refused lookup must not turn a session's index maintenance off."""
        server = LookupOutage()
        writer = EncryptedDatabase.open(secret_key, server=server, rng=rng, index=True)
        writer.create_table(EMP_DECL, rows=[("x", "HR", 1)])
        reader = EncryptedDatabase.open(secret_key, server=server, rng=rng, index=True)
        reader.attach_table(EMP_DECL)
        server.down = True
        with contextlib.suppress(DatabaseError):
            writer.select("SELECT * FROM Emp WHERE dept = 'HR'")
        server.down = False
        writer.insert("Emp", {"name": "y", "dept": "HR", "salary": 2})
        for session in (writer, reader):
            try:
                outcome = session.select("SELECT * FROM Emp WHERE dept = 'HR'")
            except DatabaseError:
                continue
            assert _names(outcome) == ["x", "y"]


class TestAllServingFleet:
    def test_results_match_an_unindexed_twin(self, secret_key, rng):
        from repro.crypto.rng import DeterministicRng

        fleets = []
        for index in (True, False):
            db = EncryptedDatabase.open(
                secret_key,
                server=ShardRouter([OutsourcedDatabaseServer(), OutsourcedDatabaseServer()]),
                rng=DeterministicRng(7),
                index=index,
            )
            db.create_table(EMP_DECL, rows=ROWS)
            db.delete("SELECT * FROM Emp WHERE name = 'emp2'")
            db.update("SELECT * FROM Emp WHERE name = 'emp5'", {"dept": "OPS"})
            fleets.append(db)
        indexed, plain = fleets
        for where in ("dept = 'HR'", "dept = 'IT'", "dept = 'OPS'", "name = 'emp7'"):
            left = indexed.select(f"SELECT * FROM Emp WHERE {where}")
            right = plain.select(f"SELECT * FROM Emp WHERE {where}")
            assert _names(left) == _names(right), where


class TestExactDeletes:
    def test_replicated_fleet_counts_each_tuple_once(self, secret_key, rng):
        db = EncryptedDatabase.open(
            secret_key,
            server=ShardRouter([OutsourcedDatabaseServer(), OutsourcedDatabaseServer()], replicas=2),
            rng=rng,
            index=True,
        )
        db.create_table(EMP_DECL, rows=ROWS)
        # every tuple exists twice physically; the logical count must not
        assert db.delete("SELECT * FROM Emp WHERE dept = 'HR'") == 10
        assert db.count("Emp") == 10

    def test_replayed_batch_reports_zero(self, secret_key, rng, employee_schema):
        from repro.core import SearchableSelectDph

        server = OutsourcedDatabaseServer()
        dph = SearchableSelectDph(employee_schema, secret_key, backend="swp", rng=rng)
        from repro.relational import Relation

        relation = Relation.from_rows(
            employee_schema, [("A", "HR", 1), ("B", "IT", 2)]
        )
        encrypted = dph.encrypt_relation(relation)
        store_relation(server, "Emp", encrypted, dph.server_evaluator())
        ids = [t.tuple_id for t in encrypted.encrypted_tuples]
        first = server.delete_tuples("Emp", ids, IndexDelta())
        assert sorted(first) == sorted(ids)
        # a stale batch replayed after a crash deletes nothing more
        assert server.delete_tuples("Emp", ids, IndexDelta()) == ()

    def test_duplicate_ids_in_one_batch_count_once(self, secret_key, rng, employee_schema):
        from repro.core import SearchableSelectDph
        from repro.relational import Relation

        server = OutsourcedDatabaseServer()
        dph = SearchableSelectDph(employee_schema, secret_key, backend="swp", rng=rng)
        relation = Relation.from_rows(employee_schema, [("A", "HR", 1)])
        encrypted = dph.encrypt_relation(relation)
        store_relation(server, "Emp", encrypted, dph.server_evaluator())
        the_id = encrypted.encrypted_tuples[0].tuple_id
        assert server.delete_tuples("Emp", [the_id, the_id], IndexDelta()) == (the_id,)
