"""Writes across a replicated fleet: one envelope per shard, exact, never lossy.

A write reaches each addressed shard as one envelope carrying its tuples and
postings; a delete answers exactly the ids that were still stored, however
stale the batch; and with a shard request (or its reply) lost, an update's
insert-then-delete order keeps every row selectable -- duplicated at worst,
never gone.
"""

from __future__ import annotations

import pytest

from mutating_provider import FailingServer
from provider_calls import delete_tuples, store_relation, tuple_count
from repro.api import DatabaseError, EncryptedDatabase
from repro.cluster import ShardRouter
from repro.core import SearchableSelectDph
from repro.crypto.rng import DeterministicRng
from repro.outsourcing import MessageKind, OutsourcedDatabaseServer
from repro.outsourcing.protocol import peek_envelope
from repro.relational import Relation, RelationSchema

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
SCHEMA = RelationSchema.parse(EMP_DECL)
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(12)]


class CountingShard(OutsourcedDatabaseServer):
    """Records the kind of every envelope it is handed."""

    def __init__(self) -> None:
        super().__init__()
        self.kinds: list[MessageKind] = []

    def handle_message(self, raw: bytes) -> bytes:
        self.kinds.append(peek_envelope(raw)[1])
        return super().handle_message(raw)


def test_a_stale_delete_answers_exactly_the_live_ids(secret_key):
    dph = SearchableSelectDph(SCHEMA, secret_key, backend="swp", rng=DeterministicRng(5))
    encrypted = dph.encrypt_relation(Relation.from_rows(SCHEMA, ROWS))
    router = ShardRouter([OutsourcedDatabaseServer() for _ in range(3)], replicas=2)
    store_relation(router, "Emp", encrypted, dph.server_evaluator())
    dead, live = (t.tuple_id for t in encrypted.encrypted_tuples[:2])
    assert delete_tuples(router, "Emp", [dead]) == (dead,)
    # Two live copies of one id beside a dead id: exactly the live id, not
    # a count of copies or of addressed ids.
    assert delete_tuples(router, "Emp", [live, dead]) == (live,)
    assert delete_tuples(router, "Emp", [live, dead]) == ()
    assert tuple_count(router, "Emp") == len(ROWS) - 2
    router.close()


@pytest.mark.parametrize("index", [False, True], ids=["scan", "indexed"])
def test_a_write_is_one_envelope_per_addressed_shard(index, secret_key, rng):
    shards = [CountingShard() for _ in range(3)]
    db = EncryptedDatabase.open(secret_key, shards=shards, replicas=2, rng=rng, index=index)
    db.create_table(EMP_DECL, rows=ROWS)
    lookup = MessageKind.INDEX_LOOKUP if index else MessageKind.QUERY
    steps = (
        (lambda: db.insert("Emp", ("Zoe", "OPS", 1)), [MessageKind.INSERT_TUPLES]),
        (
            lambda: db.insert_many("Emp", [("Yan", "OPS", 2), ("Xi", "OPS", 3)]),
            [MessageKind.INSERT_TUPLES],
        ),
        (
            lambda: db.update("SELECT * FROM Emp WHERE dept = 'OPS'", {"salary": 9}),
            [lookup, MessageKind.INSERT_TUPLES, MessageKind.DELETE_TUPLES],
        ),
        (
            lambda: db.delete("SELECT * FROM Emp WHERE dept = 'HR'"),
            [lookup, MessageKind.DELETE_TUPLES],
        ),
    )
    for run, expected in steps:
        marks = [len(shard.kinds) for shard in shards]
        run()
        sent = [shard.kinds[mark:] for shard, mark in zip(shards, marks)]
        if index:  # postings go to every shard: one envelope each
            assert sent == [expected] * 3
        else:  # tuples reach their R = 2 replicas only, in one envelope each
            insert = MessageKind.INSERT_TUPLES
            inserts = [kinds.count(insert) for kinds in sent]
            assert max(inserts) <= 1 and sum(inserts) >= 2 * (insert in expected)
            others = [k for k in expected if k is not insert]
            assert [[k for k in kinds if k is not insert] for kinds in sent] == [others] * 3
    assert db.count("Emp") == len(ROWS) // 2 + 3
    db.close()


def _selected(db, where: str) -> list[tuple]:
    outcome = db.select(f"SELECT * FROM Emp WHERE {where}")
    return [(t.value("name"), t.value("salary")) for t in outcome.relation.tuples]


#: which shards lose the request -> (indexed session?, armed shard positions)
ARMED = {
    "indexed, one shard": (True, (0,)),
    "indexed, every shard": (True, (0, 1, 2)),
    "scan, every shard": (False, (0, 1, 2)),
}


@pytest.mark.parametrize("lands", [False, True], ids=["request-lost", "reply-lost"])
@pytest.mark.parametrize("armed", list(ARMED))
class TestALostShardRequestNeverLosesARow:
    def _fleet(self, armed, secret_key, rng):
        index, positions = ARMED[armed]
        shards = [FailingServer() for _ in range(3)]
        db = EncryptedDatabase.open(
            secret_key, shards=shards, replicas=2, rng=rng, index=index
        )
        db.create_table(EMP_DECL, rows=ROWS)
        return db, [shards[i] for i in positions]

    def _fail(self, db, armed_shards, kind, lands, write):
        for shard in armed_shards:
            shard.fail = (kind, lands)
        try:
            with pytest.raises(DatabaseError):
                write()
        finally:
            for shard in armed_shards:
                shard.fail = None
        stored = {(t.value("name"), t.value("salary")) for t in db.retrieve_all("Emp").tuples}
        assert {(name, salary) for name, _, salary in ROWS if name != "emp3"} <= stored

    def test_a_lost_update_insert_keeps_the_old_row(self, armed, lands, secret_key, rng):
        db, armed_shards = self._fleet(armed, secret_key, rng)
        self._fail(
            db, armed_shards, MessageKind.INSERT_TUPLES, lands,
            lambda: db.update("SELECT * FROM Emp WHERE name = 'emp3'", {"salary": 9}),
        )
        rows = _selected(db, "name = 'emp3'")
        assert rows.count(("emp3", 1003)) == 1  # the delete was never sent
        assert rows.count(("emp3", 9)) <= 1

    def test_a_lost_update_delete_keeps_the_new_row(self, armed, lands, secret_key, rng):
        db, armed_shards = self._fleet(armed, secret_key, rng)
        self._fail(
            db, armed_shards, MessageKind.DELETE_TUPLES, lands,
            lambda: db.update("SELECT * FROM Emp WHERE name = 'emp3'", {"salary": 9}),
        )
        rows = _selected(db, "name = 'emp3'")
        assert rows.count(("emp3", 9)) == 1
        assert rows.count(("emp3", 1003)) <= 1

    def test_a_lost_insert_many_lands_each_row_at_most_once(
        self, armed, lands, secret_key, rng
    ):
        db, armed_shards = self._fleet(armed, secret_key, rng)
        new = [("Zoe", "OPS", 1), ("Yan", "OPS", 2), ("Xi", "OPS", 3)]
        self._fail(
            db, armed_shards, MessageKind.INSERT_TUPLES, lands,
            lambda: db.insert_many("Emp", new),
        )
        landed = _selected(db, "dept = 'OPS'")
        assert len(landed) == len(set(landed)) <= len(new)
        assert {(name, salary) for name, _, salary in new} >= set(landed)
        assert db.count("Emp") == len(ROWS) + len(landed)
