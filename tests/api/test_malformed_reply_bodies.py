"""A reply body that does not parse is a session's ``DatabaseError``.

The provider double below answers every envelope as a real provider does,
except that it cuts the last three bytes off the body of each reply of the
kinds it is told to damage.  The envelope itself stays well formed, so the
request helper accepts it and the failure is the session's body decode:
every session call that reads a reply body must turn the
:class:`ProtocolError` into a :class:`DatabaseError` that keeps it as its
``__cause__``, and the session lives on.
"""

from __future__ import annotations

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import MessageKind, MessageV2, ProtocolError, parse_message

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [("Montgomery", "HR", 7500), ("Smith", "IT", 5200), ("Jones", "HR", 7500)]


class TruncatingProvider:
    """A provider whose replies of the kinds in ``damage`` lose 3 body bytes."""

    def __init__(self) -> None:
        self.provider = OutsourcedDatabaseServer()
        self.damage: frozenset[MessageKind] = frozenset()

    def handle_message(self, raw: bytes) -> bytes:
        response = parse_message(self.provider.handle_message(raw))
        if response.kind not in self.damage:
            return response.to_bytes()
        return MessageV2(response.kind, response.relation_name, response.body[:-3]).to_bytes()


def select(db, key):
    return db.select("SELECT * FROM Emp WHERE dept = 'HR'")


def select_many(db, key):
    return db.select_many(
        ["SELECT * FROM Emp WHERE dept = 'HR'", "SELECT * FROM Emp WHERE dept = 'IT'"]
    )


def count(db, key):
    return db.count("Emp")


def retrieve_all(db, key):
    return db.retrieve_all("Emp")


def delete(db, key):
    return db.delete("SELECT * FROM Emp WHERE dept = 'IT'")


def create_table(db, key):
    return db.create_table("Dept(code:string[5], floor:int[6])")


def attach_table(db, key):
    return EncryptedDatabase(key, db.server, "swp").attach_table(EMP_DECL)


def insert(db, key):
    return db.insert("Emp", ("Brown", "IT", 6100))


def update(db, key):
    return db.update("SELECT * FROM Emp WHERE dept = 'IT'", {"salary": 5300})


def drop_table(db, key):
    return db.drop_table("Emp")


#: session call -> (the reply kind it decodes, whether the session is indexed)
CASES = {
    select: (MessageKind.QUERY_RESULT, False),
    select_many: (MessageKind.BATCH_RESULT, False),
    count: (MessageKind.ACK, False),
    retrieve_all: (MessageKind.QUERY_RESULT, False),
    delete: (MessageKind.TUPLE_IDS, False),
    create_table: (MessageKind.RELATIONS, False),
    attach_table: (MessageKind.QUERY_RESULT, False),
    "indexed select": (MessageKind.QUERY_RESULT, True),
    "indexed delete": (MessageKind.TUPLE_IDS, True),
    # An ACK's count is decoded too, even where the session has no use for it.
    insert: (MessageKind.ACK, False),
    "indexed insert": (MessageKind.ACK, True),
    update: (MessageKind.ACK, False),
    drop_table: (MessageKind.ACK, False),
    "create_table with a damaged ACK": (MessageKind.ACK, False),
}
CALLS = {
    "indexed select": select,
    "indexed delete": delete,
    "indexed insert": insert,
    "create_table with a damaged ACK": create_table,
}
#: Rows a failed call leaves behind: its request landed, only the reply was damaged.
ADDED = {insert: 1, "indexed insert": 1, update: 1}


@pytest.mark.parametrize(
    "case", list(CASES), ids=lambda case: case if isinstance(case, str) else case.__name__
)
def test_a_truncated_reply_body_is_a_database_error(case, secret_key):
    kind, indexed = CASES[case]
    call = CALLS.get(case, case)
    provider = TruncatingProvider()
    db = EncryptedDatabase(secret_key, provider, "swp", index=indexed)
    db.create_table(EMP_DECL, rows=ROWS)
    provider.damage = frozenset({kind})
    with pytest.raises(DatabaseError) as raised:
        call(db, secret_key)
    assert isinstance(raised.value.__cause__, ProtocolError)
    assert str(raised.value) == str(raised.value.__cause__)
    provider.damage = frozenset()
    db.create_table("After(name:string[14])", rows=[("Brown",)])  # the session lives on
    assert db.count("After") == 1
    if call is not drop_table:
        rows = db.count("Emp") - ADDED.get(case, 0)
        assert rows in (len(ROWS), len(ROWS) - 1)
