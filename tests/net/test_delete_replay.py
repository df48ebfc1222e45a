"""A write whose answer is lost is never replayed into a wrong store or count.

The proxy resends a request on a fresh connection when the old one dies,
unless the request may have reached the provider and its kind is in
``protocol.REPLAY_UNSAFE``.  A delete the provider applied but never
answered, sent again, finds its ids gone: the provider answers no ids, and
a session that took that answer would report 0 rows deleted after deleting
some.  An insert sent again stores its rows twice.  Here the first write of
the chosen kind is applied and its answer is then lost with
``request_delivered=True``; the session must raise, over ``tcp://`` (with
and without the ``async`` key, which has no effect) and per shard behind a
router, and every row that landed is stored once.  Postings ride in the
writes, so an indexed session is covered the same way.
"""

from __future__ import annotations

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.net import ThreadedTcpServer
from repro.net.framing import CHANNEL_ENVELOPE
from repro.net.client import ConnectionLostError, RemoteConnection, RemoteServerProxy
from repro.outsourcing.protocol import REPLAY_UNSAFE, MessageKind, peek_envelope

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [("Montgomery", "HR", 7500), ("Smith", "IT", 5200), ("Jones", "HR", 7500)]

URLS = {
    "tcp": "tcp://127.0.0.1:{port}",
    "tcp async": "tcp://127.0.0.1:{port}?async=1",
    "cluster": "cluster://127.0.0.1:{port}",
    "cluster async": "cluster://127.0.0.1:{port}?async=1",
}

#: write -> (the kind whose first answer is lost, the write, the count after
#: it, and per probe query the rows it must select).
WRITES = {
    "insert": (
        MessageKind.INSERT_TUPLES,
        lambda db: db.insert("Emp", ("Zoe", "OPS", 1)),
        len(ROWS) + 1,
        {"name = 'Zoe'": 1},
    ),
    "insert_many": (
        MessageKind.INSERT_TUPLES,
        lambda db: db.insert_many("Emp", [("Zoe", "OPS", 1), ("Yan", "OPS", 2)]),
        len(ROWS) + 2,
        {"name = 'Zoe'": 1, "name = 'Yan'": 1, "dept = 'OPS'": 2},
    ),
    "update, its insert lost": (
        MessageKind.INSERT_TUPLES,
        lambda db: db.update("SELECT * FROM Emp WHERE name = 'Smith'", {"salary": 1}),
        len(ROWS) + 1,  # the replacement landed; the delete was never sent
        {"salary = 1": 1, "salary = 5200": 1},
    ),
    "update, its delete lost": (
        MessageKind.DELETE_TUPLES,
        lambda db: db.update("SELECT * FROM Emp WHERE name = 'Smith'", {"salary": 1}),
        len(ROWS),
        {"salary = 1": 1, "salary = 5200": 0},
    ),
}


def connect(transport: str, port: int, secret_key, index: bool) -> EncryptedDatabase:
    url = URLS[transport].format(port=port)
    separator = "&" if "?" in url else "?"
    db = EncryptedDatabase.connect(f"{url}{separator}index={int(index)}", secret_key)
    if transport.startswith("tcp"):
        assert type(db.server) is RemoteServerProxy  # the async key has no effect
    return db


@pytest.fixture
def lose_first_answer(monkeypatch):
    """The connection applies the first write of ``lost[0]``'s kind, then
    loses its answer; ``lost`` then also holds that kind.

    The loss is injected in the receive half every round trip shares --
    ``handle_message`` and a router's scatter legs alike -- below the
    proxy's resend rule, which must then refuse to resend the write."""
    lost: list = []
    send, receive = RemoteConnection.send, RemoteConnection.receive
    kinds: dict = {}  # connection -> the kind of the request it last sent

    def sending(self, payload, channel):
        kinds[self] = peek_envelope(payload)[1] if channel == CHANNEL_ENVELOPE else None
        send(self, payload, channel)

    def losing(self, until=None):
        answer = receive(self, until)
        if len(lost) == 1 and kinds.get(self) is lost[0]:
            lost.append(lost[0])
            raise ConnectionLostError("answer lost", request_delivered=True)
        return answer

    monkeypatch.setattr(RemoteConnection, "send", sending)
    monkeypatch.setattr(RemoteConnection, "receive", losing)
    return lost


def test_the_writes_are_the_replay_unsafe_kinds():
    assert REPLAY_UNSAFE == {
        MessageKind.INSERT_TUPLES,
        MessageKind.DELETE_TUPLES,
        MessageKind.DROP_RELATION,
    }


@pytest.mark.parametrize("index", [False, True], ids=["scan", "indexed"])
@pytest.mark.parametrize("transport", list(URLS))
def test_a_delete_whose_answer_is_lost_fails_loudly(
    transport, index, secret_key, lose_first_answer
):
    with ThreadedTcpServer() as server:
        db = connect(transport, server.port, secret_key, index)
        try:
            db.create_table(EMP_DECL, rows=ROWS)
            lose_first_answer.append(MessageKind.DELETE_TUPLES)
            with pytest.raises(DatabaseError):
                db.delete("SELECT * FROM Emp WHERE dept = 'IT'")
            assert lose_first_answer == [MessageKind.DELETE_TUPLES] * 2
            assert db.count("Emp") == len(ROWS) - 1  # the first delivery applied
            assert db.delete("SELECT * FROM Emp WHERE dept = 'HR'") == 2
        finally:
            db.close()


@pytest.mark.parametrize("write", list(WRITES))
@pytest.mark.parametrize("index", [False, True], ids=["scan", "indexed"])
@pytest.mark.parametrize("transport", list(URLS))
def test_a_write_whose_answer_is_lost_fails_loudly_and_lands_once(
    transport, index, write, secret_key, lose_first_answer
):
    kind, run, count, selects = WRITES[write]
    with ThreadedTcpServer() as server:
        db = connect(transport, server.port, secret_key, index)
        try:
            db.create_table(EMP_DECL, rows=ROWS)
            lose_first_answer.append(kind)
            with pytest.raises(DatabaseError):
                run(db)
            assert lose_first_answer == [kind, kind]
            assert db.count("Emp") == count
            for where, rows in selects.items():
                outcome = db.select(f"SELECT * FROM Emp WHERE {where}")
                assert len(outcome.relation) == rows, where
        finally:
            db.close()
