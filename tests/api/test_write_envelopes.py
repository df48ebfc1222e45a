"""Each logical write is one envelope, and a batch lands whole or not at all.

An insert of any number of rows is one ``INSERT_TUPLES``, a delete one
``DELETE_TUPLES`` after its lookup, an update its lookup plus those two --
an indexed session's postings ride in the same envelopes.  ``insert_many``
checks and encrypts every row before it sends anything, so a bad row
anywhere raises what inserting it alone raises and the provider sees
nothing; a batch past the provider's frame ceiling fails whole and leaves
the session usable.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.index.wire import encode_index_delta
from repro.net import RemoteServerProxy, ThreadedTcpServer
from repro.outsourcing import MessageKind, MessageV2, OutsourcedDatabaseServer
from repro.outsourcing.protocol import (
    encode_delete_tuples,
    encode_insert_tuples,
    parse_message,
    peek_envelope,
)

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(6)]
NEW = [("Zoe", "OPS", 1), ("Yan", "OPS", 2), ("Xi", "OPS", 3)]


class CountingServer(OutsourcedDatabaseServer):
    """Records the kind of every envelope it is handed."""

    def __init__(self) -> None:
        super().__init__()
        self.kinds: list[MessageKind] = []

    def handle_message(self, raw: bytes) -> bytes:
        self.kinds.append(peek_envelope(raw)[1])
        return super().handle_message(raw)


@contextlib.contextmanager
def session(provider, transport: str, secret_key, rng, index: bool):
    if transport == "in-process":
        with EncryptedDatabase.open(secret_key, server=provider, rng=rng, index=index) as db:
            yield db
        return
    with ThreadedTcpServer(provider) as tcp:
        url = f"tcp://127.0.0.1:{tcp.port}"
        with EncryptedDatabase.connect(url, secret_key, rng=rng, index=index) as db:
            yield db


@pytest.mark.parametrize("index", [False, True], ids=["scan", "indexed"])
@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_each_write_is_one_envelope_after_its_lookup(transport, index, secret_key, rng):
    provider = CountingServer()
    lookup = MessageKind.INDEX_LOOKUP if index else MessageKind.QUERY
    with session(provider, transport, secret_key, rng, index) as db:
        db.create_table(EMP_DECL, rows=ROWS)
        steps = (
            (lambda: db.insert("Emp", NEW[0]), [MessageKind.INSERT_TUPLES]),
            (lambda: db.insert_many("Emp", NEW[1:]), [MessageKind.INSERT_TUPLES]),
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
            before = len(provider.kinds)
            run()
            assert provider.kinds[before:] == expected
        assert db.count("Emp") == len(ROWS) + len(NEW) - 3
        assert len(db.select("SELECT * FROM Emp WHERE salary = 9").relation) == len(NEW)


#: Rows the schema refuses, each for its own reason.
BAD_ROWS = {
    "too few values": ("Eve", "HR"),
    "a string too long": ("x" * 15, "HR", 1),
    "a wrong type": ("Eve", "HR", "many"),
    "an integer too wide": ("Eve", "HR", 10**7),
    "a padding symbol": ("Eve#", "HR", 1),
    "a missing attribute": {"name": "Eve", "dept": "HR"},
}


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", list(BAD_ROWS))
@pytest.mark.parametrize("index", [False, True], ids=["scan", "indexed"])
def test_a_bad_row_anywhere_in_a_batch_sends_nothing(position, bad, index, secret_key, rng):
    provider = CountingServer()
    db = EncryptedDatabase.open(secret_key, server=provider, rng=rng, index=index)
    db.create_table(EMP_DECL, rows=ROWS)
    with pytest.raises(DatabaseError) as alone:
        db.insert("Emp", BAD_ROWS[bad])
    batch = {
        "first": [BAD_ROWS[bad], *NEW],
        "middle": [NEW[0], BAD_ROWS[bad], *NEW[1:]],
        "last": [*NEW, BAD_ROWS[bad]],
    }[position]
    sent, observed = len(provider.kinds), len(provider.audit_log.events)
    with pytest.raises(type(alone.value)) as raised:
        db.insert_many("Emp", batch)
    assert str(raised.value) == str(alone.value)
    assert provider.kinds[sent:] == []
    assert len(provider.audit_log.events) == observed
    assert db.count("Emp") == len(ROWS)
    assert len(db.select("SELECT * FROM Emp WHERE dept = 'OPS'").relation) == 0


@pytest.mark.parametrize("suffix", ["", "?async=1"], ids=["tcp", "async-key"])
def test_a_batch_past_the_frame_ceiling_fails_whole(suffix, secret_key, rng):
    with ThreadedTcpServer(max_frame_size=4096) as server:
        url = f"tcp://127.0.0.1:{server.port}{suffix}"
        with EncryptedDatabase.connect(url, secret_key, rng=rng, index=True) as db:
            assert type(db.server) is RemoteServerProxy
            db.create_table(EMP_DECL, rows=ROWS)
            big = [(f"row{i}", "OPS", i) for i in range(40)]
            with pytest.raises(DatabaseError, match="exceeds the 4096-byte limit"):
                db.insert_many("Emp", big)
            assert db.count("Emp") == len(ROWS)
            assert db.insert_many("Emp", big[:2]) == 2  # the session lives on
            assert db.count("Emp") == len(ROWS) + 2
            outcome = db.select("SELECT * FROM Emp WHERE dept = 'OPS'")
            assert sorted(t.value("name") for t in outcome.relation.tuples) == ["row0", "row1"]


def test_a_provider_checks_the_whole_write_before_applying_any(secret_key, rng):
    """A write to a missing relation, with damaged postings or with a cut
    tuple frame is an ``ERROR`` that applied nothing: no tuple, no posting,
    no audit event."""
    provider = CountingServer()
    db = EncryptedDatabase.open(secret_key, server=provider, rng=rng, index=True)
    db.create_table(EMP_DECL, rows=ROWS)
    handle = db.table("Emp")
    row = dict(zip(handle.schema.attribute_names, NEW[0]))
    new = handle.scheme.encrypt_tuples([db._make_tuple(handle.schema, row)])
    postings = encode_index_delta(handle.indexer.insert_delta(row, new[0].tuple_id))
    some_id = provider.stored_relation("Emp").encrypted_tuples[0].tuple_id
    tuples = encode_insert_tuples(postings, new)
    writes = (
        ("Nope", MessageKind.INSERT_TUPLES, tuples),
        ("Emp", MessageKind.INSERT_TUPLES, encode_insert_tuples(postings[:-1], new)),
        ("Emp", MessageKind.INSERT_TUPLES, tuples[:-1]),
        ("Emp", MessageKind.DELETE_TUPLES, encode_delete_tuples([some_id], b"\x00\x00\x00\x01")),
    )
    for name, kind, body in writes:
        observed = len(provider.audit_log.events)
        answer = parse_message(provider.handle_message(MessageV2(kind, name, body).to_bytes()))
        assert answer.kind is MessageKind.ERROR, (name, kind)
        assert len(provider.audit_log.events) == observed
        assert provider.tuple_count("Emp") == len(ROWS)
    assert len(db.select("SELECT * FROM Emp WHERE dept = 'OPS'").relation) == 0
