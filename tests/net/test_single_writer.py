"""The provider's single-writer rule under a scheduler that switches constantly.

The stores take no lock: only a request holding relation X's lock in the
provider's ``handle_message`` may touch X, on every transport, and a
``load`` snapshot of the in-memory store is one C-level ``tuple()`` over
its map.  Here five worker threads hit one provider at once, in-process
and over ``tcp://``, on the in-memory store and the file-backed one, with
the interpreter switching threads every microsecond: inserts to ``A``,
whole-relation reads of ``A`` beside them, scans of ``B``, ``TUPLE_COUNT``
reads of ``A`` (waiting for ``A``'s lock), and the operator read-outs (the
``stats`` / ``metrics`` control operations over ``tcp://``, the provider's
own read-outs in-process) beside ``RELATION_NAMES`` envelopes.  No request may fail, no read of ``A`` may
miss a tuple acknowledged before it was sent or hold a torn or foreign
one, no scan may see a torn ``B``, no count of ``A`` may go backwards or
past what was acknowledged, and ``A`` must end holding exactly the inserted
tuples, in order.  The ``switching`` store forces the one thread switch a
missing lock needs to leave the in-memory store a stale snapshot, so that
case catches a missing lock every run, not by chance.  Then two threads
insert through one in-process session,
each reading back its own row: no acknowledged row may be missing, on the
in-memory store or the file-backed one.
"""

from __future__ import annotations

import contextlib
import json
import socket
import sys
import threading

import pytest

from repro.api import EncryptedDatabase
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.net import CHANNEL_CONTROL, ThreadedTcpServer, recv_frame, send_frame
from repro.core.dph import EncryptedRelation
from repro.outsourcing import (
    FileStorageBackend,
    InMemoryStorageBackend,
    MessageKind,
    OutsourcedDatabaseServer,
)
from repro.outsourcing.protocol import (
    MessageV2,
    decode_count,
    decode_evaluation_result,
    decode_relation_names,
    encode_encrypted_query,
    encode_insert_tuples,
    parse_message,
)
from repro.relational import Relation, RelationSchema, RelationTuple, Selection
from repro.schemes.plaintext import PlaintextDph

INSERTS = 200
ROUNDS = 60
#: Rows each of the two session writers inserts and reads back.
SESSION_INSERTS = 200
#: Loads of ``A`` the switching store holds open for a write, and how long.
SWITCHED_LOADS = 10
SWITCH_WAIT = 0.02


class SwitchingMemoryStore(InMemoryStorageBackend):
    """The in-memory store with the thread switch inside ``load`` forced.

    For its first :data:`SWITCHED_LOADS` snapshots of ``A``, ``load`` waits
    (up to :data:`SWITCH_WAIT`) for an ``append`` between taking the tuples
    and storing the snapshot, and an ``append`` to ``A`` waits as long for a
    load to be in that window.  A write that lands there -- only a missing
    relation lock lets one in -- leaves a stale snapshot, which every read
    of ``A`` gets until the next write, while that write waits out its own
    turn.  Under the lock each wait just runs out.
    """

    def __init__(self) -> None:
        super().__init__()
        self.switched = SWITCHED_LOADS
        self._taken, self._appended = threading.Event(), threading.Event()

    def load(self, name: str) -> EncryptedRelation:
        held = self._held(name)
        if name != "A" or held.snapshot is not None or self.switched <= 0:
            return super().load(name)
        self.switched -= 1
        tuples = tuple(held.tuples.values())
        self._appended.clear()
        self._taken.set()
        self._appended.wait(SWITCH_WAIT)
        self._taken.clear()
        held.snapshot = EncryptedRelation(schema=held.schema, encrypted_tuples=tuples)
        return held.snapshot

    def append(self, name: str, encrypted_tuples) -> None:
        if name == "A" and self.switched > 0:
            self._taken.wait(SWITCH_WAIT)
        super().append(name, encrypted_tuples)
        self._appended.set()


def _scheme(decl: str) -> PlaintextDph:
    return PlaintextDph(
        RelationSchema.parse(decl),
        SecretKey.generate(rng=DeterministicRng(7)),
        rng=DeterministicRng(8),
    )


@contextlib.contextmanager
def _switching_every_microsecond():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _run(workers) -> list[BaseException]:
    """Run each ``(work, *args)`` on a thread of its own; what they raised."""
    errors: list[BaseException] = []

    def guarded(work, *args):
        try:
            work(*args)
        except BaseException as exc:  # noqa: BLE001 - reported by the test thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=worker) for worker in workers]
    with _switching_every_microsecond():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not [thread for thread in threads if thread.is_alive()]
    return errors


class InProcess:
    """A worker's way to the provider: calls on the object itself."""

    def __init__(self, provider: OutsourcedDatabaseServer) -> None:
        self.provider = provider

    def envelope(self, kind: MessageKind, relation: str, body: bytes) -> MessageV2:
        raw = MessageV2(kind=kind, relation_name=relation, body=body).to_bytes()
        return parse_message(self.provider.handle_message(raw))

    def relations(self) -> list[str]:
        self.provider.audit_log.summary()
        self.provider.index_stats()
        return list(self.provider.relation_names)

    def counters(self) -> list:
        return self.provider.metrics_snapshot()["counters"]

    def close(self) -> None:
        pass


class OverTcp:
    """A worker's way to the provider: a connection of its own."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        self._control({"op": "hello"})

    def _control(self, request: dict) -> dict:
        send_frame(
            self.sock, json.dumps(request).encode(), channel=CHANNEL_CONTROL, correlation=1
        )
        answer = json.loads(recv_frame(self.sock).payload)
        assert answer["ok"], answer
        return answer

    def envelope(self, kind: MessageKind, relation: str, body: bytes) -> MessageV2:
        send_frame(self.sock, MessageV2(kind=kind, relation_name=relation, body=body).to_bytes())
        return parse_message(recv_frame(self.sock).payload)

    def relations(self) -> list[str]:
        return self._control({"op": "stats"})["relations"]

    def counters(self) -> list:
        return self._control({"op": "metrics"})["metrics"]["counters"]

    def close(self) -> None:
        self.sock.close()


@contextlib.contextmanager
def _transport(kind: str, provider: OutsourcedDatabaseServer):
    """Opens one worker's way to ``provider``."""
    if kind == "in-process":
        yield lambda: InProcess(provider)
        return
    with ThreadedTcpServer(provider) as server:
        yield lambda: OverTcp(server.port)


@pytest.mark.parametrize("storage", ["memory", "file", "switching"])
@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_writes_beside_scans_and_control_ops(transport, storage, tmp_path):
    a, b = _scheme("A(k:int[4])"), _scheme("B(name:string[6], v:int[4])")
    b_rows = [(f"b{i}", i % 3) for i in range(30)]
    store = {"file": lambda: FileStorageBackend(tmp_path), "switching": SwitchingMemoryStore}
    provider = OutsourcedDatabaseServer(storage=store.get(storage, lambda: None)())
    provider.store_relation(
        "A", a.encrypt_relation(Relation.from_rows(a.schema, [])), a.server_evaluator()
    )
    provider.store_relation(
        "B", b.encrypt_relation(Relation.from_rows(b.schema, b_rows)), b.server_evaluator()
    )
    new_tuples = [
        a.encrypt_tuple(RelationTuple.from_values(a.schema, (i,))) for i in range(INSERTS)
    ]
    scan_body = encode_encrypted_query(b.encrypt_query(Selection.equals("v", 1)))
    acknowledged = []  # inserts of A answered so far

    def ask(channel, kind: MessageKind, relation: str, body: bytes = b"") -> bytes:
        answer = channel.envelope(kind, relation, body)
        assert answer.kind is not MessageKind.ERROR, answer.body
        return answer.body

    def inserter(channel):
        for encrypted_tuple in new_tuples:
            body = encode_insert_tuples(b"", [encrypted_tuple])
            assert decode_count(ask(channel, MessageKind.INSERT_TUPLES, "A", body)) == 1
            acknowledged.append(encrypted_tuple)

    def reader(channel):
        """Reads all of ``A`` until the inserter is done: a torn file or a
        stale ``load`` snapshot (one a read stored after a write dropped
        it) shows here."""
        for _ in range(ROUNDS * 20):
            done = len(acknowledged)
            if done == INSERTS:
                break
            result, _ = decode_evaluation_result(ask(channel, MessageKind.FETCH_RELATION, "A"))
            seen = result.matching.encrypted_tuples
            assert seen == tuple(new_tuples[: len(seen)])  # whole tuples, in order
            assert len(seen) >= done, f"{done - len(seen)} acknowledged tuples missing"

    def scanner(channel):
        for _ in range(ROUNDS):
            result, _ = decode_evaluation_result(ask(channel, MessageKind.QUERY, "B", scan_body))
            assert len(result.matching) == 10
            assert result.examined == len(b_rows)

    def counter(channel):
        seen = 0
        for _ in range(ROUNDS * 2):
            done = len(acknowledged)
            count = decode_count(ask(channel, MessageKind.TUPLE_COUNT, "A"))
            assert done <= count <= INSERTS  # nothing lost, nothing invented
            assert count >= seen
            seen = count

    def operator(channel):
        for _ in range(ROUNDS):
            assert channel.relations() == ["A", "B"]
            assert channel.counters()
            names = ask(channel, MessageKind.RELATION_NAMES, "")
            assert decode_relation_names(names) == ("A", "B")

    def served(work, channel):
        try:
            work(channel)
        finally:
            channel.close()

    with _transport(transport, provider) as connect:
        errors = _run(
            (served, work, connect())
            for work in (inserter, reader, scanner, counter, operator)
        )
    assert not errors, errors
    assert provider.stored_relation("A").encrypted_tuples == tuple(new_tuples)
    assert provider._locks == {}  # no relation's lock outlives its last request
    if storage == "switching":
        assert provider.storage.switched == 0  # every forced switch was taken


@pytest.mark.parametrize("storage", ["memory", "file"])
def test_two_threads_inserting_through_one_in_process_session(storage, tmp_path):
    """Each writer reads back the row it was just acknowledged, while the
    other writes; at the end every acknowledged row is stored, once."""
    backend = FileStorageBackend(tmp_path) if storage == "file" else None
    db = EncryptedDatabase.open(
        b"single-writer-session-master-key", scheme="plaintext",
        storage=backend, rng=DeterministicRng(3),
    )
    db.create_table("T(name:string[8], k:int[6])")
    acknowledged = []

    def writer(prefix: str):
        for i in range(SESSION_INSERTS):
            name = f"{prefix}{i}"
            db.insert("T", (name, i))
            acknowledged.append(name)
            found = db.select(Selection.equals("name", name), table="T").relation
            assert [row["name"] for row in found] == [name], f"{name} not read back"

    with db:
        errors = _run([(writer, "a"), (writer, "b")])
        assert not errors, errors
        assert db.count("T") == len(acknowledged) == 2 * SESSION_INSERTS
        assert sorted(row["name"] for row in db.retrieve_all("T")) == sorted(acknowledged)
