"""The TCP front-end reveals nothing the in-process provider does not.

One seeded stream runs through an in-process provider and through
``tcp://``: create, indexed selects, inserts and deletes, then a second,
unindexed session's attach, one- and two-predicate scans and a
``select_many`` batch of them, count and full fetch, and the drop -- every
one of them an envelope.  (On ``tcp://`` the bounded requests are
answered from the connection's read callback, the rest on dispatch
workers -- every insert and delete among the former.)  What the sessions
receive -- every response envelope, byte for byte -- and what the provider
observes -- its audit sequence of ``(kind, relation_name, detail)`` -- must
be identical.  The last test breaks the TCP path on purpose and checks the
comparison notices.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.api import EncryptedDatabase
from repro.crypto.rng import DeterministicRng
from repro.net import ThreadedTcpServer
from repro.net.client import RemoteServerProxy
from repro.net.server import DatabaseTcpServer
from repro.outsourcing import MessageKind, OutsourcedDatabaseServer
from repro.outsourcing.audit import AuditEventKind
from repro.outsourcing.protocol import peek_envelope

KEY = b"transcript-test-master-key-32byt"
DECL = "Emp(name:string[10], dept:string[5], salary:int[6])"
DEPTS = ("HR", "IT", "SALES", "OPS")
#: One- and two-predicate scans; the conjunctions' second token meets only
#: the first one's survivors, which ``token_evaluations`` records.
SCANS = (
    "SELECT * FROM Emp WHERE dept = 'IT'",
    "SELECT * FROM Emp WHERE name = 'emp5' AND dept = 'IT'",
    "SELECT * FROM Emp WHERE dept = 'HR' AND name = 'emp4'",
    "SELECT * FROM Emp WHERE name = 'nobody' AND dept = 'OPS'",
)


class Recording:
    """The session's provider, with every response envelope kept."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.responses: list[bytes] = []

    def handle_message(self, raw: bytes) -> bytes:
        response = self._inner.handle_message(raw)
        self.responses.append(response)
        return response

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class WriteThreads(OutsourcedDatabaseServer):
    """A provider that notes the thread serving each tuple write."""

    WRITES = (MessageKind.INSERT_TUPLES, MessageKind.DELETE_TUPLES)

    def __init__(self) -> None:
        super().__init__()
        self.threads: list[str] = []

    def handle_message(self, raw: bytes) -> bytes:
        if peek_envelope(raw)[1] in self.WRITES:
            self.threads.append(threading.current_thread().name)
        return super().handle_message(raw)


def operations(seed: int) -> list[tuple]:
    """A seeded stream: mostly point selects, with inserts and deletes."""
    draw = random.Random(seed)
    ops = []
    for step in range(60):
        roll = draw.random()
        if roll < 0.6:
            ops.append(("select", f"SELECT * FROM Emp WHERE dept = '{draw.choice(DEPTS)}'"))
        elif roll < 0.85:
            ops.append(("insert", (f"new{step}", draw.choice(DEPTS), draw.randrange(10**5))))
        else:
            ops.append(("delete", f"SELECT * FROM Emp WHERE dept = '{draw.choice(DEPTS)}'"))
    return ops


def run(server, seed: int) -> tuple[list[bytes], list[tuple]]:
    """Drive the stream through ``server``; (responses, replies the session saw)."""
    recording = Recording(server)
    replies = []
    db = EncryptedDatabase.open(
        KEY, server=recording, rng=DeterministicRng(f"transcript/{seed}"), index=True
    )
    rows = [(f"emp{i}", DEPTS[i % len(DEPTS)], 1000 + i) for i in range(40)]
    db.create_table(DECL, rows=rows)
    for kind, argument in operations(seed):
        if kind == "select":
            replies.append(sorted(map(repr, db.select(argument).relation.tuples)))
        elif kind == "insert":
            db.insert("Emp", argument)
        else:
            replies.append(db.delete(argument))
    other = EncryptedDatabase.open(KEY, server=recording, rng=DeterministicRng(seed))
    other.attach_table(DECL)
    # No index on this session: every select is a scan through the match kernel.
    for query in SCANS:
        replies.append(sorted(map(repr, other.select(query).relation.tuples)))
    replies.append(
        [sorted(map(repr, o.relation.tuples)) for o in other.select_many(SCANS, table="Emp")]
    )
    replies.append(other.count("Emp"))
    replies.append(sorted(map(repr, other.retrieve_all("Emp").tuples)))
    db.drop_table("Emp")
    return recording.responses, replies


def observations(provider: OutsourcedDatabaseServer) -> list[tuple]:
    return [
        (event.kind, event.relation_name, event.detail)
        for event in provider.audit_log.events
    ]


def transcripts(seed: int):
    """(in-process, tcp) transcripts of one stream, the tcp server's stats and
    inline answers, and the threads that served the tcp side's writes."""
    local = OutsourcedDatabaseServer()
    local_responses, local_replies = run(local, seed)
    remote = WriteThreads()
    with ThreadedTcpServer(remote) as server:
        proxy = RemoteServerProxy("127.0.0.1", server.port)
        try:
            remote_responses, remote_replies = run(proxy, seed)
        finally:
            proxy.close()
        stats = server.server.stats
        inline = server.server._inline_answers
    assert local_replies == remote_replies
    return (
        (local_responses, observations(local)),
        (remote_responses, observations(remote)),
        stats,
        inline,
        remote.threads,
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_tcp_transcript_equals_the_in_process_one(seed):
    (
        (local_responses, local_audit),
        (remote_responses, remote_audit),
        stats,
        inline,
        write_threads,
    ) = transcripts(seed)
    assert remote_responses == local_responses
    assert remote_audit == local_audit
    kinds = {kind for kind, _, _ in local_audit}
    assert {
        AuditEventKind.RELATION_STORED,
        AuditEventKind.INDEX_STORED,
        AuditEventKind.INDEX_LOOKUP_SERVED,
        AuditEventKind.TUPLE_INSERTED,
        AuditEventKind.POSTINGS_APPLIED,
        AuditEventKind.TUPLES_DELETED,
        AuditEventKind.QUERY_EXECUTED,
        AuditEventKind.BATCH_EXECUTED,
        AuditEventKind.RELATION_DROPPED,
    } <= kinds
    # The scans' counters are part of what was compared, and a conjunction's
    # second token met fewer tuples than were examined.
    scans = [d for kind, _, d in local_audit if kind is AuditEventKind.QUERY_EXECUTED]
    assert len(scans) == 2 * len(SCANS)
    assert any(
        d["token_count"] == 2 and 0 < d["token_evaluations"] < 2 * d["examined"]
        for d in scans
    )
    # Both receive paths took part: bounded requests inline, the rest on workers.
    assert 0 < inline < stats.as_dict()["requests_dispatched"]
    # Every insert and delete was bounded, alone and on an idle relation.
    assert write_threads
    assert not [t for t in write_threads if t.startswith("repro-net-dispatch")]


def test_the_comparison_sees_an_extra_observation_on_the_inline_path(monkeypatch):
    original = DatabaseTcpServer._dispatch_envelope

    def leaky(self, trace_id, relation_name, payload, submitted_mono, path):
        if path == "inline":
            self._database.audit_log.record(
                AuditEventKind.TUPLE_IDS_LISTED, relation_name, id_count=0
            )
        return original(self, trace_id, relation_name, payload, submitted_mono, path)

    monkeypatch.setattr(DatabaseTcpServer, "_dispatch_envelope", leaky)
    (local_responses, local_audit), (remote_responses, remote_audit), _, inline, _ = (
        transcripts(1)
    )
    assert inline > 0
    assert remote_responses == local_responses  # the answers alone do not show it
    assert remote_audit != local_audit
