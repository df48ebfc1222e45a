"""The provider's single-writer rule under a scheduler that switches constantly.

The in-memory store takes no lock: only a request holding relation X's
lock in the TCP front-end may touch X's map, and a ``load`` snapshot is
one C-level ``tuple()`` over it.  Here four client threads hit one
provider at once with the interpreter switching threads every
microsecond: inserts to ``A``, scans of ``B``, ``TUPLE_COUNT`` reads of
``A`` (waiting for ``A``'s lock), and the ``stats`` / ``metrics`` control
operations and ``RELATION_NAMES`` envelopes (other locks).  No request may fail, no scan
may see a torn ``B``, no count of ``A`` may go backwards or past what was
acknowledged, and ``A`` must end holding exactly the inserted tuples, in
order.
"""

from __future__ import annotations

import json
import socket
import sys
import threading

from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.net import CHANNEL_CONTROL, ThreadedTcpServer, recv_frame, send_frame
from repro.outsourcing import MessageKind, OutsourcedDatabaseServer
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


def _scheme(decl: str) -> PlaintextDph:
    return PlaintextDph(
        RelationSchema.parse(decl),
        SecretKey.generate(rng=DeterministicRng(7)),
        rng=DeterministicRng(8),
    )


def _client(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
    _control(sock, {"op": "hello"})
    return sock


def _control(sock: socket.socket, request: dict) -> dict:
    send_frame(sock, json.dumps(request).encode(), channel=CHANNEL_CONTROL, correlation=1)
    answer = json.loads(recv_frame(sock).payload)
    assert answer["ok"], answer
    return answer


def _envelope(sock: socket.socket, kind: MessageKind, relation: str, body: bytes):
    send_frame(sock, MessageV2(kind=kind, relation_name=relation, body=body).to_bytes())
    answer = parse_message(recv_frame(sock).payload)
    assert answer.kind is not MessageKind.ERROR, answer.body
    return answer


def test_writes_beside_scans_and_control_ops():
    a, b = _scheme("A(k:int[4])"), _scheme("B(name:string[6], v:int[4])")
    b_rows = [(f"b{i}", i % 3) for i in range(30)]
    provider = OutsourcedDatabaseServer()
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
    errors: list[BaseException] = []

    def inserter(sock):
        for encrypted_tuple in new_tuples:
            answer = _envelope(
                sock, MessageKind.INSERT_TUPLES, "A", encode_insert_tuples(b"", [encrypted_tuple])
            )
            assert decode_count(answer.body) == 1
            acknowledged.append(encrypted_tuple)

    def scanner(sock):
        for _ in range(ROUNDS):
            answer = _envelope(sock, MessageKind.QUERY, "B", scan_body)
            result, _ = decode_evaluation_result(answer.body)
            assert len(result.matching) == 10
            assert result.examined == len(b_rows)

    def counter(sock):
        seen = 0
        for _ in range(ROUNDS * 2):
            done = len(acknowledged)
            count = decode_count(_envelope(sock, MessageKind.TUPLE_COUNT, "A", b"").body)
            assert done <= count <= INSERTS  # nothing lost, nothing invented
            assert count >= seen
            seen = count

    def operator(sock):
        for _ in range(ROUNDS):
            assert _control(sock, {"op": "stats"})["relations"] == ["A", "B"]
            assert _control(sock, {"op": "metrics"})["metrics"]["counters"]
            names = _envelope(sock, MessageKind.RELATION_NAMES, "", b"").body
            assert decode_relation_names(names) == ("A", "B")

    def guarded(work, sock):
        try:
            work(sock)
        except BaseException as exc:  # noqa: BLE001 - reported by the test thread
            errors.append(exc)
        finally:
            sock.close()

    interval = sys.getswitchinterval()
    with ThreadedTcpServer(provider) as server:
        threads = [
            threading.Thread(target=guarded, args=(work, _client(server.port)))
            for work in (inserter, scanner, counter, operator)
        ]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not [thread for thread in threads if thread.is_alive()]
        locks = dict(server.server._locks)
    assert not errors, errors
    assert provider.stored_relation("A").encrypted_tuples == tuple(new_tuples)
    assert locks == {}  # no relation's lock outlives its last request
