"""The server's per-relation dispatch and pipelined connections.

Concurrency here is driven by *events*, not sleeps: a "slow" relation is a
provider whose ``handle_message`` blocks on a :class:`threading.Event` for
that relation, so every ordering assertion is deterministic.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest
from gated_provider import GatedServer, store_empty

from repro.core.dph import EncryptedRelation
from repro.crypto.keys import SecretKey
from repro.net import (
    CHANNEL_CONTROL,
    KeyedSerialDispatcher,
    ThreadedTcpServer,
    recv_frame,
    send_frame,
)
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import (
    MessageKind,
    MessageV2,
    decode_count,
    encode_insert_tuples,
    parse_message,
)
from repro.relational import RelationSchema, RelationTuple
from repro.schemes.plaintext import PlaintextDph

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"


class TestKeyedSerialDispatcher:
    def test_same_key_is_fifo(self):
        dispatcher = KeyedSerialDispatcher(max_workers=4)
        order = []
        gate = threading.Event()

        def job(index):
            if index == 0:
                gate.wait(timeout=10)
            order.append(index)
            return index

        futures = [dispatcher.submit("k", job, i) for i in range(5)]
        gate.set()
        assert [f.result(timeout=10) for f in futures] == list(range(5))
        assert order == list(range(5))
        dispatcher.shutdown()

    def test_different_keys_run_concurrently(self):
        dispatcher = KeyedSerialDispatcher(max_workers=4)
        gate = threading.Event()
        entered = threading.Event()

        def slow():
            entered.set()
            gate.wait(timeout=10)
            return "slow"

        slow_future = dispatcher.submit("slow-key", slow)
        assert entered.wait(timeout=10)
        # With the slow key's worker parked, other keys still execute.
        fast_future = dispatcher.submit("fast-key", lambda: "fast")
        assert fast_future.result(timeout=10) == "fast"
        assert not slow_future.done()
        gate.set()
        assert slow_future.result(timeout=10) == "slow"
        assert dispatcher.peak_concurrency >= 2
        assert dispatcher.total_dispatched == 2
        dispatcher.shutdown()

    def test_exceptions_travel_through_the_future(self):
        dispatcher = KeyedSerialDispatcher(max_workers=1)

        def boom():
            raise RuntimeError("kaboom")

        failing = dispatcher.submit("k", boom)
        healthy = dispatcher.submit("k", lambda: "after")
        with pytest.raises(RuntimeError, match="kaboom"):
            failing.result(timeout=10)
        # The key keeps draining after a failed job.
        assert healthy.result(timeout=10) == "after"
        dispatcher.shutdown()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            KeyedSerialDispatcher(max_workers=0)


def hello(sock) -> dict:
    send_frame(sock, json.dumps({"op": "hello"}).encode(),
               channel=CHANNEL_CONTROL, correlation=1)
    return json.loads(recv_frame(sock).payload)


def open_client(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    sock.settimeout(10.0)
    assert hello(sock)["ok"]
    return sock


class TestPipelinedConnections:
    def test_responses_echo_request_correlations(self):
        database = OutsourcedDatabaseServer()
        store_empty(database, EMP_DECL)
        with ThreadedTcpServer(database) as server:
            sock = open_client(server.port)
            try:
                envelope = MessageV2(
                    kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp"
                ).to_bytes()
                for correlation in (7, 99, 42):
                    send_frame(sock, envelope, correlation=correlation)
                seen = {recv_frame(sock).correlation for _ in range(3)}
                assert seen == {7, 99, 42}
            finally:
                sock.close()

    def test_interleaved_responses_on_one_connection(self):
        """A slow relation's response arrives *after* a fast one pipelined
        behind it, paired by correlation id (out-of-order completion)."""
        database = GatedServer()
        store_empty(database, EMP_DECL)
        store_empty(database, "Fast(name:string[8], v:int[4])")
        gate = database.gate("Emp")
        with ThreadedTcpServer(database) as server:
            sock = open_client(server.port)
            try:
                slow = MessageV2(
                    kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp"
                ).to_bytes()
                fast = MessageV2(
                    kind=MessageKind.LIST_TUPLE_IDS, relation_name="Fast"
                ).to_bytes()
                send_frame(sock, slow, correlation=1)
                assert database.entered["Emp"].wait(timeout=10)
                send_frame(sock, fast, correlation=2)
                first = recv_frame(sock)
                assert first.correlation == 2  # the fast relation overtook
                gate.set()
                second = recv_frame(sock)
                assert second.correlation == 1
                for frame in (first, second):
                    assert parse_message(frame.payload).kind is MessageKind.TUPLE_IDS
            finally:
                sock.close()

    def test_slow_relation_does_not_block_fast_relation_across_connections(self):
        database = GatedServer()
        store_empty(database, EMP_DECL)
        store_empty(database, "Fast(name:string[8], v:int[4])")
        gate = database.gate("Emp")
        with ThreadedTcpServer(database) as server:
            slow_sock = open_client(server.port)
            fast_sock = open_client(server.port)
            try:
                send_frame(
                    slow_sock,
                    MessageV2(kind=MessageKind.LIST_TUPLE_IDS,
                              relation_name="Emp").to_bytes(),
                    correlation=1,
                )
                assert database.entered["Emp"].wait(timeout=10)
                # While Emp is parked on its gate, Fast answers immediately.
                started = time.monotonic()
                send_frame(
                    fast_sock,
                    MessageV2(kind=MessageKind.LIST_TUPLE_IDS,
                              relation_name="Fast").to_bytes(),
                    correlation=1,
                )
                frame = recv_frame(fast_sock)
                elapsed = time.monotonic() - started
                assert parse_message(frame.payload).kind is MessageKind.TUPLE_IDS
                assert elapsed < 5.0  # nowhere near the gate's 30s ceiling
                gate.set()
                assert recv_frame(slow_sock).correlation == 1
            finally:
                slow_sock.close()
                fast_sock.close()

    def test_same_relation_requests_stay_fifo_under_pipelining(self):
        """Ten inserts into one relation, all in flight on one connection
        at once, apply in send order."""
        scheme = PlaintextDph(RelationSchema.parse("Log(seq:int[6])"), SecretKey.generate())
        database = GatedServer()
        database.store_relation(
            "Log",
            EncryptedRelation(schema=scheme.schema, encrypted_tuples=()),
            scheme.server_evaluator(),
        )
        gate = database.gate("Log")
        rows = [
            scheme.encrypt_tuple(RelationTuple.from_values(scheme.schema, (seq,)))
            for seq in range(10)
        ]
        with ThreadedTcpServer(database) as server:
            sock = open_client(server.port)
            try:
                for correlation, row in enumerate(rows, start=100):
                    send_frame(
                        sock,
                        MessageV2(
                            kind=MessageKind.INSERT_TUPLES,
                            relation_name="Log",
                            body=encode_insert_tuples(b"", [row]),
                        ).to_bytes(),
                        correlation=correlation,
                    )
                # The first insert holds the relation; the other nine queue
                # behind it, every one of them sent and unanswered.
                assert database.entered["Log"].wait(timeout=10)
                gate.set()
                answers = {}
                for _ in rows:
                    frame = recv_frame(sock)
                    answers[frame.correlation] = decode_count(
                        parse_message(frame.payload).body
                    )
                assert answers == {correlation: 1 for correlation in range(100, 110)}
            finally:
                sock.close()
        assert database.stored_relation("Log").encrypted_tuples == tuple(rows)

    def test_transport_fault_reaches_the_caller(self):
        """A frame the server's decoder rejects outright (no correlation
        id exists yet) is broadcast on correlation 0; the client folds the
        diagnostic into its connection error instead of dropping it."""
        from repro.api import EncryptedDatabase

        with ThreadedTcpServer(max_frame_size=4096) as server:
            db = EncryptedDatabase.connect(
                f"tcp://127.0.0.1:{server.port}", scheme="plaintext"
            )
            try:
                with pytest.raises(Exception) as excinfo:
                    db.create_table(
                        "Blob(name:string[64], v:int[6])",
                        rows=[("x" * 50 + str(i), i) for i in range(400)],
                    )
                assert "exceeds the 4096-byte limit" in str(excinfo.value)
            finally:
                db.close()
            # On the wire: the diagnostic rides correlation 0, not the
            # oversized request's id, and the server then hangs up.
            sock = open_client(server.port)
            try:
                send_frame(sock, b"\x00" * 8192, correlation=5)
                frame = recv_frame(sock)
                assert (frame.channel, frame.correlation) == (CHANNEL_CONTROL, 0)
                answer = json.loads(frame.payload)
                assert not answer["ok"] and "exceeds" in answer["error"]
                assert sock.recv(1) == b""
            finally:
                sock.close()

    def test_dispatch_stats_report_parallelism(self):
        database = GatedServer()
        store_empty(database, EMP_DECL)
        store_empty(database, "Fast(name:string[8], v:int[4])")
        gate = database.gate("Emp")
        with ThreadedTcpServer(database, dispatch_workers=3) as server:
            sock = open_client(server.port)
            try:
                send_frame(
                    sock,
                    MessageV2(kind=MessageKind.LIST_TUPLE_IDS,
                              relation_name="Emp").to_bytes(),
                    correlation=1,
                )
                assert database.entered["Emp"].wait(timeout=10)
                send_frame(
                    sock,
                    MessageV2(kind=MessageKind.LIST_TUPLE_IDS,
                              relation_name="Fast").to_bytes(),
                    correlation=2,
                )
                assert recv_frame(sock).correlation == 2
                gate.set()
                assert recv_frame(sock).correlation == 1
            finally:
                sock.close()
            stats = server.server.stats
            assert stats.as_dict()["dispatch_workers"] == 3
            assert stats.as_dict()["peak_concurrent_dispatch"] >= 2
            assert stats.as_dict()["requests_dispatched"] >= 2
            assert "dispatch 3 worker(s)" in stats.throughput_summary()
