"""The server's per-relation locks and pipelined connections.

Concurrency here is driven by *events*, not sleeps: a "slow" relation is a
provider that blocks on a :class:`threading.Event` for that relation, under
the relation's lock, so every ordering assertion is deterministic.
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
    ThreadedTcpServer,
    recv_frame,
    send_frame,
    throughput_summary,
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
        """Two relations served at once, on two connections' threads."""
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
                send_frame(
                    fast_sock,
                    MessageV2(kind=MessageKind.LIST_TUPLE_IDS,
                              relation_name="Fast").to_bytes(),
                    correlation=2,
                )
                assert recv_frame(fast_sock).correlation == 2
                gate.set()
                assert recv_frame(slow_sock).correlation == 1
            finally:
                slow_sock.close()
                fast_sock.close()
            stats = server.server.stats
            assert stats["peak_concurrent_dispatch"] >= 2
            assert stats["requests_dispatched"] >= 2
            assert "peak 2 concurrent" in throughput_summary(stats)


class ExplodingServer(OutsourcedDatabaseServer):
    """``handle_message`` raises for relation ``Emp`` -- a provider bug."""

    def handle_message(self, raw: bytes) -> bytes:
        if parse_message(raw).relation_name == "Emp":
            raise RuntimeError("kaboom")
        return super().handle_message(raw)


def ask(sock: socket.socket, relation: str, correlation: int = 5, trace_id=None):
    envelope = MessageV2(MessageKind.LIST_TUPLE_IDS, relation, trace_id=trace_id)
    send_frame(sock, envelope.to_bytes(), correlation=correlation)
    frame = recv_frame(sock)
    assert frame.correlation == correlation
    return frame


def ping(sock: socket.socket) -> dict:
    send_frame(sock, json.dumps({"op": "ping"}).encode(), channel=CHANNEL_CONTROL)
    return json.loads(recv_frame(sock).payload)


class TestTheOneDispatchPath:
    def test_an_escaping_exception_is_a_control_frame_and_the_connection_lives(self):
        database = ExplodingServer()
        store_empty(database, EMP_DECL)
        store_empty(database, "Fast(name:string[8], v:int[4])")
        with ThreadedTcpServer(database) as server:
            sock, sibling = open_client(server.port), open_client(server.port)
            try:
                frame = ask(sock, "Emp", correlation=77)
                assert frame.channel == CHANNEL_CONTROL
                assert json.loads(frame.payload) == {
                    "ok": False, "error": "internal dispatch failure: kaboom",
                }
                # Neither this connection nor its sibling died of it, and
                # the relation's lock was let go.
                answer = parse_message(ask(sock, "Fast").payload)
                assert answer.kind is MessageKind.TUPLE_IDS
                assert ping(sibling) == {"ok": True}
            finally:
                sock.close()
                sibling.close()
            assert database._locks == {}

    def test_a_traced_request_is_a_span_a_buffered_trace_and_a_slow_query(self):
        database = OutsourcedDatabaseServer(slow_query_threshold=0.0)
        store_empty(database, EMP_DECL)
        trace_id = b"\x7a" * 16
        with ThreadedTcpServer(database) as server:
            sock = open_client(server.port)
            try:
                ask(sock, "Emp", trace_id=trace_id)
                ask(sock, "Emp")
            finally:
                sock.close()
            trace = database.trace_buffer.get(trace_id)
            (dispatch,) = [s for s in trace["spans"] if s["name"] == "server.dispatch"]
            assert set(dispatch["annotations"]) == {"relation", "queue_wait_s"}
            assert dispatch["annotations"]["relation"] == "Emp"
            assert dispatch["annotations"]["queue_wait_s"] >= 0
            assert len(database.slow_queries) == 1
            queue_waits = [
                h for h in server.server.metrics.snapshot()["histograms"]
                if h["name"] == "server_dispatch_queue_seconds"
                and h["labels"] == {"relation": "Emp"}
            ]
            assert queue_waits[0]["count"] == 2  # traced or not

    def test_stop_closes_an_idle_connection_and_lets_a_busy_one_finish(self):
        database = GatedServer()
        store_empty(database, EMP_DECL)
        gate = database.gate("Emp")
        server = ThreadedTcpServer(database).start()
        busy, idle = open_client(server.port), open_client(server.port)
        try:
            send_frame(
                busy,
                MessageV2(MessageKind.LIST_TUPLE_IDS, "Emp").to_bytes(),
                correlation=9,
            )
            assert database.entered["Emp"].wait(timeout=10)
            stopping = threading.Thread(target=server.stop)
            stopping.start()
            assert recv_frame(idle) is None  # cut at once
            assert stopping.is_alive()  # the busy connection holds the stop
            gate.set()
            frame = recv_frame(busy)
            assert frame.correlation == 9
            assert parse_message(frame.payload).kind is MessageKind.TUPLE_IDS
            assert recv_frame(busy) is None  # then a clean close
            stopping.join(timeout=10)
            assert not stopping.is_alive()
            assert server.server.stats["connections_active"] == 0
        finally:
            gate.set()
            busy.close()
            idle.close()
            server.stop()
