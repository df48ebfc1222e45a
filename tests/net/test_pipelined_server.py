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

from repro.net import (
    CHANNEL_CONTROL,
    KeyedSerialDispatcher,
    ThreadedTcpServer,
    recv_frame,
    send_frame,
)
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import MessageKind, MessageV2, parse_message

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
        """Pipelined inserts into one relation apply in send order."""
        from repro.api import EncryptedDatabase

        with ThreadedTcpServer() as server:
            db = EncryptedDatabase.connect(
                f"tcp://127.0.0.1:{server.port}?async=1", scheme="plaintext"
            )
            try:
                db.create_table("Log(seq:int[6])")
                threads = [
                    threading.Thread(target=db.insert, args=("Log", {"seq": i}))
                    for i in range(10)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert db.count("Log") == 10
                db.drop_table("Log")
            finally:
                db.close()

    def test_transport_fault_reaches_the_caller(self):
        """A frame the server's decoder rejects outright (no correlation
        id exists yet) is broadcast on correlation 0; the client folds the
        diagnostic into its connection error instead of dropping it."""
        from repro.api import EncryptedDatabase
        from repro.net import AsyncRemoteServerProxy, ConnectionLostError

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
            # The pipelined client surfaces the same diagnostic.
            proxy = AsyncRemoteServerProxy("127.0.0.1", server.port)
            try:
                with pytest.raises(ConnectionLostError, match="exceeds"):
                    proxy._transport_envelope(b"\x00" * 8192, idempotent=False)
            finally:
                proxy.close()

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
