"""Edge cases of the TCP serving layer: the hello, hostile bytes, lifecycle."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.net import (
    CHANNEL_CONTROL,
    CHANNEL_ENVELOPE,
    RemoteError,
    RemoteServerProxy,
    ThreadedTcpServer,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.net.client import ConnectionLostError, ConnectionPool, RemoteConnection, parse_tcp_url
from repro.outsourcing import MessageKind, MessageV2, OutsourcedDatabaseServer

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"


@pytest.fixture
def provider():
    with ThreadedTcpServer() as server:
        yield server


def raw_connection(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    sock.settimeout(5.0)
    return sock


def send_hello(sock, **fields) -> dict:
    send_frame(sock, json.dumps({"op": "hello", **fields}).encode(),
               channel=CHANNEL_CONTROL)
    frame = recv_frame(sock)
    return json.loads(frame.payload)


def control(sock, request: dict) -> dict:
    send_frame(sock, json.dumps(request).encode(), channel=CHANNEL_CONTROL)
    return json.loads(recv_frame(sock).payload)


class TestHello:
    def test_a_bare_hello_is_greeted(self, provider):
        sock = raw_connection(provider.port)
        try:
            hello = send_hello(sock)
            assert hello == {
                "ok": True,
                "server": "repro-provider",
                "max_frame_size": hello["max_frame_size"],
            }
            assert hello["max_frame_size"] > 0
            assert control(sock, {"op": "ping"})["ok"]
        finally:
            sock.close()

    @pytest.mark.parametrize("versions", [[1, 2], [1], [99], "junk"])
    def test_a_hello_carrying_a_versions_list_is_greeted(self, provider, versions):
        # An older client still sends the list it once offered; it is ignored.
        sock = raw_connection(provider.port)
        try:
            assert send_hello(sock, versions=versions)["ok"]
            assert control(sock, {"op": "ping"})["ok"]
        finally:
            sock.close()

    @pytest.mark.parametrize("payload", [b'"hello"', b'["hello"]', b"{}", b"42"])
    def test_a_non_object_hello_is_refused_and_closed(self, provider, payload):
        sock = raw_connection(provider.port)
        try:
            send_frame(sock, payload, channel=CHANNEL_CONTROL)
            response = json.loads(recv_frame(sock).payload)
            assert not response["ok"]
            assert "malformed control frame" in response["error"]
            assert recv_frame(sock) is None  # server hung up
        finally:
            sock.close()

    def test_envelope_before_hello_rejected_and_closed(self, provider):
        sock = raw_connection(provider.port)
        try:
            frame = MessageV2(kind=MessageKind.QUERY, relation_name="Emp").to_bytes()
            send_frame(sock, frame, channel=CHANNEL_ENVELOPE)
            response = json.loads(recv_frame(sock).payload)
            assert not response["ok"]
            assert "hello" in response["error"]
            assert recv_frame(sock) is None  # server hung up
        finally:
            sock.close()

    def test_a_control_op_before_hello_rejected_and_closed(self, provider):
        sock = raw_connection(provider.port)
        try:
            response = control(sock, {"op": "ping"})
            assert not response["ok"]
            assert "hello" in response["error"]
            assert recv_frame(sock) is None
        finally:
            sock.close()


class TestTraceLimit:
    @pytest.fixture
    def traced_provider(self, provider, secret_key):
        with EncryptedDatabase.connect(
            f"tcp://127.0.0.1:{provider.port}", secret_key
        ) as db:
            db.create_table(EMP_DECL, rows=[("a", "HR", 1), ("b", "IT", 2)])
            for dept in ("HR", "IT", "OPS"):
                db.select(f"SELECT * FROM Emp WHERE dept = '{dept}'")
        yield provider

    def test_limit_bounds_the_recent_traces(self, traced_provider):
        sock = raw_connection(traced_provider.port)
        try:
            assert send_hello(sock)["ok"]
            assert len(control(sock, {"op": "trace", "limit": 10})["traces"]) >= 3
            assert len(control(sock, {"op": "trace", "limit": 2})["traces"]) == 2
            response = control(sock, {"op": "trace", "limit": 0})
            assert response["ok"]
            assert response["traces"] == [] and response["slow"] == []
        finally:
            sock.close()

    def test_a_negative_limit_is_malformed_and_the_connection_lives(
        self, traced_provider
    ):
        sock = raw_connection(traced_provider.port)
        try:
            assert send_hello(sock)["ok"]
            response = control(sock, {"op": "trace", "limit": -2})
            assert not response["ok"]
            assert "malformed 'trace' request" in response["error"]
            assert control(sock, {"op": "ping"})["ok"]
        finally:
            sock.close()


class TestHostileBytes:
    def test_garbage_stream_answered_with_error_then_closed(self, provider):
        sock = raw_connection(provider.port)
        try:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: eve\r\n\r\n")
            frame = recv_frame(sock)
            assert frame.channel == CHANNEL_CONTROL
            assert not json.loads(frame.payload)["ok"]
            assert recv_frame(sock) is None
        finally:
            sock.close()

    def test_oversized_frame_rejected(self):
        with ThreadedTcpServer(max_frame_size=1024) as server:
            sock = raw_connection(server.port)
            try:
                sock.sendall((1024 * 1024).to_bytes(4, "big"))
                response = json.loads(recv_frame(sock).payload)
                assert not response["ok"]
                assert "exceeds" in response["error"]
            finally:
                sock.close()

    def test_truncated_frame_then_close_leaves_server_alive(self, provider):
        sock = raw_connection(provider.port)
        sock.sendall(encode_frame(b"x" * 64, channel=CHANNEL_CONTROL)[:-10])
        sock.close()  # peer dies mid-frame
        # the server survives and serves the next connection normally
        fresh = raw_connection(provider.port)
        try:
            assert send_hello(fresh)["ok"]
        finally:
            fresh.close()

    def test_garbage_envelope_after_hello_is_fatal_for_the_connection(self, provider):
        sock = raw_connection(provider.port)
        try:
            assert send_hello(sock)["ok"]
            send_frame(sock, b"\x00not-an-envelope", channel=CHANNEL_ENVELOPE)
            response = json.loads(recv_frame(sock).payload)
            assert not response["ok"]
            assert recv_frame(sock) is None
        finally:
            sock.close()

    def test_malformed_control_json_rejected(self, provider):
        sock = raw_connection(provider.port)
        try:
            send_frame(sock, b"{not json", channel=CHANNEL_CONTROL)
            response = json.loads(recv_frame(sock).payload)
            assert not response["ok"]
        finally:
            sock.close()

    def test_unknown_control_op_is_non_fatal(self, provider):
        sock = raw_connection(provider.port)
        try:
            assert send_hello(sock)["ok"]
            send_frame(sock, json.dumps({"op": "format-disk"}).encode(),
                       channel=CHANNEL_CONTROL)
            response = json.loads(recv_frame(sock).payload)
            assert not response["ok"]
            # ... but the connection survives protocol-level errors
            send_frame(sock, json.dumps({"op": "ping"}).encode(), channel=CHANNEL_CONTROL)
            assert json.loads(recv_frame(sock).payload)["ok"]
        finally:
            sock.close()


class TestConcurrentClients:
    def test_many_sessions_one_provider(self, provider, secret_key):
        """Six threads, each with its own table, hammering one provider."""
        errors = []

        def worker(index: int) -> None:
            try:
                db = EncryptedDatabase.connect(
                    f"tcp://127.0.0.1:{provider.port}", secret_key, pool_size=2
                )
                decl = f"T{index}(name:string[10], value:int[6])"
                db.create_table(decl, rows=[(f"row{i}", i) for i in range(20)])
                for i in range(10):
                    outcome = db.select(
                        f"SELECT * FROM T{index} WHERE value = {i}"
                    )
                    assert len(outcome.relation) == 1, (index, i)
                db.insert(f"T{index}", {"name": "extra", "value": 999})
                assert db.count(f"T{index}") == 21
                db.close()
            except Exception as exc:  # noqa: BLE001 - collected for the assert below
                errors.append((index, exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        stats = provider.server.stats.as_dict()
        assert stats["connections_total"] >= 6
        names = provider.server.database_server.relation_names
        assert set(names) == {f"T{i}" for i in range(6)}

    def test_stats_count_frames_and_bytes(self, provider, secret_key):
        db = EncryptedDatabase.connect(f"tcp://127.0.0.1:{provider.port}", secret_key)
        db.create_table(EMP_DECL, rows=[("A", "HR", 1)])
        db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        proxy = db.server
        stats = proxy.server_stats()
        assert stats["stats"]["connections_total"] >= 1
        assert stats["stats"]["envelope_frames"] >= 2  # store + query
        assert stats["stats"]["control_frames"] == 2  # hello + this read-out
        assert stats["audit"]["query-executed"] >= 1
        assert stats["relations"] == ["Emp"]
        db.close()


class TestReconnect:
    def test_client_survives_a_provider_restart(self, secret_key):
        """The same provider state behind a bounced TCP front-end."""
        database = OutsourcedDatabaseServer()
        first = ThreadedTcpServer(database).start()
        port = first.port
        db = EncryptedDatabase.connect(f"tcp://127.0.0.1:{port}", secret_key)
        db.create_table(EMP_DECL, rows=[("A", "HR", 1), ("B", "IT", 2)])
        assert db.count("Emp") == 2
        first.stop()

        # every pooled connection is now dead; restart on the same port
        second = ThreadedTcpServer(database, port=port).start()
        try:
            assert db.count("Emp") == 2  # transparent retry on a fresh socket
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 1
            db.insert("Emp", {"name": "C", "dept": "HR", "salary": 3})
            assert db.count("Emp") == 3
            db.close()
        finally:
            second.stop()

    def test_call_with_provider_down_raises_remote_error(self, secret_key):
        server = ThreadedTcpServer().start()
        port = server.port
        db = EncryptedDatabase.connect(f"tcp://127.0.0.1:{port}", secret_key)
        db.create_table(EMP_DECL, rows=[("A", "HR", 1)])
        server.stop()
        with pytest.raises(Exception) as excinfo:
            db.count("Emp")
        # surfaced through the facade's error type, not a raw socket error
        assert isinstance(excinfo.value, DatabaseError)
        db.close()


class TestClientPieces:
    def test_parse_tcp_url(self):
        assert parse_tcp_url("tcp://localhost:7707") == ("localhost", 7707)
        for bad in ("http://x:1", "tcp://nohost", "tcp://h:1/path", "tcp://:9",
                    "tcp://h:abc", "tcp://h:99999"):
            with pytest.raises(RemoteError):
                parse_tcp_url(bad)

    def test_connect_refused_surfaces_cleanly(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            unused_port = placeholder.getsockname()[1]
        with pytest.raises(ConnectionLostError):
            RemoteConnection("127.0.0.1", unused_port, timeout=1.0)

    def test_pool_bounds_concurrent_checkouts(self, provider):
        built = []

        def factory():
            connection = RemoteConnection("127.0.0.1", provider.port)
            built.append(connection)
            return connection

        pool = ConnectionPool(factory, max_size=2)
        with pool.checkout() as a, pool.checkout() as b:
            assert a is not b
        # both went back to the pool; a third checkout reuses, not rebuilds
        with pool.checkout():
            pass
        assert len(built) == 2
        pool.close()

    def test_pool_discards_broken_connections(self, provider):
        pool = ConnectionPool(
            lambda: RemoteConnection("127.0.0.1", provider.port), max_size=2
        )
        with pytest.raises(RuntimeError):
            with pool.checkout() as connection:
                raise RuntimeError("boom")
        # the failed connection was not returned to the pool
        with pool.checkout() as fresh:
            assert fresh.call_control("ping")["ok"]
        pool.close()

    def test_pool_reuses_connection_after_protocol_level_error(self, provider):
        """An ok:false answer completes the round trip; no reconnect churn."""
        built = []

        def factory():
            connection = RemoteConnection("127.0.0.1", provider.port)
            built.append(connection)
            return connection

        pool = ConnectionPool(factory, max_size=2)
        with pytest.raises(RemoteError):
            with pool.checkout() as connection:
                connection.call_control("no-such-op")
        with pool.checkout() as connection:
            assert connection.call_control("ping")["ok"]
        assert len(built) == 1  # the same healthy connection served both
        pool.close()

    def test_non_idempotent_ops_are_not_retried_once_delivered(self, provider):
        proxy = RemoteServerProxy("127.0.0.1", provider.port)
        calls = []

        def exploding(connection):
            calls.append(connection)
            raise ConnectionLostError("late failure", request_delivered=True)

        # delivered + idempotent -> one retry; delivered + non-idempotent -> none
        with pytest.raises(ConnectionLostError):
            proxy._call(exploding, idempotent=True)
        assert len(calls) == 2
        calls.clear()
        with pytest.raises(ConnectionLostError):
            proxy._call(exploding, idempotent=False)
        assert len(calls) == 1
        proxy.close()

    def test_closed_pool_rejects_checkout(self, provider):
        pool = ConnectionPool(
            lambda: RemoteConnection("127.0.0.1", provider.port), max_size=1
        )
        pool.close()
        with pytest.raises(RemoteError, match="closed"):
            with pool.checkout():
                pass


class TestGracefulShutdown:
    def test_stop_drains_and_reports(self, secret_key):
        server = ThreadedTcpServer().start()
        db = EncryptedDatabase.connect(f"tcp://127.0.0.1:{server.port}", secret_key)
        db.create_table(EMP_DECL, rows=[("A", "HR", 1)])
        db.close()
        server.stop()
        stats = server.server.stats
        counts = stats.as_dict()
        assert counts["connections_active"] == 0
        assert counts["connections_total"] >= 1
        assert counts["frames_received"] == (
            counts["envelope_frames"] + counts["control_frames"]
        )
        assert "connection(s)" in stats.throughput_summary()

    def test_double_stop_is_idempotent(self):
        server = ThreadedTcpServer().start()
        server.stop()
        server.stop()
