"""Edge cases of the TCP serving layer: negotiation, hostile bytes, lifecycle."""

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


def send_hello(sock, versions=(1, 2)) -> dict:
    send_frame(sock, json.dumps({"op": "hello", "versions": list(versions)}).encode(),
               channel=CHANNEL_CONTROL)
    frame = recv_frame(sock)
    return json.loads(frame.payload)


class TestHelloNegotiation:
    def test_negotiates_highest_common_version(self, provider):
        sock = raw_connection(provider.port)
        try:
            hello = send_hello(sock)
            assert hello["ok"] and hello["version"] == 2
            assert hello["versions"] == [2, 3]
            assert hello["max_frame_size"] > 0
        finally:
            sock.close()

    def test_v1_only_client_is_refused(self, provider):
        sock = raw_connection(provider.port)
        try:
            hello = send_hello(sock, versions=(1,))
            assert not hello["ok"]
            assert "no common protocol version" in hello["error"]
            assert recv_frame(sock) is None  # server hung up
        finally:
            sock.close()

    def test_no_common_version_is_an_error(self, provider):
        sock = raw_connection(provider.port)
        try:
            hello = send_hello(sock, versions=(99,))
            assert not hello["ok"]
            assert "common protocol version" in hello["error"]
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

    def test_proxy_refuses_a_v1_only_provider(self):
        class V1OnlyServer(OutsourcedDatabaseServer):
            SUPPORTED_PROTOCOL_VERSIONS = (1,)

        with ThreadedTcpServer(V1OnlyServer()) as server:
            with pytest.raises(RemoteError, match="no common protocol version"):
                RemoteServerProxy("127.0.0.1", server.port)
            with pytest.raises(DatabaseError, match="no common protocol version"):
                EncryptedDatabase.connect(f"tcp://127.0.0.1:{server.port}")


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
