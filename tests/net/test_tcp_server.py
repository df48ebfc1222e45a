"""Edge cases of the TCP serving layer: the hello, hostile bytes, lifecycle."""

from __future__ import annotations

import contextlib
import json
import socket
import sys
import threading
import time

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
    throughput_summary,
)
from repro.net.client import ConnectionLostError, RemoteConnection, parse_tcp_url
from repro.outsourcing import MessageKind, MessageV2, OutsourcedDatabaseServer

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
DEPTS = ("HR", "IT", "OPS", "SALES")
READ = MessageV2(kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp").to_bytes()
WRITE = MessageV2(kind=MessageKind.INSERT_TUPLES, relation_name="Emp").to_bytes()
ANSWER = MessageV2(kind=MessageKind.TUPLE_IDS, relation_name="Emp", body=bytes(64)).to_bytes()


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
        stats = provider.server.stats
        assert stats["connections_total"] >= 6
        names = provider.server.database_server.relation_names
        assert set(names) == {f"T{i}" for i in range(6)}

    def test_eight_threads_share_one_pooled_session(self, provider, secret_key):
        """Eight threads through one blocking session of four pooled
        connections: every answer equals the plaintext oracle's."""
        rows = [(f"emp{i}", DEPTS[i % len(DEPTS)], 1000 + i) for i in range(40)]
        oracle = {
            dept: sorted(row[0] for row in rows if row[1] == dept) for dept in DEPTS
        }
        db = EncryptedDatabase.connect(
            f"tcp://127.0.0.1:{provider.port}", secret_key, pool_size=4
        )
        db.create_table(EMP_DECL, rows=rows)
        answers, errors = [], []
        barrier = threading.Barrier(8)

        def reader(offset: int) -> None:
            try:
                barrier.wait(timeout=10)
                for step in range(12):
                    dept = DEPTS[(offset + step) % len(DEPTS)]
                    outcome = db.select(f"SELECT * FROM Emp WHERE dept = '{dept}'")
                    answers.append((dept, sorted(t["name"] for t in outcome.relation)))
            except Exception as exc:  # noqa: BLE001 - collected for the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            db.close()
        assert not errors and not any(thread.is_alive() for thread in threads), errors
        assert len(answers) == 8 * 12
        assert all(names == oracle[dept] for dept, names in answers)
        assert provider.server.stats["connections_total"] <= 4

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

    @pytest.mark.parametrize("raw, sent", [(READ, 2), (WRITE, 1)], ids=["read", "write"])
    def test_a_request_the_peer_hangs_up_on_fails_as_delivered(self, raw, sent):
        """A provider that reads the request and closes without answering:
        the read is resent once on a fresh connection, the write never."""
        def hang_up(conn, frame, index, stop):
            conn.shutdown(socket.SHUT_RDWR)

        with scripted_provider(hang_up) as (address, requests):
            with RemoteServerProxy(*address, timeout=5.0) as proxy:
                with pytest.raises(ConnectionLostError, match="closed the connection") as excinfo:
                    proxy.handle_message(raw)
        assert excinfo.value.request_delivered
        assert len(requests) == sent


def drip(conn: socket.socket, data: bytes, gap: float, stop: threading.Event) -> None:
    """Send ``data`` a byte at a time, ``gap`` seconds apart, until ``stop``."""
    with contextlib.suppress(OSError):  # the client hung up
        for byte in data:
            if stop.wait(gap):
                return
            conn.sendall(bytes([byte]))


def answer(frame, payload: bytes = ANSWER) -> bytes:
    return encode_frame(payload, channel=frame.channel, correlation=frame.correlation)


@contextlib.contextmanager
def scripted_provider(reply, hello_gap: float = 0.0):
    """A raw-socket provider whose answers a test scripts.

    It greets every connection -- at once, or a byte every ``hello_gap``
    seconds -- and hands the n-th envelope request it reads, counted over
    all connections from 0, to ``reply(conn, frame, n, stop)``.  Yields
    ``(address, requests)``, ``requests`` collecting every envelope frame.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)
    stop = threading.Event()
    requests = []
    lock = threading.Lock()

    def serve(conn: socket.socket) -> None:
        conn.settimeout(10.0)
        with conn, contextlib.suppress(OSError):
            hello = recv_frame(conn)
            greeting = answer(hello, b'{"ok": true}')
            if hello_gap:
                drip(conn, greeting, hello_gap, stop)
                return
            conn.sendall(greeting)
            while (frame := recv_frame(conn)) is not None and not stop.is_set():
                with lock:
                    requests.append(frame)
                    index = len(requests) - 1
                reply(conn, frame, index, stop)

    def accept() -> None:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=serve, args=(conn,), daemon=True).start()

    acceptor = threading.Thread(target=accept, daemon=True)
    acceptor.start()
    try:
        yield listener.getsockname(), requests
    finally:
        stop.set()
        listener.close()
        acceptor.join(timeout=10)


def envelope_round_trip(connection: RemoteConnection, raw: bytes) -> bytes:
    """One envelope round trip on one connection: its two halves in turn."""
    connection.send(raw, CHANNEL_ENVELOPE)
    return connection.receive().payload


def timed(call):
    """``(result or raised exception, seconds taken)`` of ``call()``."""
    started = time.monotonic()
    try:
        outcome = call()
    except ConnectionLostError as exc:
        outcome = exc
    return outcome, time.monotonic() - started


class TestRoundTripDeadline:
    TIMEOUT = 0.5

    def test_a_trickled_reply_times_out_within_two_timeouts(self):
        """``timeout`` bounds the whole round trip, not each ``recv``: a
        provider that answers the hello and then drips its reply a byte at
        a time fails the call, after one retry of the idempotent read."""

        def trickle(conn, frame, index, stop):  # well past the timeout in all
            drip(conn, answer(frame), 0.05, stop)

        with scripted_provider(trickle) as (address, requests):
            with RemoteServerProxy(*address, timeout=self.TIMEOUT) as proxy:
                outcome, elapsed = timed(lambda: proxy.handle_message(READ))
        assert isinstance(outcome, ConnectionLostError)
        assert "did not answer within" in str(outcome)
        assert len(requests) == 2  # the read, and its one retry
        assert elapsed < 2 * self.TIMEOUT + 0.5, elapsed

    def test_a_trickled_write_times_out_within_one_timeout_and_is_not_resent(self):
        def trickle(conn, frame, index, stop):
            drip(conn, answer(frame), 0.05, stop)

        with scripted_provider(trickle) as (address, requests):
            with RemoteServerProxy(*address, timeout=self.TIMEOUT) as proxy:
                outcome, elapsed = timed(lambda: proxy.handle_message(WRITE))
        assert isinstance(outcome, ConnectionLostError)
        assert outcome.request_delivered
        assert len(requests) == 1
        assert elapsed < self.TIMEOUT + 0.4, elapsed

    def test_a_trickled_hello_times_out_the_connect(self):
        with scripted_provider(None, hello_gap=0.05) as (address, requests):
            outcome, elapsed = timed(
                lambda: RemoteConnection(*address, timeout=self.TIMEOUT)
            )
        assert isinstance(outcome, ConnectionLostError)
        assert elapsed < self.TIMEOUT + 0.4, elapsed

    def test_a_reply_trickled_within_the_deadline_is_accepted(self):
        def trickle(conn, frame, index, stop):  # about 0.2 s in all
            data = answer(frame)
            for part in range(4):
                if stop.wait(0.05):
                    return
                conn.sendall(data[part * len(data) // 4:(part + 1) * len(data) // 4])

        with scripted_provider(trickle) as (address, requests):
            with RemoteServerProxy(*address, timeout=2.0) as proxy:
                assert proxy.handle_message(READ) == ANSWER
        assert len(requests) == 1

    def test_the_deadline_restarts_for_each_round_trip(self):
        """Two round trips of 0.6 ``timeout`` each outlast one ``timeout``
        together; on one connection both are answered."""

        def late(conn, frame, index, stop):
            if not stop.wait(0.6 * self.TIMEOUT):
                conn.sendall(answer(frame))

        with scripted_provider(late) as (address, requests):
            connection = RemoteConnection(*address, timeout=self.TIMEOUT)
            try:
                assert envelope_round_trip(connection, READ) == ANSWER
                assert envelope_round_trip(connection, READ) == ANSWER
            finally:
                connection.close()
        assert len(requests) == 2

    def test_no_timeout_waits_for_a_late_reply(self):
        def late(conn, frame, index, stop):
            if not stop.wait(0.3):
                conn.sendall(answer(frame))

        with scripted_provider(late) as (address, requests):
            connection = RemoteConnection(*address, timeout=None)
            try:
                assert envelope_round_trip(connection, READ) == ANSWER
            finally:
                connection.close()

    def test_a_timed_out_connection_is_not_reused(self):
        """The connection a deadline cut still holds a late answer: the
        next call runs on a fresh one and gets its own answer promptly."""

        def slow_then_prompt(conn, frame, index, stop):
            if index < 2:  # the read and its retry
                drip(conn, answer(frame, b"late" * 16), 0.05, stop)
            else:
                conn.sendall(answer(frame))

        with scripted_provider(slow_then_prompt) as (address, requests):
            with RemoteServerProxy(*address, timeout=self.TIMEOUT) as proxy:
                first, _ = timed(lambda: proxy.handle_message(READ))
                second, elapsed = timed(lambda: proxy.handle_message(READ))
        assert isinstance(first, ConnectionLostError)
        assert second == ANSWER
        assert elapsed < self.TIMEOUT, elapsed
        assert len(requests) == 3


class TestClientPieces:
    def test_parse_tcp_url(self):
        assert parse_tcp_url("tcp://localhost:7707") == ("localhost", 7707)
        for bad in ("http://x:1", "tcp://nohost", "tcp://h:1/path", "tcp://:9",
                    "tcp://h:abc", "tcp://h:99999"):
            with pytest.raises(RemoteError):
                parse_tcp_url(bad)

    def test_proxy_connect_accepts_the_async_option(self, provider):
        with RemoteServerProxy.connect(f"tcp://127.0.0.1:{provider.port}?async=1") as proxy:
            assert type(proxy) is RemoteServerProxy
            assert proxy.ping()

    def test_the_async_proxy_name_is_the_blocking_proxy(self):
        # The frozen benchmark harness still imports the old name.
        from repro.net.aio import AsyncRemoteServerProxy

        assert AsyncRemoteServerProxy is RemoteServerProxy

    def test_connect_refused_surfaces_cleanly(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            unused_port = placeholder.getsockname()[1]
        with pytest.raises(ConnectionLostError):
            RemoteConnection("127.0.0.1", unused_port, timeout=1.0)

    @pytest.fixture
    def built(self, monkeypatch):
        """Every connection a proxy's pool builds, in order."""
        built = []
        new_connection = RemoteServerProxy._new_connection

        def recording(proxy):
            connection = new_connection(proxy)
            built.append(connection)
            return connection

        monkeypatch.setattr(RemoteServerProxy, "_new_connection", recording)
        return built

    def test_pool_bounds_concurrent_checkouts(self, provider, built):
        proxy = RemoteServerProxy("127.0.0.1", provider.port, pool_size=2)
        first, second = proxy.send_message(READ), proxy.send_message(READ)
        assert first._connection is not second._connection
        # both slots are out: a third sender waits until one comes back
        third = threading.Thread(target=proxy.handle_message, args=(READ,))
        third.start()
        third.join(0.2)
        assert third.is_alive()
        first.receive()
        third.join(5.0)
        assert not third.is_alive()
        second.receive()
        # the handshake's connection and one more served all four borrows
        assert len(built) == 2
        proxy.close()

    def test_pool_discards_broken_connections(self, provider, built, monkeypatch):
        proxy = RemoteServerProxy("127.0.0.1", provider.port, pool_size=2)

        def boom(connection, until=None):
            raise RuntimeError("boom")

        with monkeypatch.context() as patch:
            patch.setattr(RemoteConnection, "receive", boom)
            with pytest.raises(RuntimeError):
                proxy.handle_message(READ)
        # the failed connection was not returned to the pool
        assert proxy.ping()
        assert len(built) == 2
        proxy.close()

    def test_pool_reuses_connection_after_protocol_level_error(self, provider, built):
        """An ok:false answer completes the round trip; no reconnect churn."""
        proxy = RemoteServerProxy("127.0.0.1", provider.port, pool_size=2)
        with pytest.raises(RemoteError):
            proxy._control("no-such-op")
        assert proxy.ping()
        assert len(built) == 1  # the same healthy connection served both
        proxy.close()

    def test_non_idempotent_ops_are_not_retried_once_delivered(self, provider, monkeypatch):
        proxy = RemoteServerProxy("127.0.0.1", provider.port)
        calls = []

        def exploding(connection, until=None):
            calls.append(connection)
            raise ConnectionLostError("late failure", request_delivered=True)

        monkeypatch.setattr(RemoteConnection, "receive", exploding)
        write = MessageV2(MessageKind.DELETE_TUPLES, "Emp").to_bytes()
        # delivered + idempotent -> one retry; delivered + non-idempotent -> none
        with pytest.raises(ConnectionLostError):
            proxy.handle_message(READ)
        assert len(calls) == 2
        calls.clear()
        with pytest.raises(ConnectionLostError):
            proxy.handle_message(write)
        assert len(calls) == 1
        proxy.close()

    def test_closed_pool_rejects_checkout(self, provider):
        proxy = RemoteServerProxy("127.0.0.1", provider.port, pool_size=1)
        proxy.close()
        with pytest.raises(RemoteError, match="closed"):
            proxy.handle_message(READ)


class TestGracefulShutdown:
    def test_stop_drains_and_reports(self, secret_key):
        server = ThreadedTcpServer().start()
        db = EncryptedDatabase.connect(f"tcp://127.0.0.1:{server.port}", secret_key)
        db.create_table(EMP_DECL, rows=[("A", "HR", 1)])
        db.close()
        server.stop()
        counts = server.server.stats
        assert counts["connections_active"] == 0
        assert counts["connections_total"] >= 1
        assert counts["frames_received"] == (
            counts["envelope_frames"] + counts["control_frames"]
        )
        assert "connection(s)" in throughput_summary(counts)

    def test_double_stop_is_idempotent(self):
        server = ThreadedTcpServer().start()
        server.stop()
        server.stop()
