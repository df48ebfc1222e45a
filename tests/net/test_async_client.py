"""The pipelined asyncio client: multiplexing, reconnects, cancellation."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.api import EncryptedDatabase
from repro.net import (
    AsyncRemoteServerProxy,
    ConnectionLostError,
    EventLoopThread,
    RemoteError,
    RemoteServerProxy,
    ThreadedTcpServer,
)
from repro.outsourcing import MessageKind, MessageV2, OutsourcedDatabaseServer
from provider_calls import list_tuple_ids

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [("A", "HR", 1), ("B", "IT", 2), ("C", "HR", 3)]


@pytest.fixture
def provider():
    with ThreadedTcpServer() as server:
        yield server


class TestEventLoopThread:
    def test_run_and_stop(self):
        loop_thread = EventLoopThread().start()

        async def answer():
            return 41 + 1

        assert loop_thread.run(answer()) == 42
        loop_thread.stop()
        loop_thread.stop()  # idempotent

    def test_run_from_the_loop_thread_is_rejected(self):
        loop_thread = EventLoopThread().start()

        async def reenter():
            coroutine = asyncio.sleep(0)
            try:
                return loop_thread.run(coroutine)
            finally:
                coroutine.close()

        with pytest.raises(RuntimeError, match="loop thread"):
            loop_thread.run(reenter())
        loop_thread.stop()

    def test_context_manager(self):
        with EventLoopThread() as loop_thread:
            assert loop_thread.loop.is_running()
        with pytest.raises(RuntimeError):
            loop_thread.loop  # noqa: B018 - stopped loops are unreachable


class TestAsyncProxyDuckType:
    def test_same_sync_surface_as_the_blocking_proxy(self, provider):
        sync_api = {
            name
            for name in dir(RemoteServerProxy)
            if not name.startswith("_")
        }
        async_api = {
            name
            for name in dir(AsyncRemoteServerProxy)
            if not name.startswith("_")
        }
        # The async proxy offers everything the sync one does (the sync
        # surface is inherited from one shared base, so signatures match).
        missing = sync_api - async_api
        assert not missing, missing

    def test_session_over_async_url(self, provider, secret_key, rng):
        with EncryptedDatabase.connect(
            f"tcp://127.0.0.1:{provider.port}?async=1", secret_key, rng=rng
        ) as db:
            assert type(db.server).__name__ == "AsyncRemoteServerProxy"
            db.create_table(EMP_DECL, rows=ROWS)
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 2
            db.insert("Emp", {"name": "Zoe", "dept": "IT", "salary": 9})
            assert db.count("Emp") == 4
            assert db.delete("SELECT * FROM Emp WHERE dept = 'HR'") == 2
            db.drop_table("Emp")

    def test_sync_proxy_connect_rejects_the_async_option(self, provider):
        with pytest.raises(RemoteError, match="async"):
            RemoteServerProxy.connect(f"tcp://127.0.0.1:{provider.port}?async=1")

    def test_many_threads_share_one_pipelined_connection(self, provider):
        proxy = AsyncRemoteServerProxy("127.0.0.1", provider.port)
        try:
            errors = []

            def worker():
                try:
                    for _ in range(10):
                        assert proxy.ping()
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors, errors
            # One proxy, one socket: the provider saw a single connection.
            assert provider.server.stats.as_dict()["connections_total"] == 1
        finally:
            proxy.close()

    def test_many_requests_in_flight_on_one_connection(self, provider):
        proxy = AsyncRemoteServerProxy("127.0.0.1", provider.port)
        try:
            async def burst():
                return await asyncio.gather(
                    *(proxy.call_control_async("ping") for _ in range(32))
                )

            responses = proxy.loop_thread.run(burst())
            assert len(responses) == 32
            assert all(r["ok"] for r in responses)
        finally:
            proxy.close()


class TestAsyncReconnect:
    def test_client_survives_a_provider_restart(self, secret_key):
        """At-most-once over the pipelined transport: idempotent calls are
        transparently retried on a fresh connection after a restart."""
        database = OutsourcedDatabaseServer()
        first = ThreadedTcpServer(database).start()
        port = first.port
        db = EncryptedDatabase.connect(f"tcp://127.0.0.1:{port}?async=1", secret_key)
        db.create_table(EMP_DECL, rows=ROWS)
        assert db.count("Emp") == 3
        first.stop()

        second = ThreadedTcpServer(database, port=port).start()
        try:
            assert db.count("Emp") == 3  # transparent retry on a fresh connection
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 2
            db.insert("Emp", {"name": "D", "dept": "IT", "salary": 4})
            assert db.count("Emp") == 4
            db.close()
        finally:
            second.stop()

    def test_non_idempotent_ops_are_not_retried_once_delivered(self, provider):
        proxy = AsyncRemoteServerProxy("127.0.0.1", provider.port)
        try:
            calls = []

            class ExplodingConnection:
                healthy = True

                async def request(self, payload, channel):
                    calls.append(payload)
                    raise ConnectionLostError("late failure", request_delivered=True)

            exploding = ExplodingConnection()

            async def force(idempotent):
                original = proxy._connection

                async def fake_connection(*, replacing=None):
                    if replacing is not None:
                        return await original(replacing=replacing)
                    return exploding

                proxy._connection = fake_connection
                try:
                    await proxy.call_envelope_async(b"x", idempotent=idempotent)
                finally:
                    proxy._connection = original

            # delivered + idempotent -> retried once on a *real* fresh
            # connection (the retry raises RemoteError because b"x" is
            # garbage, which proves the second attempt reached the provider).
            with pytest.raises(RemoteError):
                proxy.loop_thread.run(force(True))
            assert len(calls) == 1
            calls.clear()
            # delivered + non-idempotent -> no retry, the failure surfaces
            with pytest.raises(ConnectionLostError):
                proxy.loop_thread.run(force(False))
            assert len(calls) == 1
        finally:
            proxy.close()

    def test_in_flight_requests_fail_as_delivered_when_the_peer_dies(self):
        """When a multiplexed connection dies, every in-flight request
        reports request_delivered=True -- the provider may have seen any
        of them, so non-idempotent callers must not blindly retry."""
        import json
        import socket as socket_module

        from repro.net.framing import CHANNEL_CONTROL, FrameDecoder, encode_frame

        listener = socket_module.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def rogue_provider():
            conn, _ = listener.accept()
            decoder = FrameDecoder()
            frames = []
            while not frames:  # the hello
                frames += decoder.feed(conn.recv(65536))
            response = {"ok": True, "server": "rogue"}
            conn.sendall(
                encode_frame(
                    json.dumps(response).encode(),
                    channel=CHANNEL_CONTROL,
                    correlation=frames[0].correlation,
                )
            )
            while len(frames) < 2:  # the first real request...
                frames += decoder.feed(conn.recv(65536))
            conn.close()  # ...answered by hanging up

        server_thread = threading.Thread(target=rogue_provider, daemon=True)
        server_thread.start()
        proxy = AsyncRemoteServerProxy("127.0.0.1", port, timeout=10.0)
        try:
            # DROP_RELATION is a non-idempotent envelope: delivered but
            # unanswered, it must surface instead of being replayed.
            drop = MessageV2(kind=MessageKind.DROP_RELATION, relation_name="X")
            with pytest.raises(ConnectionLostError) as excinfo:
                proxy.handle_message(drop.to_bytes())
            assert excinfo.value.request_delivered
        finally:
            proxy.close()
            listener.close()
            server_thread.join(timeout=10)


class TestCancellationOrphans:
    def test_cancelled_request_orphans_its_response(self):
        """Cancelling one in-flight request leaves the connection healthy;
        the provider's late answer is dropped, not misdelivered."""
        from gated_provider import GatedServer, store_empty

        database = GatedServer()
        store_empty(database, EMP_DECL)
        store_empty(database, "Fast(name:string[8], v:int[4])")
        gate = database.gate("Emp")
        with ThreadedTcpServer(database) as server:
            proxy = AsyncRemoteServerProxy("127.0.0.1", server.port)
            try:
                slow_envelope = MessageV2(
                    kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp"
                ).to_bytes()

                async def cancel_midflight():
                    task = asyncio.ensure_future(
                        proxy.call_envelope_async(slow_envelope)
                    )
                    # The request has provably hit the provider once its
                    # dispatch enters the gate; only then cancel.
                    while not database.entered["Emp"].is_set():
                        await asyncio.sleep(0.005)
                    task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await task

                proxy.loop_thread.run(cancel_midflight())
                assert database.entered["Emp"].wait(timeout=10)
                gate.set()
                # The connection survives and serves later calls; the slow
                # relation's late answer became an orphan frame.
                assert list_tuple_ids(proxy, "Fast") == ()
                assert list_tuple_ids(proxy, "Emp") == ()
                assert proxy.orphan_frames >= 1
            finally:
                proxy.close()
