"""The one cluster scatter: ``?async=1`` fleets, the caller's thread, timeouts.

Every fleet scatters in the caller's thread over blocking shard
connections (:func:`repro.cluster.scatter`; its own contracts are
``test_executor.py``); ``async=1`` on a ``cluster://`` URL is accepted and
opens exactly the fleet the URL without it opens.
"""

from __future__ import annotations

import contextlib
import threading
import time

import pytest
from gated_provider import GatedServer

from repro.api import DatabaseError, EncryptedDatabase
from repro.cluster import ShardRouter, ShardTimeoutError
from repro.net import ThreadedTcpServer
from repro.net.server import CONNECTION_THREAD_PREFIX
from repro.net.client import RemoteServerProxy
from repro.outsourcing import MessageKind, OutsourcedDatabaseServer
from repro.outsourcing.protocol import peek_envelope
from provider_calls import drop_relation, routing_counts, server_counts

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(24)]


@pytest.fixture
def fleet():
    with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
        yield one, two


def async_url(fleet) -> str:
    one, two = fleet
    return f"cluster://127.0.0.1:{one.port},127.0.0.1:{two.port}?async=1"


def _names(outcome) -> list[str]:
    return sorted(row["name"] for row in outcome.relation)


def _oracle(dept: str) -> list[str]:
    return sorted(name for name, row_dept, _ in ROWS if row_dept == dept)


def _assert_blocking(router: ShardRouter) -> None:
    for shard_id in router.shard_ids:
        assert type(router.shard(shard_id)) is RemoteServerProxy


class TestAsyncTransportFleet:
    def test_crud_over_an_async_url_fleet(self, fleet, secret_key, rng):
        with EncryptedDatabase.connect(async_url(fleet), secret_key, rng=rng) as db:
            router = db.server
            _assert_blocking(router)
            db.create_table(EMP_DECL, rows=ROWS)
            counts = router.per_shard_tuple_counts("Emp")
            assert sum(counts.values()) == len(ROWS)
            assert _names(db.select("SELECT * FROM Emp WHERE dept = 'HR'")) == _oracle("HR")
            db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 1})
            assert db.delete("SELECT * FROM Emp WHERE dept = 'IT'") == 12
            assert db.count("Emp") == 13
            stats = routing_counts(router)
            assert stats["scatter_reads_total"] >= 2
            assert "loop_scatters_total" not in stats
            db.drop_table("Emp")

    def test_a_mixed_fleet_scatters_in_one_pass(self, fleet, secret_key, rng):
        one, _ = fleet
        local = OutsourcedDatabaseServer()
        router = ShardRouter([f"tcp://127.0.0.1:{one.port}", local])
        db = EncryptedDatabase.open(secret_key, server=router, rng=rng)
        try:
            db.create_table(EMP_DECL, rows=ROWS)
            assert db.count("Emp") == len(ROWS)
            assert _names(db.select("SELECT * FROM Emp WHERE dept = 'IT'")) == _oracle("IT")
            assert router.shard("shard-1") is local
        finally:
            drop_relation(router, "Emp")
            db.close()

    def test_replicated_failover_over_an_async_url(self, secret_key, rng):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            three = ThreadedTcpServer().start()
            url = (
                f"cluster://127.0.0.1:{one.port},127.0.0.1:{two.port},"
                f"127.0.0.1:{three.port}?replicas=2&async=1"
            )
            with EncryptedDatabase.connect(url, secret_key, rng=rng, timeout=10.0) as db:
                _assert_blocking(db.server)
                db.create_table(EMP_DECL, rows=ROWS)
                assert _names(db.select("SELECT * FROM Emp WHERE dept = 'HR'")) == _oracle("HR")
                three.stop()  # a provider dies mid-workload
                outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                assert _names(outcome) == _oracle("HR")  # complete, not partial
                assert db.count("Emp") == len(ROWS)
                assert routing_counts(db.server)["failover_reads_total"] >= 1


class TestASlowShard:
    def test_the_select_raises_and_the_late_answer_reaches_no_other_request(
        self, secret_key, rng
    ):
        """A gated shard exceeds its budget mid-scatter: the read raises with
        the shard's timeout in its detail.  The shard has one pooled
        connection, and the timed-out one is closed: were it reused, the
        late answer arriving on it would be the next request's, and the
        wrong department's rows."""
        slow_database = GatedServer()
        with ThreadedTcpServer() as fast, ThreadedTcpServer(slow_database) as slow:
            url = f"cluster://127.0.0.1:{fast.port},127.0.0.1:{slow.port}?async=1"
            router = ShardRouter.connect(
                url, shard_timeout=0.5, timeout=10.0, pool_size=1
            )
            db = EncryptedDatabase.open(secret_key, server=router, rng=rng)
            gate = threading.Event()
            try:
                db.create_table(EMP_DECL, rows=ROWS)
                gate = slow_database.gate("Emp")
                slow_shard_id = f"tcp://127.0.0.1:{slow.port}"
                timeout = ShardTimeoutError(
                    f"shard {slow_shard_id!r} did not answer within its 0.5s budget"
                )
                with pytest.raises(DatabaseError, match="failed on 1/2 shard") as excinfo:
                    db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                assert f"{slow_shard_id}: {timeout}" in str(excinfo.value)
                # Release the gate: the late HR answer is still owed.
                gate.set()
                del slow_database.gates["Emp"]
                assert _names(db.select("SELECT * FROM Emp WHERE dept = 'IT'")) == _oracle("IT")
                assert _names(db.select("SELECT * FROM Emp WHERE dept = 'HR'")) == _oracle("HR")
            finally:
                gate.set()
                db.close()


class CountingServer(OutsourcedDatabaseServer):
    """Records the kind of every envelope it is handed."""

    def __init__(self) -> None:
        super().__init__()
        self.kinds: list[MessageKind] = []

    def handle_message(self, raw: bytes) -> bytes:
        self.kinds.append(peek_envelope(raw)[1])
        return super().handle_message(raw)


@contextlib.contextmanager
def three_providers():
    """Three counting providers over ``tcp://``, and their cluster URL."""
    databases = [CountingServer() for _ in range(3)]
    with contextlib.ExitStack() as stack:
        servers = [stack.enter_context(ThreadedTcpServer(d)) for d in databases]
        url = "cluster://" + ",".join(f"127.0.0.1:{s.port}" for s in servers)
        yield databases, servers, url


def restart(server: ThreadedTcpServer, database) -> ThreadedTcpServer:
    """The same provider state behind a bounced front-end: every pooled
    connection to it is now dead."""
    port = server.port
    server.stop()
    return ThreadedTcpServer(database, port=port).start()


def _threads_but_the_providers() -> int:
    """Live threads, less the in-process providers' connection threads."""
    return sum(
        not thread.name.startswith(CONNECTION_THREAD_PREFIX)
        for thread in threading.enumerate()
    )


class TestTheCallersThread:
    def test_eight_threads_share_one_session_within_two_connections_a_shard(
        self, secret_key, rng
    ):
        """Every scatter takes the shards' pool slots in the fleet's one
        order, so eight threads over ``pool_size=2`` neither deadlock nor
        open a third connection to any provider."""
        oracle = {dept: _oracle(dept) for dept in ("HR", "IT")}
        answers, errors = [], []
        barrier = threading.Barrier(8)
        with three_providers() as (_, servers, url):
            db = EncryptedDatabase.connect(url, secret_key, rng=rng, pool_size=2, timeout=10.0)
            try:
                db.create_table(EMP_DECL, rows=ROWS)

                def reader(offset: int) -> None:
                    try:
                        barrier.wait(timeout=10)
                        for step in range(10):
                            dept = ("HR", "IT")[(offset + step) % 2]
                            outcome = db.select(f"SELECT * FROM Emp WHERE dept = '{dept}'")
                            answers.append((dept, _names(outcome)))
                    except Exception as exc:  # noqa: BLE001 - asserted below
                        errors.append(exc)

                threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
                started = time.monotonic()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                elapsed = time.monotonic() - started
                assert db.count("Emp") == len(ROWS)
            finally:
                db.close()
            connections = [server_counts(s.server)["connections_total"] for s in servers]
        assert not errors and not any(t.is_alive() for t in threads), errors
        assert elapsed < 60
        assert len(answers) == 8 * 10
        assert all(names == oracle[dept] for dept, names in answers)
        assert max(connections) <= 2, connections

    def test_a_session_starts_no_thread(self, secret_key, rng):
        with three_providers() as (_, servers, url):
            # The providers run in this process: their connection threads
            # come and go with the session's connections, so they are not
            # counted.
            before = _threads_but_the_providers()
            with EncryptedDatabase.connect(url, secret_key, rng=rng) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                assert _names(db.select("SELECT * FROM Emp WHERE dept = 'HR'")) == _oracle("HR")
                db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 1})
                db.update("SELECT * FROM Emp WHERE name = 'Zoe'", {"salary": 2})
                assert db.delete("SELECT * FROM Emp WHERE dept = 'IT'") == 12
                assert db.count("Emp") == 13
                assert _threads_but_the_providers() == before
            assert _threads_but_the_providers() == before

    def test_a_stale_read_leg_is_resent_once(self, secret_key, rng):
        """A restarted provider leaves its pooled connections dead: the
        read's leg to it is resent once on a fresh one, and the read
        answers the oracle's rows."""
        with three_providers() as (databases, servers, url):
            with EncryptedDatabase.connect(url, secret_key, rng=rng, timeout=10.0) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                bounced = restart(servers[1], databases[1])
                try:
                    for database in databases:
                        database.kinds.clear()
                    outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                finally:
                    bounced.stop()
        assert _names(outcome) == _oracle("HR")
        assert [d.kinds for d in databases] == [[MessageKind.QUERY]] * 3

    def test_a_delivered_insert_leg_is_never_resent(self, secret_key, rng):
        """The insert's leg to a restarted provider leaves on a dead
        connection: it may have been delivered, so it is not resent and
        the write fails loudly."""
        with three_providers() as (databases, servers, url):
            with EncryptedDatabase.connect(url, secret_key, rng=rng, timeout=10.0) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                bounced = restart(servers[1], databases[1])
                try:
                    databases[1].kinds.clear()
                    new = [(f"new{i}", "OPS", i) for i in range(24)]
                    with pytest.raises(DatabaseError, match="failed on 1/3 shard"):
                        db.insert_many("Emp", new)
                finally:
                    bounced.stop()
        assert MessageKind.INSERT_TUPLES not in databases[1].kinds
