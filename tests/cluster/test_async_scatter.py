"""The event-loop scatter path: pipelined fleets, timeouts, cancellation."""

from __future__ import annotations

import asyncio

import pytest
from gated_provider import GatedServer, store_empty

from repro.api import DatabaseError, EncryptedDatabase
from repro.cluster import ShardRouter, ShardTimeoutError, scatter_async
from repro.net import EventLoopThread, ThreadedTcpServer
from repro.outsourcing import OutsourcedDatabaseServer
from provider_calls import drop_relation

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(24)]


@pytest.fixture
def fleet():
    with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
        yield one, two


def async_url(fleet) -> str:
    one, two = fleet
    return f"cluster://127.0.0.1:{one.port},127.0.0.1:{two.port}?async=1"


class TestScatterAsync:
    def test_outcomes_in_scatter_order(self):
        with EventLoopThread() as loop_thread:
            async def value(n):
                return n

            outcomes = loop_thread.run(
                scatter_async([("a", lambda: value(1)), ("b", lambda: value(2))])
            )
        assert [(o.shard_id, o.value) for o in outcomes] == [("a", 1), ("b", 2)]
        assert all(o.ok for o in outcomes)

    def test_per_shard_exceptions_are_data(self):
        with EventLoopThread() as loop_thread:
            async def boom():
                raise RuntimeError("shard on fire")

            async def fine():
                return "ok"

            outcomes = loop_thread.run(
                scatter_async([("bad", boom), ("good", fine)])
            )
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, RuntimeError)
        assert outcomes[1].value == "ok"

    def test_timeout_cancels_the_laggard_mid_flight(self):
        """Every shard gets its full budget concurrently; the laggard's
        coroutine is cancelled (not abandoned) on expiry."""
        cancelled = asyncio.Event()

        with EventLoopThread() as loop_thread:
            async def laggard():
                try:
                    await asyncio.sleep(30)
                except asyncio.CancelledError:
                    cancelled.set()
                    raise

            async def quick():
                return "fast"

            outcomes = loop_thread.run(
                scatter_async(
                    [("slow", laggard), ("fast", quick)], timeout=0.2
                )
            )
            assert isinstance(outcomes[0].error, ShardTimeoutError)
            assert outcomes[1].value == "fast"
            assert loop_thread.run(asyncio.wait_for(cancelled.wait(), 5)) or True


class TestAsyncTransportFleet:
    def test_crud_over_a_pipelined_fleet(self, fleet, secret_key, rng):
        with EncryptedDatabase.connect(async_url(fleet), secret_key, rng=rng) as db:
            router = db.server
            assert router.async_transport
            db.create_table(EMP_DECL, rows=ROWS)
            counts = router.per_shard_tuple_counts("Emp")
            assert sum(counts.values()) == len(ROWS)
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 12
            db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 1})
            assert db.delete("SELECT * FROM Emp WHERE dept = 'IT'") == 12
            assert db.count("Emp") == 13
            stats = router.stats.as_dict()
            # The hot path (store, query, delete scatters) rode the loop.
            assert stats["loop_scatters"] >= 3
            db.drop_table("Emp")

    def test_mixed_fleet_falls_back_to_the_thread_pool(self, fleet, secret_key, rng):
        one, _ = fleet
        local = OutsourcedDatabaseServer()
        router = ShardRouter(
            [f"tcp://127.0.0.1:{one.port}", local], async_transport=True
        )
        db = EncryptedDatabase.open(secret_key, server=router, rng=rng)
        try:
            db.create_table(EMP_DECL, rows=ROWS)
            assert db.count("Emp") == len(ROWS)
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'IT'").relation) == 12
            # The in-process shard cannot pipeline, so envelope scatters
            # stayed on the thread pool -- correct, just not loop-driven.
            assert router.stats.as_dict()["loop_scatters"] == 0
        finally:
            drop_relation(router, "Emp")
            db.close()

    def test_replicated_failover_over_async_transport(self, secret_key, rng):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            three = ThreadedTcpServer().start()
            url = (
                f"cluster://127.0.0.1:{one.port},127.0.0.1:{two.port},"
                f"127.0.0.1:{three.port}?replicas=2&async=1"
            )
            with EncryptedDatabase.connect(url, secret_key, rng=rng, timeout=10.0) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 12
                three.stop()  # a provider dies mid-workload
                outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                assert len(outcome.relation) == 12  # complete, not partial
                assert db.count("Emp") == len(ROWS)
                stats = db.server.stats
                assert stats.as_dict()["failover_reads"] >= 1


class TestScatterTimeoutCancellation:
    def test_slow_shard_times_out_and_its_request_is_cancelled(self, secret_key, rng):
        """A gated shard exceeds its budget mid-scatter: the read raises with
        the timeout in its detail, the in-flight request is cancelled
        (orphaning its response), and the same connections answer the next
        select completely once the shard recovers."""
        slow_database = GatedServer()
        with ThreadedTcpServer() as fast, ThreadedTcpServer(slow_database) as slow:
            url = f"cluster://127.0.0.1:{fast.port},127.0.0.1:{slow.port}?async=1"
            router = ShardRouter.connect(url, shard_timeout=0.5, timeout=10.0)
            db = EncryptedDatabase.open(secret_key, server=router, rng=rng)
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
                assert router.stats.as_dict()["loop_scatters"] >= 1
                # Release the gate: the orphaned late answer is dropped and
                # the *same* pipelined connection serves the next scatter.
                gate.set()
                del slow_database.gates["Emp"]
                outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                assert len(outcome.relation) == 12
                assert router.shard(slow_shard_id).orphan_frames >= 1
            finally:
                gate.set()
                db.close()
