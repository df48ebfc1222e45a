"""The one cluster scatter: outcome contracts, ``?async=1`` fleets, timeouts.

Every fleet scatters on :class:`ScatterGatherExecutor`'s thread pool over
blocking shard connections; ``async=1`` on a ``cluster://`` URL is accepted
and opens exactly the fleet the URL without it opens.
"""

from __future__ import annotations

import threading
import time

import pytest
from gated_provider import GatedServer

from repro.api import DatabaseError, EncryptedDatabase
from repro.cluster import ScatterGatherExecutor, ShardRouter, ShardTimeoutError
from repro.net import ThreadedTcpServer
from repro.net.client import RemoteServerProxy
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


def _names(outcome) -> list[str]:
    return sorted(row["name"] for row in outcome.relation)


def _oracle(dept: str) -> list[str]:
    return sorted(name for name, row_dept, _ in ROWS if row_dept == dept)


def _assert_blocking(router: ShardRouter) -> None:
    for shard_id in router.shard_ids:
        assert type(router.shard(shard_id)) is RemoteServerProxy


class TestTheOneScatter:
    def test_outcomes_in_scatter_order(self):
        def late(value):
            time.sleep(0.05)
            return value

        executor = ScatterGatherExecutor(max_workers=2)
        try:
            outcomes = executor.scatter([("a", lambda: late(1)), ("b", lambda: 2)])
        finally:
            executor.close()
        assert [(o.shard_id, o.value) for o in outcomes] == [("a", 1), ("b", 2)]
        assert all(o.ok for o in outcomes)

    def test_per_shard_exceptions_are_data(self):
        def boom():
            raise RuntimeError("shard on fire")

        executor = ScatterGatherExecutor(max_workers=2)
        try:
            outcomes = executor.scatter([("bad", boom), ("good", lambda: "ok")])
        finally:
            executor.close()
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, RuntimeError)
        assert outcomes[1].value == "ok"

    def test_timeout_reports_the_laggard_and_discards_its_late_value(self):
        """The laggard is a typed failure naming its budget; the rest answer,
        and its value, produced after the gather returned, goes nowhere."""
        release, finished = threading.Event(), threading.Event()

        def laggard():
            release.wait(10)
            finished.set()
            return "late"

        executor = ScatterGatherExecutor(max_workers=2, timeout=0.2)
        try:
            outcomes = executor.scatter([("slow", laggard), ("fast", lambda: "fast")])
            release.set()
            assert finished.wait(5)
        finally:
            release.set()
            executor.close()
        assert isinstance(outcomes[0].error, ShardTimeoutError)
        assert str(outcomes[0].error) == "shard 'slow' did not answer within its 0.2s budget"
        assert outcomes[0].value is None
        assert outcomes[1].value == "fast"


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
            stats = router.stats.as_dict()
            assert stats["scatter_reads"] >= 2
            assert "loop_scatters" not in stats
            db.drop_table("Emp")

    def test_a_mixed_fleet_scatters_on_the_one_pool(self, fleet, secret_key, rng):
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
                stats = db.server.stats
                assert stats.as_dict()["failover_reads"] >= 1


class TestASlowShard:
    def test_the_select_raises_and_the_late_answer_reaches_no_other_request(
        self, secret_key, rng
    ):
        """A gated shard exceeds its budget mid-scatter: the read raises with
        the shard's timeout in its detail.  One pooled connection per shard
        means the next request to that shard rides the very connection the
        late answer arrives on, so a misdelivered answer would be the wrong
        department's rows."""
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
