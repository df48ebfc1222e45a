"""The session's result cache over a sharded fleet.

A cached session on a :class:`ShardRouter` keeps the contract it keeps on
one provider: its own writes evict exactly what they change, another
session's writes show up within ``ttl_s``, and no injected fault -- a
shard killed mid-workload, a shard joining or leaving -- makes cache-on
answer differently from cache-off.  A read that loses a shard the
replicas cannot cover raises, and a raised read caches nothing.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.cache import CacheConfig
from repro.cluster import ShardRouter
from repro.crypto.rng import DeterministicRng
from repro.net import RemoteServerProxy, ThreadedTcpServer
from repro.outsourcing import OutsourcedDatabaseServer
from repro.relational import Selection
from async_key_fleet import async_key_router
from provider_calls import cache_counts

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(30)]
HR, IT = Selection.equals("dept", "HR"), Selection.equals("dept", "IT")


class FlakyServer(OutsourcedDatabaseServer):
    """A shard that can be switched off to exercise failure paths."""

    def __init__(self):
        super().__init__()
        self.down = False

    def handle_message(self, raw: bytes) -> bytes:
        if self.down:
            raise ConnectionError("shard is down")
        return super().handle_message(raw)


class FakeClock:
    """The cache's monotonic clock, advanced by hand."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def _rows(outcome):
    return sorted(tuple(t.values()) for t in outcome.relation)


def _session(secret_key, router, *, cache=True, seed=0, create=True):
    db = EncryptedDatabase.open(
        secret_key, server=router, rng=DeterministicRng(seed), cache=cache
    )
    if create:
        db.create_table(EMP_DECL, rows=ROWS)
    else:
        db.attach_table(EMP_DECL)
    return db


class TestARaisedReadCachesNothing:
    """A shard outage past the replicas raises; the cache keeps no trace of it."""

    def test_the_outage_fills_nothing_and_recovery_is_exact(self, secret_key):
        shards = [FlakyServer(), FlakyServer()]
        db = _session(secret_key, ShardRouter(shards))  # replicas=1
        before = _rows(db.select(HR, table="Emp"))
        assert before == sorted(row for row in ROWS if row[1] == "HR")
        db.cache.invalidate("Emp")  # the next select asks the fleet
        shards[1].down = True
        with pytest.raises(DatabaseError, match="shard is down"):
            db.select(HR, table="Emp")
        assert cache_counts(db)["entries"] == 0
        shards[1].down = False
        assert _rows(db.select(HR, table="Emp")) == before
        assert cache_counts(db)["entries"] == 1

    def test_over_a_cluster_url(self, secret_key):
        shards = [FlakyServer(), FlakyServer()]
        with contextlib.ExitStack() as stack:
            ports = [
                stack.enter_context(ThreadedTcpServer(shard)).port for shard in shards
            ]
            url = "cluster://" + ",".join(f"127.0.0.1:{port}" for port in ports)
            db = stack.enter_context(
                EncryptedDatabase.connect(f"{url}?cache=1", secret_key, timeout=10.0)
            )
            db.create_table(EMP_DECL, rows=ROWS)
            shards[0].down = True
            with pytest.raises(DatabaseError, match="failed on 1/2 shard"):
                db.select(HR, table="Emp")
            assert cache_counts(db)["entries"] == 0
            shards[0].down = False
            assert _rows(db.select(HR, table="Emp")) == sorted(
                row for row in ROWS if row[1] == "HR"
            )

    def test_an_uncached_read_raises_then_heals(self, secret_key):
        shards = [FlakyServer(), FlakyServer()]
        db = _session(secret_key, ShardRouter(shards), cache=None)
        full = _rows(db.select(HR, table="Emp"))
        shards[1].down = True
        with pytest.raises(DatabaseError, match="shard is down"):
            db.select(HR, table="Emp")
        shards[1].down = False
        assert _rows(db.select(HR, table="Emp")) == full


class TestFailover:
    def test_a_failover_read_is_complete_and_cacheable(self, secret_key):
        shards = [FlakyServer() for _ in range(3)]
        db = _session(secret_key, ShardRouter(shards, replicas=2))
        expected = sorted(row for row in ROWS if row[1] == "HR")
        shards[2].down = True  # R=2 covers one dead shard
        assert _rows(db.select(HR, table="Emp")) == expected
        assert len(db.cache) == 1  # the failover answer was complete
        hits = cache_counts(db)["hits_total"]
        assert _rows(db.select(HR, table="Emp")) == expected
        assert cache_counts(db)["hits_total"] == hits + 1

    def test_a_shard_killed_mid_workload_matches_uncached(self, secret_key):
        """Writes stay fail-fast, so the post-kill delete fails in both runs;
        a failed write still evicts, and failover reads never resurrect a
        pre-write answer."""

        def run(cache: bool) -> list:
            shards = [FlakyServer() for _ in range(3)]
            db = _session(secret_key, ShardRouter(shards, replicas=2), cache=cache)
            observed = []

            def observe():
                observed.extend(_rows(db.select(probe, table="Emp")) for probe in (HR, IT))

            observe()
            db.insert("Emp", {"name": "mid1", "dept": "HR", "salary": 5})
            observe()
            db.delete(Selection.equals("name", "emp7"), table="Emp")
            db.update(Selection.equals("name", "emp2"), {"salary": 3}, table="Emp")
            observe()
            shards[0].down = True
            observe()
            with pytest.raises(DatabaseError, match="shard is down"):
                db.delete(Selection.equals("name", "emp9"), table="Emp")
            observe()
            return observed

        assert run(True) == run(False)


@contextlib.contextmanager
def _router(kind: str):
    """A router over three shards reached in-process, or as envelopes over
    tcp:// (``async-key``: opened from a manifest carrying the old
    ``"async": true`` key, which has no effect)."""
    servers = [OutsourcedDatabaseServer() for _ in range(3)]
    shard_ids = ["a", "b", "c"]
    with contextlib.ExitStack() as stack:
        if kind == "in-process":
            yield stack.enter_context(ShardRouter(servers, shard_ids=shard_ids))
            return
        urls = [
            f"tcp://127.0.0.1:{stack.enter_context(ThreadedTcpServer(server)).port}"
            for server in servers
        ]
        if kind == "async-key":
            router = async_key_router(urls, shard_ids)
        else:
            router = ShardRouter(urls, shard_ids=shard_ids)
        yield stack.enter_context(router)


class TestCacheOnMatchesCacheOff:
    @pytest.mark.parametrize("kind", ["in-process", "tcp", "async-key"])
    def test_under_interleaved_writes(self, kind, secret_key):
        probes = [HR, IT, Selection.equals("name", "emp11")]

        def run(cache: bool) -> list:
            with _router(kind) as router:
                db = _session(secret_key, router, cache=cache)
                observed = []

                def observe():
                    observed.extend(_rows(db.select(probe, table="Emp")) for probe in probes)

                observe()
                observe()  # the second pass hits when cached
                db.insert("Emp", {"name": "w1", "dept": "IT", "salary": 8})
                observe()
                db.delete(Selection.equals("name", "emp11"), table="Emp")
                observe()
                db.update(HR, {"salary": 6}, table="Emp")
                observe()
                return observed

        assert run(True) == run(False)

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_across_membership_changes(self, replicas, secret_key):
        """``add_shard``, ``rebalance`` and ``remove_shard`` move tuples, not
        answers: cached hits and post-move misses both stay exact."""
        router = ShardRouter(
            [OutsourcedDatabaseServer() for _ in range(3)], replicas=replicas
        )
        cached = _session(secret_key, router)
        plain = _session(secret_key, router, cache=None, seed=1, create=False)
        names = [Selection.equals("name", f"emp{i}") for i in range(0, 30, 3)]

        def agree(probes):
            for probe in probes:
                assert _rows(cached.select(probe, table="Emp")) == _rows(
                    plain.select(probe, table="Emp")
                )

        agree([HR, IT, *names[:5]])
        hits = cache_counts(cached)["hits_total"]
        router.add_shard(OutsourcedDatabaseServer(), "d")
        agree([HR, IT, *names])  # hits, then misses served by the new layout
        router.rebalance()
        cached.insert("Emp", {"name": "joined", "dept": "HR", "salary": 7})
        agree([HR, IT, *names])
        router.remove_shard("shard-0")
        cached.delete(Selection.equals("name", "emp3"), table="Emp")
        agree([HR, IT, *names])
        assert cache_counts(cached)["hits_total"] > hits


@contextlib.contextmanager
def _provider(kind: str):
    """What two sessions share -- one router object, one fleet behind a
    ``cluster://`` URL, or one ``tcp://`` provider -- as a factory of the
    provider object each session opens on."""
    if kind == "router":
        with ShardRouter([OutsourcedDatabaseServer() for _ in range(3)]) as router:
            yield lambda: router
        return
    with contextlib.ExitStack() as stack:
        ports = [
            stack.enter_context(ThreadedTcpServer(OutsourcedDatabaseServer())).port
            for _ in range(3 if kind == "cluster" else 1)
        ]
        hosts = ",".join(f"127.0.0.1:{port}" for port in ports)
        if kind == "cluster":
            yield lambda: ShardRouter.connect(f"cluster://{hosts}")
        else:
            yield lambda: RemoteServerProxy.connect(f"tcp://{hosts}")


class TestSharedRouter:
    def test_close_is_idempotent_for_shared_sessions(self, secret_key):
        router = ShardRouter([OutsourcedDatabaseServer() for _ in range(2)])
        db1 = _session(secret_key, router)
        db2 = _session(secret_key, router, seed=1, create=False)
        db1.close()
        db2.close()  # the second close of the shared router is a no-op
        router.close()


class TestForeignWriter:
    """ROADMAP 3(d): another session's writes show up within ``ttl_s``."""

    TTL = 30.0

    @pytest.mark.parametrize("kind", ["router", "cluster", "tcp"])
    def test_a_foreign_insert_shows_within_the_ttl(self, kind, secret_key):
        with _provider(kind) as provider:
            writer, reader = (
                EncryptedDatabase.open(
                    secret_key,
                    server=provider(),
                    rng=DeterministicRng(seed),
                    cache=CacheConfig(ttl_s=self.TTL),
                )
                for seed in (0, 1)
            )
            clock = FakeClock()
            with writer, reader, mock.patch.object(
                writer.cache, "_clock", clock
            ), mock.patch.object(reader.cache, "_clock", clock):
                writer.create_table(EMP_DECL, rows=ROWS)
                reader.attach_table(EMP_DECL)
                before = _rows(reader.select(HR, table="Emp"))
                assert _rows(writer.select(HR, table="Emp")) == before
                writer.insert("Emp", {"name": "foreign", "dept": "HR", "salary": 1})
                after = sorted([*before, ("foreign", "HR", 1)])
                # The writer's own reads are never stale.
                assert _rows(writer.select(HR, table="Emp")) == after
                # The reader may miss it until the TTL, and no longer.
                clock.now += self.TTL - 0.5
                assert _rows(reader.select(HR, table="Emp")) in (before, after)
                clock.now += 0.5
                assert _rows(reader.select(HR, table="Emp")) == after
                assert _rows(writer.select(HR, table="Emp")) == after
