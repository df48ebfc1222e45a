"""ShardRouter: CRUD routing, merging, shard failure, duck-type fidelity."""

from __future__ import annotations

import contextlib

import pytest

import threading

from repro.api import DatabaseError, EncryptedDatabase
from repro.cluster import (
    DEFAULT_VIRTUAL_NODES,
    ClusterError,
    ClusterManifest,
    ManifestError,
    ShardEntry,
    ShardRouter,
)
from repro.index import IndexDelta
from repro.net import ThreadedTcpServer
from repro.net.client import RemoteError, RemoteServerProxy, parse_tcp_options
from repro.outsourcing import OutsourcedDatabaseServer, ServerError
from repro.relational import RelationTuple, Selection
from async_key_fleet import async_key_router
from provider_calls import (
    delete_tuples,
    execute_query,
    insert_tuples,
    relation_names,
    routing_counts,
    stored_relation,
    tuple_count,
)

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(30)]


class FlakyServer(OutsourcedDatabaseServer):
    """A shard that can be switched off to exercise shard-failure paths.

    Overriding ``handle_message`` alone makes it "down": every data
    operation the router performs reaches a shard as an envelope.
    """

    def __init__(self):
        super().__init__()
        self.down = False

    def _check(self):
        if self.down:
            raise ConnectionError("shard is down")

    def handle_message(self, raw: bytes) -> bytes:
        self._check()
        return super().handle_message(raw)


@pytest.fixture
def backends():
    return [OutsourcedDatabaseServer() for _ in range(3)]


@pytest.fixture
def db(backends, secret_key, rng):
    session = EncryptedDatabase.open(secret_key, server=ShardRouter(backends), rng=rng)
    session.create_table(EMP_DECL, rows=ROWS)
    return session


class TestRouting:
    def test_tuples_spread_across_every_shard(self, db):
        counts = db.server.per_shard_tuple_counts("Emp")
        assert set(counts) == {"shard-0", "shard-1", "shard-2"}
        assert sum(counts.values()) == len(ROWS)
        assert all(count > 0 for count in counts.values())

    def test_merged_select_finds_matches_on_every_shard(self, db):
        outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        assert len(outcome.relation) == 15

    def test_insert_lands_on_the_ring_assigned_shard(self, db):
        db.insert("Emp", {"name": "Zoe", "dept": "NEW", "salary": 1})
        assert len(db.select(Selection.equals("dept", "NEW"), table="Emp").relation) == 1
        # every physically stored tuple sits exactly where the ring says
        router = db.server
        for shard_id in router.shard_ids:
            for t in router.shard(shard_id).stored_relation("Emp"):
                assert router.shard_for(t.tuple_id) == shard_id

    def test_delete_spans_shards_and_counts_truthfully(self, db):
        deleted = db.delete("SELECT * FROM Emp WHERE dept = 'HR'")
        assert deleted == 15
        assert db.count("Emp") == 15
        assert len(db.select(Selection.equals("dept", "HR"), table="Emp").relation) == 0

    def test_update_keeps_placement_consistent(self, db):
        updated = db.update(Selection.equals("name", "emp3"), {"salary": 9}, table="Emp")
        assert updated == 1
        router = db.server
        for shard_id in router.shard_ids:
            for t in router.shard(shard_id).stored_relation("Emp"):
                assert router.shard_for(t.tuple_id) == shard_id

    def test_batch_queries_merge_element_wise(self, db):
        outcomes = db.select_many(
            [Selection.equals("dept", "HR"), Selection.equals("dept", "IT")],
            table="Emp",
        )
        assert [len(o.relation) for o in outcomes] == [15, 15]

    def test_stored_relation_reassembles_the_fleet(self, db):
        assert len(stored_relation(db.server, "Emp")) == len(ROWS)
        assert len(db.retrieve_all("Emp")) == len(ROWS)

    def test_drop_removes_the_relation_everywhere(self, db, backends):
        db.drop_table("Emp")
        for backend in backends:
            assert backend.relation_names == ()


class TestDuckType:
    def test_relation_names_unions_shards(self, db):
        assert relation_names(db.server) == ("Emp",)

    def test_unknown_relation_errors_like_a_server(self, db):
        with pytest.raises(DatabaseError):
            db.count("Nope")


HR, IT = Selection.equals("dept", "HR"), Selection.equals("dept", "IT")
SHARD_IDS = ["shard-0", "shard-1", "shard-2"]


def _rows(relation):
    return sorted(tuple(t.values()) for t in relation)


#: Every read kind a session sends, against its plaintext oracle over ROWS.
READS = {
    "select": (
        lambda db: _rows(db.select(HR, table="Emp").relation),
        sorted(row for row in ROWS if row[1] == "HR"),
    ),
    "select_many": (
        lambda db: [_rows(o.relation) for o in db.select_many([HR, IT], table="Emp")],
        [sorted(row for row in ROWS if row[1] == dept) for dept in ("HR", "IT")],
    ),
    "indexed-select": (
        lambda db: _rows(db.select(HR, table="Emp").relation),
        sorted(row for row in ROWS if row[1] == "HR"),
    ),
    "retrieve_all": (lambda db: _rows(db.retrieve_all("Emp")), sorted(ROWS)),
    "count": (lambda db: db.count("Emp"), len(ROWS)),
}


@contextlib.contextmanager
def _replicated_fleet(backend: str, *, index: bool = False):
    """Three flaky shards at ``replicas=2``, in-process or over ``tcp://``.

    The ``tcp://`` fleet is opened from a manifest carrying the old
    ``"async": true`` key, which has no effect: its shards are blocking
    proxies and it scatters as every fleet does, in the caller's thread.
    """
    shards = [FlakyServer() for _ in range(3)]
    with contextlib.ExitStack() as stack:
        if backend == "in-process":
            router = ShardRouter(shards, shard_ids=SHARD_IDS, replicas=2)
        else:
            urls = [
                f"tcp://127.0.0.1:{stack.enter_context(ThreadedTcpServer(shard)).port}"
                for shard in shards
            ]
            router = async_key_router(urls, SHARD_IDS, replicas=2, timeout=10.0)
            assert all(type(router.shard(i)) is RemoteServerProxy for i in SHARD_IDS)
        stack.enter_context(router)
        db = EncryptedDatabase.open(server=router, index=index)
        db.create_table(EMP_DECL, rows=ROWS)
        yield db, router, shards


@pytest.mark.parametrize("kind", list(READS))
@pytest.mark.parametrize("backend", ["in-process", "async-key-tcp"])
class TestAFleetReadIsCompleteOrRaises:
    """Contract: every read kind equals the oracle or raises, never partial."""

    def test_within_the_replicas_the_read_is_the_oracle(self, backend, kind):
        read, oracle = READS[kind]
        with _replicated_fleet(backend, index=kind == "indexed-select") as (
            db, router, shards
        ):
            shards[1].down = True
            assert read(db) == oracle
            stats = routing_counts(router)
            assert stats["failover_reads_total"] >= 1
            assert router.last_failover_shard_ids == ("shard-1",)
            if kind == "indexed-select":
                assert stats["index_lookups_total"] >= 1

    def test_past_the_replicas_the_read_raises(self, backend, kind):
        read, _ = READS[kind]
        with _replicated_fleet(backend, index=kind == "indexed-select") as (
            db, router, shards
        ):
            shards[0].down = shards[1].down = True  # 2 dead >= R=2
            with pytest.raises(DatabaseError, match="failed on 2/3 shard") as excinfo:
                read(db)
            message = str(excinfo.value)
            assert "shard-0: " in message and "shard-1: " in message
            assert "shard-2" not in message
            shards[0].down = shards[1].down = False
            assert read(db) == READS[kind][1]


class TestShardFailure:
    def _cluster(self):
        shards = [FlakyServer(), FlakyServer(), FlakyServer()]
        router = ShardRouter(shards)
        db = EncryptedDatabase.open(server=router)
        db.create_table(EMP_DECL, rows=ROWS)
        return db, router, shards

    def test_an_unreplicated_read_surfaces_the_failure(self):
        db, router, shards = self._cluster()
        shards[1].down = True
        with pytest.raises(DatabaseError, match="shard is down"):
            db.select("SELECT * FROM Emp WHERE dept = 'HR'")

    def test_a_read_heals_when_the_shard_returns(self):
        db, router, shards = self._cluster()
        full = _rows(db.select(HR, table="Emp").relation)
        shards[1].down = True
        with pytest.raises(DatabaseError, match="1/3 shard"):
            db.select(HR, table="Emp")
        shards[1].down = False
        assert _rows(db.select(HR, table="Emp").relation) == full
        assert routing_counts(router)["failover_reads_total"] == 0

    def test_every_shard_down_fails(self):
        db, router, shards = self._cluster()
        for shard in shards:
            shard.down = True
        with pytest.raises(DatabaseError, match="failed on 3/3 shard"):
            db.select("SELECT * FROM Emp WHERE dept = 'HR'")

    def test_writes_fail_even_where_reads_fail_over(self):
        with _replicated_fleet("in-process") as (db, router, shards):
            # ids physically owned by shard-2, captured before the outage
            lost_ids = [t.tuple_id for t in shards[2].stored_relation("Emp")]
            assert lost_ids
            shards[2].down = True
            assert db.count("Emp") == len(ROWS)  # the read fails over
            with pytest.raises(ServerError, match="shard is down"):
                delete_tuples(router, "Emp", lost_ids)  # the write does not

    def test_insert_to_a_down_shard_fails_loudly(self):
        db, router, shards = self._cluster()
        for shard in shards:
            shard.down = True
        with pytest.raises(DatabaseError):
            db.insert("Emp", {"name": "X", "dept": "HR", "salary": 1})


def _copy_holders(router, name):
    """``tuple_id -> holder shard ids`` from the physical per-shard stores."""
    holders = {}
    for shard_id in router.shard_ids:
        for t in router.shard(shard_id).stored_relation(name):
            holders.setdefault(t.tuple_id, set()).add(shard_id)
    return holders


def _assert_fully_replicated(router, name):
    """Every tuple is stored on exactly its R ring successors."""
    holders = _copy_holders(router, name)
    assert holders, "relation is empty"
    for tuple_id, shard_ids in holders.items():
        assert shard_ids == set(router.replica_shards(tuple_id))


class TestReplication:
    def _cluster(self, shard_count=3, replicas=2):
        shards = [FlakyServer() for _ in range(shard_count)]
        router = ShardRouter(shards, replicas=replicas)
        db = EncryptedDatabase.open(server=router)
        db.create_table(EMP_DECL, rows=ROWS)
        return db, router, shards

    def test_store_places_every_tuple_on_its_replica_set(self):
        db, router, _ = self._cluster()
        assert router.replication == 2
        _assert_fully_replicated(router, "Emp")
        # physical copies are 2x the logical relation
        physical = sum(router.per_shard_tuple_counts("Emp").values())
        assert physical == 2 * len(ROWS)

    def test_insert_writes_all_replicas(self):
        db, router, _ = self._cluster()
        db.insert("Emp", {"name": "Zoe", "dept": "NEW", "salary": 1})
        _assert_fully_replicated(router, "Emp")
        assert len(db.select(Selection.equals("dept", "NEW"), table="Emp").relation) == 1

    def test_queries_are_duplicate_free_with_all_shards_up(self):
        db, router, _ = self._cluster()
        outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        assert len(outcome.relation) == 15  # 2 physical copies each, answered once
        assert db.count("Emp") == len(ROWS)
        assert len(stored_relation(db.server, "Emp")) == len(ROWS)

    def test_reads_fail_over_when_one_replica_is_down(self):
        db, router, shards = self._cluster()
        shards[1].down = True
        outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        assert len(outcome.relation) == 15  # complete, not partial
        assert routing_counts(router)["failover_reads_total"] >= 1
        assert router.last_failover_shard_ids == ("shard-1",)

    def test_batch_reads_fail_over_too(self):
        db, router, shards = self._cluster()
        shards[2].down = True
        outcomes = db.select_many(
            [Selection.equals("dept", "HR"), Selection.equals("dept", "IT")],
            table="Emp",
        )
        assert [len(o.relation) for o in outcomes] == [15, 15]
        assert routing_counts(router)["failover_reads_total"] >= 1

    def test_stored_relation_and_count_survive_one_dead_shard(self):
        db, router, shards = self._cluster()
        shards[0].down = True
        assert len(stored_relation(router, "Emp")) == len(ROWS)
        assert tuple_count(router, "Emp") == len(ROWS)
        assert len(db.retrieve_all("Emp")) == len(ROWS)

    def test_too_many_failures_surface_the_right_shards(self):
        db, router, shards = self._cluster()
        shards[0].down = True
        shards[1].down = True  # 2 dead >= R=2: coverage is broken
        query = db.table("Emp").scheme.encrypt_query(Selection.equals("dept", "HR"))
        with pytest.raises(ServerError, match="failed on 2/3 shard") as excinfo:
            execute_query(router, "Emp", query)
        message = str(excinfo.value)
        assert "shard-0: shard is down" in message
        assert "shard-1: shard is down" in message and "shard-2" not in message

    def test_replicated_writes_fail_fast_when_a_replica_is_down(self):
        db, router, shards = self._cluster()
        handle = db.table("Emp")
        encrypted = handle.scheme.encrypt_tuple(
            RelationTuple(handle.schema, {"name": "X", "dept": "HR", "salary": 1})
        )
        victim = router.replica_shards(encrypted.tuple_id)[1]
        router.shard(victim).down = True
        with pytest.raises(ServerError, match="shard is down"):
            insert_tuples(router, "Emp", [encrypted])
        router.shard(victim).down = False
        insert_tuples(router, "Emp", [encrypted])
        _assert_fully_replicated(router, "Emp")

    def test_deletes_fail_fast_and_count_logically(self):
        db, router, shards = self._cluster()
        deleted = db.delete("SELECT * FROM Emp WHERE dept = 'HR'")
        assert deleted == 15  # logical, not 30 physical copies
        assert db.count("Emp") == 15
        shards[2].down = True
        with pytest.raises(DatabaseError):
            db.delete("SELECT * FROM Emp WHERE dept = 'IT'")

    def test_update_keeps_full_replication(self):
        db, router, _ = self._cluster()
        assert db.update(Selection.equals("name", "emp3"), {"salary": 9}, table="Emp") == 1
        _assert_fully_replicated(router, "Emp")
        assert db.count("Emp") == len(ROWS)

    def test_remove_shard_restores_the_replication_factor(self):
        db, router, _ = self._cluster(shard_count=3, replicas=2)
        report = router.remove_shard("shard-1")
        assert report.moved > 0
        assert router.shard_ids == ("shard-0", "shard-2")
        _assert_fully_replicated(router, "Emp")
        assert db.count("Emp") == len(ROWS)
        assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 15

    def test_add_shard_rebalances_replica_sets(self):
        db, router, _ = self._cluster(shard_count=3, replicas=2)
        report = router.add_shard(FlakyServer())
        assert report is not None
        _assert_fully_replicated(router, "Emp")
        assert router.rebalance().moved == 0  # converged
        assert db.count("Emp") == len(ROWS)

    def test_removal_below_the_replication_factor_is_refused(self):
        db, router, _ = self._cluster(shard_count=2, replicas=2)
        with pytest.raises(ClusterError, match="replication factor"):
            router.remove_shard("shard-0")

    def test_full_failover_round_trip_after_losing_a_shard(self):
        # the acceptance scenario: 3 shards, replicas=2, one dies mid-workload
        db, router, shards = self._cluster(shard_count=3, replicas=2)
        before = len(db.select("SELECT * FROM Emp WHERE dept = 'IT'").relation)
        shards[0].down = True
        after = db.select("SELECT * FROM Emp WHERE dept = 'IT'")
        assert len(after.relation) == before == 15
        assert routing_counts(router)["failover_reads_total"] >= 1


class TestDuplicateSafety:
    """Crash-left duplicates must never change query multiplicities."""

    def _duplicated_cluster(self, secret_key, rng):
        backends = [OutsourcedDatabaseServer() for _ in range(2)]
        db = EncryptedDatabase.open(secret_key, server=ShardRouter(backends), rng=rng)
        db.create_table(EMP_DECL, rows=ROWS)
        router = db.server
        # simulate the rebalancer crashing mid-migration: the insert at the
        # new owner happened, the delete at the old owner did not
        victim = router.shard("shard-0").stored_relation("Emp").encrypted_tuples[0]
        other = "shard-1" if router.shard_for(victim.tuple_id) == "shard-0" else "shard-0"
        router.shard(other).insert_tuples("Emp", [victim], IndexDelta())
        return db, router, victim

    def test_query_returns_exactly_one_copy(self, secret_key, rng):
        db, router, victim = self._duplicated_cluster(secret_key, rng)
        plaintext = db.table("Emp").scheme.decrypt_tuple(victim)
        outcome = db.select(Selection.equals("name", plaintext["name"]), table="Emp")
        assert len(outcome.relation) == 1

    def test_counts_do_not_inflate(self, secret_key, rng):
        db, router, _ = self._duplicated_cluster(secret_key, rng)
        physical = sum(router.per_shard_tuple_counts("Emp").values())
        assert physical == len(ROWS) + 1  # the duplicate is really there
        assert db.count("Emp") == len(ROWS)  # ...and counted once
        assert len(stored_relation(router, "Emp")) == len(ROWS)
        assert len(db.retrieve_all("Emp")) == len(ROWS)

    def test_delete_kills_every_copy_and_counts_once(self, secret_key, rng):
        db, router, victim = self._duplicated_cluster(secret_key, rng)
        plaintext = db.table("Emp").scheme.decrypt_tuple(victim)
        deleted = db.delete(Selection.equals("name", plaintext["name"]), table="Emp")
        assert deleted == 1
        assert sum(router.per_shard_tuple_counts("Emp").values()) == len(ROWS) - 1
        assert db.count("Emp") == len(ROWS) - 1


class TestStatsThreadSafety:
    def test_concurrent_failover_reads_are_all_counted(self):
        """Eight threads reading past a down replica of one shared router."""
        db, router, shards = TestReplication()._cluster()
        shards[1].down = True
        before = routing_counts(router)
        rounds = 20
        snapshots: list[tuple] = []

        def hammer():
            for _ in range(rounds):
                db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                snapshots.append((routing_counts(router), router.last_failover_shard_ids))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        after = routing_counts(router)
        for name in ("scatter_reads_total", "failover_reads_total"):
            assert after[name] - before[name] == 8 * rounds
        for counts, failed in snapshots:  # each read after a failover read, whole
            assert counts["failover_reads_total"] > before["failover_reads_total"]
            assert failed == ("shard-1",)


class TestConstruction:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ClusterError):
            ShardRouter([])

    def test_shard_id_count_must_match(self):
        with pytest.raises(ClusterError):
            ShardRouter([OutsourcedDatabaseServer()], shard_ids=["a", "b"])

    def test_duplicate_shard_ids_rejected(self):
        with pytest.raises(ClusterError):
            ShardRouter(
                [OutsourcedDatabaseServer(), OutsourcedDatabaseServer()],
                shard_ids=["a", "a"],
            )

    def test_there_is_no_partial_failure_policy(self):
        shards = [OutsourcedDatabaseServer()]
        with pytest.raises(TypeError, match="policy"):
            ShardRouter(shards, policy="degraded")
        with pytest.raises(TypeError, match="policy"):
            ShardRouter.connect("cluster://127.0.0.1:1", policy="degraded")
        manifest = ClusterManifest(shards=(ShardEntry("a", "tcp://127.0.0.1:1"),))
        with pytest.raises(TypeError, match="policy"):
            ShardRouter.from_manifest(manifest, policy="degraded")

    @pytest.mark.parametrize("entry", ["router", "connect", "from_manifest"])
    def test_there_is_no_async_transport(self, entry):
        open_router = {
            "router": lambda **kw: ShardRouter([OutsourcedDatabaseServer()], **kw),
            "connect": lambda **kw: ShardRouter.connect("cluster://127.0.0.1:1", **kw),
            "from_manifest": lambda **kw: ShardRouter.from_manifest(
                ClusterManifest(shards=(ShardEntry("a", "tcp://127.0.0.1:1"),)), **kw
            ),
        }[entry]
        with pytest.raises(TypeError, match="async_transport"):
            open_router(async_transport=True)
        assert not hasattr(ShardRouter, "async_transport")

    @pytest.mark.parametrize("form", ["async=1", "async=0", "plain", "async-manifest"])
    def test_every_async_spelling_opens_blocking_shard_proxies(self, form, secret_key):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            urls = [f"tcp://127.0.0.1:{one.port}", f"tcp://127.0.0.1:{two.port}"]
            hosts = ",".join(url[len("tcp://"):] for url in urls)
            if form == "async-manifest":
                router = async_key_router(urls, urls, replicas=2)
            else:
                query = "" if form == "plain" else f"&{form}"
                router = ShardRouter.connect(f"cluster://{hosts}?replicas=2{query}")
            with router:
                assert router.shard_ids == tuple(urls)
                assert [type(router.shard(url)) for url in urls] == [RemoteServerProxy] * 2
                db = EncryptedDatabase.open(secret_key, server=router)
                db.create_table(EMP_DECL, rows=ROWS)
                assert _rows(db.select(HR, table="Emp").relation) == READS["select"][1]
                assert sum(router.per_shard_tuple_counts("Emp").values()) == 2 * len(ROWS)
                db.drop_table("Emp")

    def test_a_cluster_url_is_a_manifest(self):
        manifest, options = ClusterManifest.from_url("cluster://h1:1, tcp://h2:2")
        assert manifest.shard_ids == manifest.shard_urls == ("tcp://h1:1", "tcp://h2:2")
        assert (manifest.replicas, manifest.virtual_nodes) == (1, DEFAULT_VIRTUAL_NODES)
        assert options == {}
        for bad in ("tcp://h1:1", "cluster://", "cluster://h1:1,h1:1", "cluster://h1:notaport"):
            with pytest.raises(ClusterError):
                ClusterManifest.from_url(bad)

    def test_cluster_url_options(self):
        manifest, options = ClusterManifest.from_url("cluster://h1:1,h2:2?replicas=2")
        assert (manifest.replicas, options) == (2, {})
        assert ClusterManifest.from_url("cluster://h1:1?cache=1")[1] == {"cache": True}
        # Both schemes take the same boolean options.
        query = "async=1&index=0&cache=yes"
        expected = {"async": True, "index": False, "cache": True}
        assert parse_tcp_options(f"tcp://h:1?{query}")[2] == expected
        assert ClusterManifest.from_url(f"cluster://h:1?{query}")[1] == expected
        with pytest.raises(ClusterError, match="unknown cluster URL option"):
            ClusterManifest.from_url("cluster://h1:1?quorum=2")
        with pytest.raises(ClusterError, match="integer"):
            ClusterManifest.from_url("cluster://h1:1?replicas=two")
        with pytest.raises(ClusterError, match="needs at least"):
            ClusterManifest.from_url("cluster://h1:1,h2:2?replicas=3")

    def test_option_typos_rejected_with_supported_list(self):
        # A silently dropped ?asnyc=1 would quietly run the session on the
        # wrong transport -- the error must name the typo and the options.
        with pytest.raises(
            ClusterError,
            match=r"unknown cluster URL option 'asnyc' "
            r"\(supported: replicas, async, index, cache\)",
        ):
            ClusterManifest.from_url("cluster://h1:1?asnyc=1")
        with pytest.raises(
            RemoteError,
            match=r"unknown provider URL option 'asnyc' "
            r"\(supported: async, index, cache\)",
        ):
            parse_tcp_options("tcp://h1:1?asnyc=1")

    def test_the_router_keeps_no_cache(self):
        # The one cache tier is the session's (``cache=`` / ``?cache=1``).
        with pytest.raises(TypeError):
            ShardRouter([OutsourcedDatabaseServer()], cache=True)
        with pytest.raises(TypeError):
            ShardRouter.connect("cluster://h1:1", cache=True)
        assert not hasattr(ShardRouter, "cache")

    @pytest.mark.parametrize(
        "url, key",
        [
            ("cluster://a:1,b:2?replicas=2&replicas=1", "replicas"),
            ("cluster://a:1?cache=1&async=1&cache=0", "cache"),
            ("tcp://h:1?cache=1&cache=0", "cache"),
            ("tcp://h:1?index=1&index=1", "index"),
        ],
    )
    def test_a_repeated_option_is_rejected(self, url, key):
        """Bugfix: a repeated option silently took its last value."""
        # ClusterError and RemoteError are both ServerErrors.
        with pytest.raises(ServerError, match=f"option '{key}' is given twice"):
            if url.startswith("cluster"):
                ClusterManifest.from_url(url)
            else:
                parse_tcp_options(url)

    def test_connect_refuses_a_repeated_option(self):
        with pytest.raises(DatabaseError, match="given twice"):
            EncryptedDatabase.connect("tcp://h:1?async=1&async=0")
        with pytest.raises(DatabaseError, match="given twice"):
            EncryptedDatabase.connect("cluster://a:1?replicas=1&replicas=1")

    @pytest.mark.parametrize("scheme", ["tcp", "cluster"])
    def test_cache_url_option_is_the_session_cache(self, scheme, secret_key):
        with ThreadedTcpServer(OutsourcedDatabaseServer()) as server:
            url = f"{scheme}://127.0.0.1:{server.port}"
            with EncryptedDatabase.connect(f"{url}?cache=1", secret_key) as db:
                assert db.cache is not None
            for plain in (url, f"{url}?cache=0"):
                with EncryptedDatabase.connect(plain, secret_key) as db:
                    assert db.cache is None
            with pytest.raises(TypeError, match="cache"):
                EncryptedDatabase.connect(url, secret_key, cache=True)

    def test_connect_surfaces_url_typos_as_database_errors(self):
        with pytest.raises(DatabaseError, match="unknown provider URL option"):
            EncryptedDatabase.connect("tcp://h1:1?asnyc=1")
        with pytest.raises(DatabaseError, match="unknown cluster URL option"):
            EncryptedDatabase.connect("cluster://h1:1?asnyc=1")
        with pytest.raises(DatabaseError, match="takes? no options"):
            EncryptedDatabase.connect("cluster+file:///fleet.json?cache=1")

    def test_manifest_url_rejects_query_and_fragment(self, tmp_path):
        manifest = ClusterManifest(shards=(ShardEntry("a", "tcp://127.0.0.1:1"),))
        path = manifest.save(tmp_path / "fleet.json")
        assert ClusterManifest.from_url(f"cluster+file://{path}") == (manifest, {})
        for suffix in ("?async=1", "#frag"):
            with pytest.raises(ManifestError, match="query or fragment"):
                ClusterManifest.from_url(f"cluster+file://{path}{suffix}")

    def test_replication_factor_validation(self):
        with pytest.raises(ClusterError, match="replication factor"):
            ShardRouter([OutsourcedDatabaseServer()], replicas=0)
        with pytest.raises(ClusterError, match="needs at least"):
            ShardRouter(
                [OutsourcedDatabaseServer(), OutsourcedDatabaseServer()], replicas=3
            )
        # The address carries the factor; there is no second spelling.
        with pytest.raises(TypeError, match="replicas"):
            ShardRouter.connect("cluster://h1:1,h2:2?replicas=2", replicas=1)

    def test_open_takes_a_provider_object(self, secret_key):
        for option in ({"replicas": 2}, {"shards": []}, {"storage": None}):
            with pytest.raises(TypeError, match=next(iter(option))):
                EncryptedDatabase.open(secret_key, **option)
        db = EncryptedDatabase.open(
            secret_key,
            server=ShardRouter([OutsourcedDatabaseServer(), OutsourcedDatabaseServer()], replicas=2),
        )
        assert db.server.replication == 2

    def test_a_cluster_url_builds_the_ring_of_its_shard_urls(self):
        """``ShardRouter.connect`` opens the manifest its URL names, and that
        manifest's ring is the one ``ShardRouter(urls)`` builds."""
        ids = [i.to_bytes(4, "big") + b"tuple-id" for i in range(1000)]
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two, ThreadedTcpServer() as three:
            hosts = [f"127.0.0.1:{server.port}" for server in (one, two, three)]
            urls = [f"tcp://{host}" for host in hosts]
            with ShardRouter.connect(f"cluster://{','.join(hosts)}?replicas=2") as routed, \
                    ShardRouter(urls, replicas=2) as built:
                assert routed.shard_ids == built.shard_ids == tuple(urls)
                assert [routed.replica_shards(i) for i in ids] == [
                    built.replica_shards(i) for i in ids
                ]
