"""Client-side session cache: hits skip the provider, writes invalidate.

The stale-read regression discipline: every test that mixes writes and
cached reads checks the cached session's answers against an uncached
session over an identical provider -- cache-on must be indistinguishable
from cache-off except in round-trip count.
"""

from __future__ import annotations

import threading

import pytest

from gated_provider import GatedServer
from repro.api import DatabaseError, EncryptedDatabase
from repro.outsourcing import OutsourcedDatabaseServer
from repro.relational import Selection

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(12)]


class CountingServer:
    """Duck-typed provider wrapper counting protocol round trips."""

    def __init__(self, inner=None):
        self.inner = inner if inner is not None else OutsourcedDatabaseServer()
        self.handled = 0

    def handle_message(self, raw: bytes) -> bytes:
        self.handled += 1
        return self.inner.handle_message(raw)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture
def provider():
    return CountingServer()


@pytest.fixture
def db(provider, secret_key, rng):
    session = EncryptedDatabase.open(
        secret_key, server=provider, rng=rng, cache=True
    )
    session.create_table(EMP_DECL, rows=ROWS)
    return session


def _rows(outcome):
    return sorted(tuple(t.values()) for t in outcome.relation)


class TestReadPath:
    def test_repeat_select_skips_the_provider(self, db, provider):
        first = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        before = provider.handled
        second = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        assert provider.handled == before  # zero round trips
        assert _rows(first) == _rows(second)
        assert db.cache.stats()["hits"] == 1

    def test_distinct_queries_do_not_collide(self, db):
        hr = db.select(Selection.equals("dept", "HR"), table="Emp")
        it = db.select(Selection.equals("dept", "IT"), table="Emp")
        assert _rows(hr) != _rows(it)

    def test_all_hit_batch_skips_the_round_trip(self, db, provider):
        queries = [Selection.equals("dept", "HR"), Selection.equals("dept", "IT")]
        first = db.select_many(queries, table="Emp")
        before = provider.handled
        second = db.select_many(queries, table="Emp")
        assert provider.handled == before
        assert [_rows(o) for o in first] == [_rows(o) for o in second]

    def test_partial_hit_batch_ships_only_the_misses(self, db):
        db.select(Selection.equals("dept", "HR"), table="Emp")
        outcomes = db.select_many(
            [Selection.equals("dept", "HR"), Selection.equals("dept", "IT")],
            table="Emp",
        )
        assert [len(o.relation) for o in outcomes] == [6, 6]
        stats = db.cache.stats()
        assert stats["hits"] >= 1

    def test_single_select_fill_serves_batch_elements(self, db, provider):
        db.select(Selection.equals("dept", "HR"), table="Emp")
        db.select(Selection.equals("dept", "IT"), table="Emp")
        before = provider.handled
        outcomes = db.select_many(
            [Selection.equals("dept", "HR"), Selection.equals("dept", "IT")],
            table="Emp",
        )
        assert provider.handled == before  # the shared token namespace pays off
        assert [len(o.relation) for o in outcomes] == [6, 6]

    def test_queries_sharing_a_token_do_not_share_an_entry(self, secret_key, rng):
        # Two salaries of one bucket encrypt to one token, but the indexed
        # lookup returns each one's own rows: the token alone is no key.
        db = EncryptedDatabase.open(
            secret_key, scheme="bucketization", index=True, cache=True, rng=rng
        )
        db.create_table(EMP_DECL, rows=ROWS)
        for salary in (1000, 1001, 1000, 1001):
            outcome = db.select(Selection.equals("salary", salary), table="Emp")
            assert [t["salary"] for t in outcome.relation] == [salary]
        assert db.cache.stats()["hits"] == 2


class TestWritePathInvalidation:
    def test_insert_invalidates(self, db):
        assert len(db.select(Selection.equals("dept", "HR"), table="Emp").relation) == 6
        db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 9})
        assert len(db.select(Selection.equals("dept", "HR"), table="Emp").relation) == 7

    def test_insert_many_invalidates(self, db):
        db.select(Selection.equals("dept", "HR"), table="Emp")
        db.insert_many(
            "Emp",
            [
                {"name": "A1", "dept": "HR", "salary": 1},
                {"name": "A2", "dept": "HR", "salary": 2},
            ],
        )
        assert len(db.select(Selection.equals("dept", "HR"), table="Emp").relation) == 8

    def test_delete_invalidates(self, db):
        db.select(Selection.equals("dept", "IT"), table="Emp")
        assert db.delete(Selection.equals("dept", "IT"), table="Emp") == 6
        assert len(db.select(Selection.equals("dept", "IT"), table="Emp").relation) == 0

    def test_update_invalidates(self, db):
        db.select(Selection.equals("name", "emp3"), table="Emp")
        db.update(Selection.equals("name", "emp3"), {"salary": 1}, table="Emp")
        outcome = db.select(Selection.equals("name", "emp3"), table="Emp")
        assert [t["salary"] for t in outcome.relation] == [1]

    def test_a_write_evicts_only_what_its_rows_can_satisfy(self, db, provider):
        hr, it = Selection.equals("dept", "HR"), Selection.equals("dept", "IT")
        emp3 = Selection.equals("name", "emp3")
        for query in (hr, it, emp3):
            db.select(query, table="Emp")
        db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 9})
        assert db.cache.stats()["invalidated_entries"] == 1
        before = provider.handled
        db.select(it, table="Emp")
        db.select(emp3, table="Emp")
        assert provider.handled == before  # untouched entries still serve
        assert len(db.select(hr, table="Emp").relation) == 7

    def test_drop_table_clears_entries(self, db):
        db.select(Selection.equals("dept", "HR"), table="Emp")
        db.drop_table("Emp")
        assert len(db.cache) == 0


class TestInFlightFence:
    """A write during a read's round trip drops that read's fill -- whatever
    the write evicts.  Deterministic: the reader is parked inside the
    provider on an event, not raced against a clock."""

    @pytest.fixture
    def gated(self, secret_key, rng):
        provider = GatedServer()
        db = EncryptedDatabase.open(secret_key, server=provider, rng=rng, cache=True)
        db.create_table(EMP_DECL, rows=ROWS)
        return provider, db

    def _insert_while_reading(self, provider, db, row) -> list[bool]:
        """``db`` inserts ``row`` while its own select of emp5 is at the
        provider; returns what the reader's ``put`` said."""
        fills = []
        real_put = db.cache.put

        def put(*args):
            fills.append(real_put(*args))
            return fills[-1]

        db.cache.put = put
        gate = provider.gate("Emp")
        reader = threading.Thread(
            target=db.select, args=(Selection.equals("name", "emp5"), "Emp")
        )
        reader.start()
        assert provider.entered["Emp"].wait(timeout=10)
        del provider.gates["Emp"]  # only the parked reader still waits on the event
        try:
            db.insert("Emp", row)
        finally:
            gate.set()
            reader.join(timeout=10)
        assert not reader.is_alive()
        return fills

    def _hits(self, db, query) -> bool:
        before = db.cache.stats()["hits"]
        db.select(query, table="Emp")
        return db.cache.stats()["hits"] == before + 1

    def test_a_write_the_read_matches_drops_the_fill_and_the_entry(self, gated):
        provider, db = gated
        hr, it = Selection.equals("dept", "HR"), Selection.equals("dept", "IT")
        db.select(hr, table="Emp")
        db.select(it, table="Emp")
        fills = self._insert_while_reading(provider, db, ("emp5", "HR", 7))
        assert fills == [False]
        assert not self._hits(db, Selection.equals("name", "emp5"))
        assert not self._hits(db, hr)  # the row satisfies it: evicted
        assert self._hits(db, it)
        names = [t["name"] for t in db.select(hr, table="Emp").relation]
        assert names.count("emp5") == 2

    def test_an_unrelated_write_drops_the_fill_and_nothing_else(self, gated):
        provider, db = gated
        cached = [
            Selection.equals("dept", "HR"),
            Selection.equals("name", "emp3"),
            Selection.equals("salary", 1004),
        ]
        for query in cached:
            db.select(query, table="Emp")
        fills = self._insert_while_reading(provider, db, ("zoe", "OPS", 9))
        assert fills == [False]  # the fence is relation-wide, as before
        assert db.cache.stats()["invalidated_entries"] == 0
        assert all(self._hits(db, query) for query in cached)
        assert not self._hits(db, Selection.equals("name", "emp5"))


class TestEquivalenceUnderInterleavedWrites:
    def test_cached_session_matches_uncached_twin(self, secret_key, rng):
        """Interleaved insert/delete/update: cache-on answers must be
        byte-identical to an uncached session driven over the same stream."""
        from repro.crypto.rng import DeterministicRng

        def build(cache):
            server = OutsourcedDatabaseServer()
            session = EncryptedDatabase.open(
                secret_key, server=server, rng=DeterministicRng(7), cache=cache
            )
            session.create_table(EMP_DECL, rows=ROWS)
            return session

        cached, plain = build(True), build(False)
        probes = [
            Selection.equals("dept", "HR"),
            Selection.equals("dept", "IT"),
            Selection.equals("name", "emp5"),
        ]

        def check():
            for probe in probes:
                got = _rows(cached.select(probe, table="Emp"))
                want = _rows(plain.select(probe, table="Emp"))
                assert got == want, f"stale read for {probe!r}: {got} != {want}"

        check()
        for session in (cached, plain):
            session.insert("Emp", {"name": "new1", "dept": "HR", "salary": 77})
        check()
        for session in (cached, plain):
            session.delete(Selection.equals("name", "emp5"), table="Emp")
        check()
        for session in (cached, plain):
            session.update(
                Selection.equals("dept", "IT"), {"salary": 4}, table="Emp"
            )
        check()
        assert cached.cache.stats()["invalidations"] > 0


class TestConfiguration:
    def test_cache_off_by_default(self, secret_key):
        db = EncryptedDatabase.open(secret_key)
        assert db.cache is None

    def test_bad_cache_option_is_a_database_error(self, secret_key):
        with pytest.raises(DatabaseError, match="cache"):
            EncryptedDatabase.open(secret_key, cache="yes")
        with pytest.raises(DatabaseError, match="max_entries"):
            EncryptedDatabase.open(secret_key, cache=0)

    def test_int_budget_and_dict_knobs(self, secret_key):
        assert EncryptedDatabase.open(secret_key, cache=5).cache.config.max_entries == 5
        db = EncryptedDatabase.open(secret_key, cache={"ttl_s": 1.5})
        assert db.cache.config.ttl_s == 1.5

    def test_counters_ride_the_session_metrics_plane(self, db):
        db.select(Selection.equals("dept", "HR"), table="Emp")
        db.select(Selection.equals("dept", "HR"), table="Emp")
        snapshot = db.metrics_snapshot()
        hits = [
            c for c in snapshot["counters"] if c["name"] == "cache_hits_total"
        ]
        assert hits and hits[0]["value"] >= 1
        assert hits[0]["labels"] == {"tier": "client"}

    def test_lookup_spans_are_traced(self, db):
        db.select(Selection.equals("dept", "HR"), table="Emp")
        db.select(Selection.equals("dept", "HR"), table="Emp")
        trace = db.fetch_trace()
        spans = trace["spans"]
        hit_spans = [
            span
            for span in spans
            if span["name"] == "cache.lookup"
            and span["annotations"].get("outcome") == "hit"
        ]
        assert hit_spans, [s["name"] for s in spans]
