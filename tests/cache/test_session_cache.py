"""Client-side session cache: hits skip the provider, writes invalidate.

The stale-read regression discipline: every test that mixes writes and
cached reads checks the cached session's answers against an uncached
session over an identical provider -- cache-on must be indistinguishable
from cache-off except in round-trip count.
"""

from __future__ import annotations

import sys
import threading

import pytest

from gated_provider import GatedServer
from provider_calls import cache_counts
from repro.api import DatabaseError, EncryptedDatabase, database
from repro.cache import CacheConfig
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import parse_message
from repro.relational import QueryError, Selection

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
        assert cache_counts(db)["hits_total"] == 1

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
        stats = cache_counts(db)
        assert stats["hits_total"] >= 1

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
        assert cache_counts(db)["hits_total"] == 2


@pytest.fixture
def calls(db, monkeypatch):
    """Counts of the work a hit must not do: parse, ``Eq``, ``D``."""
    counts = {"parse_sql": 0, "encrypt_query": 0, "decrypt_result": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(database, "parse_sql", counting("parse_sql", database.parse_sql))
    scheme = db.table("Emp").scheme
    for name in ("encrypt_query", "decrypt_result"):
        monkeypatch.setattr(scheme, name, counting(name, getattr(scheme, name)))
    return counts


class TestHitPath:
    """A hit is a dictionary probe and a copy of row pointers."""

    SQL = "SELECT name FROM Emp WHERE dept = 'HR'"

    def test_a_warm_select_parses_encrypts_and_decrypts_nothing(self, db, calls, provider):
        fill = db.select(self.SQL)
        assert calls == {"parse_sql": 1, "encrypt_query": 1, "decrypt_result": 1}
        before = provider.handled
        hits = [db.select(self.SQL) for _ in range(3)]
        assert calls == {"parse_sql": 1, "encrypt_query": 1, "decrypt_result": 1}
        assert provider.handled == before
        for hit in hits:
            assert _rows(hit) == _rows(fill)
            assert hit.projected_rows == fill.projected_rows
            assert hit.evaluation is fill.evaluation

    def test_an_all_hit_batch_encrypts_nothing(self, db, calls, provider):
        queries = [Selection.equals("dept", "HR"), Selection.equals("dept", "IT")]
        fill = db.select_many(queries, table="Emp")
        assert calls["encrypt_query"] == 2
        before = provider.handled
        hit = db.select_many(queries, table="Emp")
        assert calls["encrypt_query"] == 2 and calls["decrypt_result"] == 2
        assert provider.handled == before
        assert [_rows(o) for o in hit] == [_rows(o) for o in fill]

    def test_a_partial_hit_batch_encrypts_only_the_misses(self, db, calls):
        db.select(Selection.equals("dept", "HR"), table="Emp")
        db.select_many(
            [Selection.equals("dept", "HR"), Selection.equals("dept", "IT")], table="Emp"
        )
        assert calls["encrypt_query"] == 2

    def test_projection_is_per_call_over_one_entry(self, db, calls):
        star = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        names = db.select(self.SQL)
        assert calls["decrypt_result"] == 1 and len(db.cache) == 1
        assert star.projected_rows is None
        assert sorted(names.projected_rows) == sorted((t["name"],) for t in star.relation)

    def test_what_a_select_returns_is_the_callers_to_change(self, db):
        fill = db.select(self.SQL)
        fill.relation.add({"name": "Zoe", "dept": "HR", "salary": 1})
        fill.projected_rows.append(("Zoe",))
        first, second = db.select(self.SQL), db.select(self.SQL)
        assert first.relation is not second.relation is not fill.relation
        assert first.projected_rows is not second.projected_rows
        first.relation.add({"name": "Yan", "dept": "HR", "salary": 2})
        first.projected_rows.clear()
        for outcome in (second, db.select(self.SQL), *db.select_many([self.SQL] * 2)):
            assert len(outcome.relation) == len(outcome.projected_rows) == 6
            assert outcome.report.kept == 6

    def test_a_hit_reports_the_false_positives_of_the_fill(self, secret_key, rng):
        db = EncryptedDatabase.open(secret_key, scheme="bucketization", cache=True, rng=rng)
        db.create_table(EMP_DECL, rows=ROWS)
        query = Selection.equals("salary", 1003)
        fill = db.select(query, table="Emp")
        hit = db.select(query, table="Emp")
        assert cache_counts(db)["hits_total"] == 1
        assert fill.false_positives > 0  # the bucket holds more than one salary
        for field in ("returned", "false_positives", "kept"):
            assert getattr(hit.report, field) == getattr(fill.report, field)
        assert _rows(hit) == _rows(fill) == [("emp3", "HR", 1003)]

    def test_equal_conjunct_values_share_an_entry_and_an_answer(self, db, calls):
        class Salary(int):
            """A valid integer that is not ``int`` itself."""

        assert database._cache_key(Selection.equals("salary", 1003)) == database._cache_key(
            Selection.equals("salary", 1003.0)
        )
        fill = db.select(Selection.equals("salary", 1003), table="Emp")
        hit = db.select(Selection.equals("salary", Salary(1003)), table="Emp")
        assert calls["encrypt_query"] == 1 and len(db.cache) == 1
        assert _rows(hit) == _rows(fill) == [("emp3", "HR", 1003)]
        for _ in range(2):  # a float is refused warm as it is cold
            with pytest.raises(QueryError, match="expected int, got float"):
                db.select(Selection.equals("salary", 1003.0), table="Emp")

    def test_a_bad_literal_raises_warm_as_cold(self, db):
        db.select("SELECT * FROM Emp WHERE salary = 1003")
        for _ in range(2):
            with pytest.raises(QueryError, match="expected int"):
                db.select("SELECT * FROM Emp WHERE salary = '1003'")
            with pytest.raises(DatabaseError, match="caller said 'Dept'"):
                db.select("SELECT * FROM Emp WHERE salary = 1003", table="Dept")

    def test_a_dropped_table_raises_warm_as_cold(self, db, secret_key):
        cold = EncryptedDatabase.open(secret_key, cache=True)
        with pytest.raises(DatabaseError) as cold_error:
            cold.select(self.SQL)
        db.select(self.SQL)
        db.drop_table("Emp")
        for query, table in ((self.SQL, None), (Selection.equals("dept", "HR"), "Emp")):
            with pytest.raises(DatabaseError) as warm_error:
                db.select(query, table=table)
            assert str(warm_error.value) == str(cold_error.value)

    def test_concurrent_cold_selects_agree_with_the_oracle(self, db, secret_key, provider):
        plain = EncryptedDatabase.open(secret_key, server=provider)
        plain.attach_table(EMP_DECL)
        want = _rows(plain.select(self.SQL))
        got, errors = [], []
        barrier = threading.Barrier(8)

        def reader():
            try:
                barrier.wait(timeout=10)
                for _ in range(20):
                    outcome = db.select(self.SQL)
                    got.append((_rows(outcome), sorted(outcome.projected_rows)))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert len(got) == 160
        assert all(answer == (want, sorted((r[0],) for r in want)) for answer in got)


class TestWritesReadTheCachedCiphertext:
    """``update`` / ``delete`` address tuple ids out of the cached entry."""

    def test_delete_after_a_cached_select(self, db, calls, provider):
        where = Selection.equals("name", "emp3")
        db.select(where, table="Emp")
        assert db.delete(where, table="Emp") == 1
        assert calls["encrypt_query"] == 1  # the delete read the cached answer
        assert len(db.select(where, table="Emp").relation) == 0
        assert calls["encrypt_query"] == 2  # ... and evicted it
        assert db.count("Emp") == len(ROWS) - 1
        assert len(db.select(Selection.equals("dept", "HR"), table="Emp").relation) == 5

    def test_update_after_a_cached_select(self, db, calls):
        where = Selection.equals("name", "emp4")
        old = db.select(where, table="Emp").evaluation.matching.encrypted_tuples[0]
        assert db.update(where, {"salary": 5}, table="Emp") == 1
        assert calls["encrypt_query"] == 1
        new = db.select(where, table="Emp")
        assert [t["salary"] for t in new.relation] == [5]
        assert new.evaluation.matching.encrypted_tuples[0].tuple_id != old.tuple_id
        assert db.count("Emp") == len(ROWS)

    def test_a_write_that_matches_nothing_leaves_the_entry_to_the_next_select(self, db, calls):
        where = Selection.equals("name", "nobody")
        assert db.delete(where, table="Emp") == 0
        assert len(db.select(where, table="Emp").relation) == 0
        assert calls == {"parse_sql": 0, "encrypt_query": 1, "decrypt_result": 1}


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
        assert cache_counts(db)["invalidated_entries_total"] == 1
        before = provider.handled
        db.select(it, table="Emp")
        db.select(emp3, table="Emp")
        assert provider.handled == before  # untouched entries still serve
        assert len(db.select(hr, table="Emp").relation) == 7

    def test_drop_table_clears_entries(self, db):
        db.select(Selection.equals("dept", "HR"), table="Emp")
        db.drop_table("Emp")
        assert len(db.cache) == 0


class AnsweredGateServer(GatedServer):
    """Parks a gated relation's answer once the provider has served it,
    outside the relation's lock: the reply is in flight while a write runs."""

    def _serve(self, request):
        return OutsourcedDatabaseServer._serve(self, request)

    def handle_message(self, raw: bytes) -> bytes:
        answer = super().handle_message(raw)
        self.pass_gate(parse_message(raw).relation_name)
        return answer


class TestInFlightFence:
    """A write during a read's round trip drops that read's fill -- whatever
    the write evicts.  Deterministic: the reader's answer is parked at the
    provider on an event, not raced against a clock."""

    @pytest.fixture
    def gated(self, secret_key, rng):
        provider = AnsweredGateServer()
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
        before = cache_counts(db)["hits_total"]
        db.select(query, table="Emp")
        return cache_counts(db)["hits_total"] == before + 1

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
        assert cache_counts(db)["invalidated_entries_total"] == 0
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
        assert cache_counts(cached)["invalidations_total"] > 0


class TestConfiguration:
    def test_cache_off_by_default(self, secret_key):
        db = EncryptedDatabase.open(secret_key)
        assert db.cache is None

    def test_bad_cache_option_is_a_database_error(self, secret_key):
        for value in ("yes", 5, {"ttl_s": 1.5}):
            with pytest.raises(DatabaseError, match="bool or a CacheConfig"):
                EncryptedDatabase.open(secret_key, cache=value)
        with pytest.raises(DatabaseError, match="max_entries"):
            EncryptedDatabase.open(secret_key, cache=CacheConfig(max_entries=0))

    def test_a_config_sets_the_budget_and_the_ttl(self, secret_key):
        db = EncryptedDatabase.open(secret_key, cache=CacheConfig(max_entries=5, ttl_s=1.5))
        assert (db.cache.config.max_entries, db.cache.config.ttl_s) == (5, 1.5)

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
