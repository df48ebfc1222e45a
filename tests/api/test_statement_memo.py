"""The per-session statement memo: a repeated SQL text is parsed once.

``_resolve`` keeps ``(sql text, table argument) -> (relation name, Query)``.
Literals are typed by the schema, so the memo must never outlive the
declaration it was parsed under, never hold a parse that raised, and never
change what a statement raises or returns.
"""

from __future__ import annotations

import pytest

from repro.api import DatabaseError, EncryptedDatabase, database
from repro.obs import histogram_summaries
from repro.relational import QueryError, Selection

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(6)]
HR = "SELECT name FROM Emp WHERE dept = 'HR'"


@pytest.fixture
def parses(monkeypatch):
    """How often the session module called ``parse_sql``."""
    calls = []
    real = database.parse_sql

    def counting(statement, schema=None):
        calls.append(statement)
        return real(statement, schema)

    monkeypatch.setattr(database, "parse_sql", counting)
    return calls


@pytest.fixture
def db(secret_key, rng):
    session = EncryptedDatabase.open(secret_key, rng=rng)
    session.create_table(EMP_DECL, rows=ROWS)
    return session


def _names(outcome):
    return sorted(t["name"] for t in outcome.relation)


class TestRepeatedStatements:
    def test_a_repeated_statement_is_parsed_once(self, db, parses):
        first = db.select(HR)
        again = db.select(HR)
        assert parses == [HR]
        assert _names(first) == _names(again) == ["emp1", "emp3", "emp5"]
        assert first.projected_rows == again.projected_rows

    def test_every_statement_kind_shares_the_memo(self, db, parses):
        where = "SELECT * FROM Emp WHERE name = 'emp1'"
        db.select(where)
        assert db.update(where, {"salary": 7}) == 1
        assert db.select_many([where, where])[1].relation.tuples[0]["salary"] == 7
        assert db.delete(where) == 1
        assert parses == [where]

    def test_the_table_argument_is_part_of_the_key(self, db, parses):
        db.select(HR)
        db.select(HR, table="Emp")
        assert parses == [HR, HR]
        db.select(HR, table="Emp")
        assert len(parses) == 2

    def test_the_memo_is_bounded(self, db, monkeypatch):
        monkeypatch.setattr(database, "STATEMENT_MEMO_SIZE", 4)
        for i in range(11):
            db.select(f"SELECT * FROM Emp WHERE salary = {i}")
            assert len(db._statements) <= 4

    def test_ast_queries_bypass_the_memo(self, db, parses):
        db.select(Selection.equals("dept", "HR"), table="Emp")
        assert parses == [] and db._statements == {}


class TestAStatementThatRaises:
    """Warm or cold, a bad statement raises the same thing -- every time."""

    def test_a_parse_that_raises_is_never_memoised(self, db, parses):
        db.select("SELECT * FROM Emp WHERE salary = 1001")
        for bad, why in (("'lots'", "expected int"), ("lots", "not a valid integer")):
            for _ in range(2):
                with pytest.raises(QueryError, match=why):
                    db.select(f"SELECT * FROM Emp WHERE salary = {bad}")
        assert len(db._statements) == 1 and len(parses) == 5

    def test_sql_naming_another_table_than_the_argument(self, db, parses):
        db.create_table("Dept(dept:string[8], floor:int[6])", rows=[("HR", 1)])
        db.select(HR)
        db.select(HR, table="Emp")
        for _ in range(2):
            with pytest.raises(DatabaseError, match="caller said 'Dept'"):
                db.select(HR, table="Dept")
        assert parses.count(HR) == 4  # the refused pair is parsed each time

    def test_a_select_on_a_dropped_table(self, db):
        cold = EncryptedDatabase.open(db._key, server=db.server)
        with pytest.raises(DatabaseError) as cold_error:
            cold.select(HR)
        db.select(HR)
        db.drop_table("Emp")
        with pytest.raises(DatabaseError) as warm_error:
            db.select(HR)
        assert str(warm_error.value) == str(cold_error.value)


class TestDdlDropsTheMemo:
    RETYPED = "Emp(name:string[14], dept:string[5], salary:string[6])"
    WHERE = "SELECT * FROM Emp WHERE salary = 1001"

    def test_create_after_drop_retypes_the_literal(self, db, parses):
        assert _names(db.select(self.WHERE)) == ["emp1"]
        db.drop_table("Emp")
        assert db._statements == {}
        db.create_table(self.RETYPED, rows=[("ann", "HR", "1001")])
        outcome = db.select(self.WHERE)
        assert [t["salary"] for t in outcome.relation] == ["1001"]
        assert parses == [self.WHERE, self.WHERE]

    def test_attach_after_drop_retypes_the_literal(self, db, secret_key):
        db.select(self.WHERE)
        db.drop_table("Emp")
        other = EncryptedDatabase.open(secret_key, server=db.server)
        other.create_table(self.RETYPED, rows=[("ann", "HR", "1001")])
        db.attach_table(self.RETYPED)
        assert [t["salary"] for t in db.select(self.WHERE).relation] == ["1001"]

    def test_another_tables_ddl_drops_it_too(self, db):
        db.select(HR)
        db.create_table("Dept(dept:string[8], floor:int[6])")
        assert db._statements == {}

    def test_a_parse_in_flight_across_ddl_is_lost_not_kept(self, db, monkeypatch):
        """The fill goes to the dict the parse started from, which DDL replaced."""
        real = database.parse_sql

        def parse_then_redeclare(statement, schema=None):
            parsed = real(statement, schema)
            db.drop_table("Emp")
            db.create_table(self.RETYPED, rows=[("ann", "HR", "1001")])
            return parsed

        monkeypatch.setattr(database, "parse_sql", parse_then_redeclare)
        with pytest.raises(Exception, match="expected str, got int"):
            db.select(self.WHERE)  # typed under the old declaration: refused
        monkeypatch.setattr(database, "parse_sql", real)
        assert db._statements == {}
        assert [t["salary"] for t in db.select(self.WHERE).relation] == ["1001"]


class TestEveryOperationIsStillObserved:
    def test_memoised_selects_are_traced_and_timed(self, db):
        seen = set()
        for _ in range(5):
            db.select(HR)
            seen.add(db.last_trace_id)
            assert db.trace_buffer.get(bytes.fromhex(db.last_trace_id)) is not None
        assert len(seen) == 5
        (summary,) = [
            s
            for s in histogram_summaries(db.metrics.snapshot())
            if s["name"] == "session_op_seconds"
        ]
        assert summary["labels"] == {"op_kind": "select"} and summary["count"] == 5

    def test_slow_memoised_selects_reach_the_slow_query_log(self, db):
        db.slow_queries.threshold_s = 0.0
        db.select(HR)
        db.select(HR)
        assert len(db.slow_queries) == 2
