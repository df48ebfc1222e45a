"""Tests for the outsourcing server (the provider), its audit log, and the
key-holding session driving it in-process."""

from __future__ import annotations

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.index import IndexDelta
from repro.outsourcing import AuditEventKind, OutsourcedDatabaseServer, ServerError
from repro.relational import Selection
from repro.relational.tuples import RelationTuple
from repro.schemes import HacigumusDph
from repro.schemes.registry import available_schemes


@pytest.fixture
def server():
    return OutsourcedDatabaseServer()


@pytest.fixture
def session(secret_key, rng, server):
    """The key-holding client (SWP scheme) over the in-process provider."""
    return EncryptedDatabase.open(secret_key, server=server, rng=rng)


def outsource(db, relation):
    """Create ``relation``'s table through ``db`` with its rows."""
    return db.create_table(
        relation.schema, rows=[tuple(row.values()) for row in relation]
    )


def stored_bytes(server, name):
    """Every byte the provider holds for relation ``name``."""
    return b"".join(
        t.tuple_id + t.payload + b"".join(t.search_fields) + t.metadata
        for t in server.stored_relation(name).encrypted_tuples
    )


class TestServer:
    def test_store_and_retrieve(self, swp_dph, employee_relation, server):
        encrypted = swp_dph.encrypt_relation(employee_relation)
        server.store_relation("emp", encrypted, swp_dph.server_evaluator())
        assert server.relation_names == ("emp",)
        assert server.stored_relation("emp") is encrypted
        assert server.storage_in_bytes("emp") == encrypted.size_in_bytes()
        assert server.storage_in_bytes() == encrypted.size_in_bytes()

    def test_empty_name_rejected(self, swp_dph, employee_relation, server):
        with pytest.raises(ServerError):
            server.store_relation("", swp_dph.encrypt_relation(employee_relation),
                                  swp_dph.server_evaluator())

    def test_unknown_relation_rejected(self, server, swp_dph):
        with pytest.raises(ServerError):
            server.stored_relation("missing")
        with pytest.raises(ServerError):
            server.execute_query("missing", swp_dph.encrypt_query(Selection.equals("dept", "HR")))

    def test_execute_query_and_audit(self, swp_dph, employee_relation, server):
        server.store_relation("emp", swp_dph.encrypt_relation(employee_relation),
                              swp_dph.server_evaluator())
        result = server.execute_query("emp", swp_dph.encrypt_query(Selection.equals("dept", "HR")))
        assert len(result.matching) == 2
        sizes = server.audit_log.query_result_sizes("emp")
        assert sizes == [2]
        assert server.audit_log.summary()["query-executed"] == 1

    def test_scheme_mismatch_rejected(self, swp_dph, employee_relation, server, employee_schema, secret_key, rng):
        server.store_relation("emp", swp_dph.encrypt_relation(employee_relation),
                              swp_dph.server_evaluator())
        other = HacigumusDph(employee_schema, secret_key, rng=rng)
        with pytest.raises(ServerError):
            server.execute_query("emp", other.encrypt_query(Selection.equals("dept", "HR")))

    def test_insert_tuple(self, swp_dph, employee_relation, employee_schema, server):
        server.store_relation("emp", swp_dph.encrypt_relation(employee_relation),
                              swp_dph.server_evaluator())
        new_tuple = RelationTuple(employee_schema, {"name": "Eve", "dept": "HR", "salary": 1})
        server.insert_tuples("emp", [swp_dph.encrypt_tuple(new_tuple)], IndexDelta())
        assert len(server.stored_relation("emp")) == len(employee_relation) + 1
        assert len(server.audit_log.events_of_kind(AuditEventKind.TUPLE_INSERTED)) == 1


class TestSessionOverTheServer:
    def test_outsource_and_select(self, session, server, employee_relation):
        outsource(session, employee_relation)
        assert server.storage_in_bytes("Emp") > 0
        outcome = session.select(Selection.equals("dept", "HR"), table="Emp")
        assert outcome.relation == employee_relation.select_equal("dept", "HR")
        assert outcome.false_positives == 0

    def test_select_with_sql(self, session, employee_relation):
        outsource(session, employee_relation)
        outcome = session.select("SELECT name, salary FROM Emp WHERE dept = 'IT'")
        assert len(outcome.relation) == 2
        assert sorted(outcome.projected_rows) == [("Adams", 6100), ("Smith", 5200)]

    def test_retrieve_all(self, session, employee_relation):
        outsource(session, employee_relation)
        assert session.retrieve_all("Emp") == employee_relation

    def test_insert_then_select(self, session, server, employee_relation):
        outsource(session, employee_relation)
        session.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 3000})
        outcome = session.select(Selection.equals("name", "Zoe"), table="Emp")
        assert [t["salary"] for t in outcome.relation] == [3000]
        assert len(server.stored_relation("Emp")) == len(employee_relation) + 1
        assert len(server.audit_log.events_of_kind(AuditEventKind.TUPLE_INSERTED)) == 1

    def test_table_is_stored_under_its_schema_name(self, session, server, employee_relation):
        outsource(session, employee_relation)
        assert session.tables == ("Emp",)
        assert server.relation_names == ("Emp",)

    def test_a_second_table_of_the_same_name_is_refused(self, session, server, employee_relation):
        outsource(session, employee_relation)
        with pytest.raises(DatabaseError, match="already exists"):
            outsource(session, employee_relation)
        assert len(server.stored_relation("Emp")) == len(employee_relation)

    def test_a_second_session_reads_the_stored_table(self, session, server, secret_key,
                                                     employee_relation):
        outsource(session, employee_relation)
        other = EncryptedDatabase.open(secret_key, server=server)
        other.attach_table(employee_relation.schema)
        assert other.retrieve_all("Emp") == employee_relation
        other.insert("Emp", ("Zoe", "HR", 3000))
        assert len(session.select(Selection.equals("dept", "HR"), table="Emp").relation) == 3

    def test_provider_audits_each_select(self, session, server, employee_relation):
        outsource(session, employee_relation)
        session.select(Selection.equals("dept", "HR"), table="Emp")
        session.select(Selection.equals("dept", "SALES"), table="Emp")
        assert server.audit_log.query_result_sizes("Emp") == [2, 1]

    def test_server_only_sees_ciphertext(self, session, server, employee_relation):
        outsource(session, employee_relation)
        blob = stored_bytes(server, "Emp")
        assert b"Montgomery" not in blob
        assert b"7500" not in blob


class TestEndToEndWithAllSchemes:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_every_scheme_supports_the_session_workflow(self, scheme, secret_key, rng,
                                                        employee_relation):
        server = OutsourcedDatabaseServer()
        db = EncryptedDatabase.open(secret_key, server=server, scheme=scheme, rng=rng)
        outsource(db, employee_relation)
        outcome = db.select(Selection.equals("dept", "HR"), table="Emp")
        assert outcome.relation == employee_relation.select_equal("dept", "HR")
        assert db.retrieve_all("Emp") == employee_relation
        assert server.relation_names == ("Emp",)

    @pytest.mark.parametrize(
        "scheme", [name for name in available_schemes() if name != "plaintext"]
    )
    def test_every_encrypting_scheme_hides_the_values(self, scheme, secret_key, rng,
                                                      employee_relation):
        server = OutsourcedDatabaseServer()
        db = EncryptedDatabase.open(secret_key, server=server, scheme=scheme, rng=rng)
        outsource(db, employee_relation)
        blob = stored_bytes(server, "Emp")
        for value in (b"Montgomery", b"Smith", b"SALES", b"7500"):
            assert value not in blob
