"""End-to-end tests of the :class:`EncryptedDatabase` session facade."""

from __future__ import annotations

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.outsourcing import (
    FileStorageBackend,
    InMemoryStorageBackend,
    OutsourcedDatabaseServer,
    StorageError,
)
from repro.relational import ConjunctiveSelection, Relation, Selection
from repro.schemes.registry import available_schemes
from provider_calls import drop_relation, relation_names, stored_relation

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"

ROWS = [
    ("Montgomery", "HR", 7500),
    ("Smith", "IT", 5200),
    ("Jones", "HR", 7500),
    ("Brown", "SALES", 4100),
    ("Adams", "IT", 6100),
]


@pytest.fixture(scope="module")
def tcp_provider():
    """One TCP provider shared by every remote-transport test in this module."""
    from repro.net import ThreadedTcpServer

    with ThreadedTcpServer() as server:
        yield server


@pytest.fixture(
    params=[
        "in-process",
        "tcp",
        "tcp-async",
        "cluster",
        "in-process+index",
        "tcp+index",
        "tcp-async+index",
        "cluster+index",
    ]
)
def transport(request):
    """Direct provider, a socket (blocking or pipelined), or a 2-shard
    cluster of in-process backends -- each plain and with the encrypted
    inverted index maintained through every operation."""
    return request.param


@pytest.fixture(params=available_schemes())
def db(request, transport, secret_key, rng):
    indexed = transport.endswith("+index")
    base = transport[: -len("+index")] if indexed else transport
    if base == "in-process":
        session = EncryptedDatabase.open(
            secret_key, scheme=request.param, rng=rng, index=indexed
        )
        session.create_table(EMP_DECL, rows=ROWS)
        yield session
        return
    if base == "cluster":
        # The same suite sharded across two backends -- the scatter-gather
        # router must be just as transparent as the socket.
        from repro.outsourcing import OutsourcedDatabaseServer

        session = EncryptedDatabase.open(
            secret_key,
            shards=[OutsourcedDatabaseServer(), OutsourcedDatabaseServer()],
            scheme=request.param,
            rng=rng,
            index=indexed,
        )
        try:
            session.create_table(EMP_DECL, rows=ROWS)
            yield session
        finally:
            session.close()  # shuts the router's scatter pool down
        return
    # The same suite over tcp:// -- the transport must be transparent --
    # both the blocking pooled proxy and the pipelined asyncio proxy.
    provider = request.getfixturevalue("tcp_provider")
    options = [opt for opt, on in (("async=1", base == "tcp-async"),
                                   ("index=1", indexed)) if on]
    suffix = "?" + "&".join(options) if options else ""
    session = EncryptedDatabase.connect(
        f"tcp://127.0.0.1:{provider.port}{suffix}",
        secret_key,
        scheme=request.param,
        rng=rng,
    )
    try:
        session.create_table(EMP_DECL, rows=ROWS)
        yield session
    finally:
        # The module-scoped provider outlives the test: clear its state.
        for name in relation_names(session.server):
            drop_relation(session.server, name)
        session.close()


class TestCrudAcrossAllSchemes:
    def test_select_sql_and_ast(self, db):
        outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        assert outcome.relation == Relation.from_rows(
            db.schema("Emp"), [row for row in ROWS if row[1] == "HR"]
        )
        outcome = db.select(Selection.equals("dept", "IT"), table="Emp")
        assert len(outcome.relation) == 2
        assert sorted(t["name"] for t in outcome.relation) == ["Adams", "Smith"]

    def test_projection_rows(self, db):
        outcome = db.select("SELECT name, salary FROM Emp WHERE dept = 'IT'")
        assert sorted(outcome.projected_rows) == [("Adams", 6100), ("Smith", 5200)]

    def test_insert_then_select(self, db):
        db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 3000})
        outcome = db.select(Selection.equals("name", "Zoe"), table="Emp")
        assert len(outcome.relation) == 1
        assert db.count("Emp") == len(ROWS) + 1

    def test_insert_many(self, db):
        shipped = db.insert_many(
            "Emp", [("A", "OPS", 1), {"name": "B", "dept": "OPS", "salary": 2}]
        )
        assert shipped == 2
        assert len(db.select(Selection.equals("dept", "OPS"), table="Emp").relation) == 2

    def test_delete_by_predicate(self, db):
        deleted = db.delete("SELECT * FROM Emp WHERE dept = 'HR'")
        assert deleted == 2
        assert db.count("Emp") == len(ROWS) - 2
        assert len(db.select(Selection.equals("dept", "HR"), table="Emp").relation) == 0
        # the other departments survived
        assert len(db.select(Selection.equals("dept", "IT"), table="Emp").relation) == 2

    def test_delete_without_matches(self, db):
        assert db.delete(Selection.equals("dept", "LEGAL"), table="Emp") == 0
        assert db.count("Emp") == len(ROWS)

    def test_update_reencrypts_matching_tuples(self, db):
        updated = db.update("SELECT * FROM Emp WHERE name = 'Smith'", {"salary": 9999})
        assert updated == 1
        outcome = db.select(Selection.equals("salary", 9999), table="Emp")
        assert [t["name"] for t in outcome.relation] == ["Smith"]
        assert db.count("Emp") == len(ROWS)

    def test_update_gets_fresh_tuple_ids(self, db):
        before = {t.tuple_id for t in stored_relation(db.server, "Emp")}
        db.update(Selection.equals("name", "Brown"), {"salary": 4200}, table="Emp")
        after = {t.tuple_id for t in stored_relation(db.server, "Emp")}
        # delete-then-insert: the provider cannot link old and new versions
        assert len(after - before) == 1

    def test_conjunctive_selection(self, db):
        outcome = db.select(
            ConjunctiveSelection.of(("dept", "HR"), ("salary", 7500)), table="Emp"
        )
        assert len(outcome.relation) == 2

    def test_select_many_batches_one_round_trip(self, db):
        outcomes = db.select_many(
            [
                Selection.equals("dept", "HR"),
                Selection.equals("dept", "IT"),
                "SELECT * FROM Emp WHERE dept = 'SALES'",
            ],
            table="Emp",
        )
        assert [len(o.relation) for o in outcomes] == [2, 2, 1]

    def test_retrieve_all_roundtrip(self, db):
        assert db.retrieve_all("Emp") == Relation.from_rows(db.schema("Emp"), ROWS)

    def test_indexed_serving_is_o_result(self, db):
        """Indexed sessions answer from the index (examined ~ result size);
        plain sessions scan (examined ~ data size).  Either way the results
        above already proved byte-for-byte equality with the expectation."""
        outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        assert len(outcome.relation) == 2
        if db.index_enabled:
            assert outcome.evaluation.examined == 2
        else:
            assert outcome.evaluation is None or (
                outcome.evaluation.examined >= len(ROWS)
            )

    def test_indexed_crud_matches_a_scan_session(self, db, secret_key, rng):
        """Drive CRUD through the (possibly indexed) session, then compare
        every query's result against a plain scanning session attached to
        the very same provider state."""
        db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 1})
        db.delete(Selection.equals("name", "Smith"), table="Emp")
        db.update(Selection.equals("name", "Jones"), {"dept": "OPS"}, table="Emp")
        scan = EncryptedDatabase.open(
            secret_key, server=db.server, scheme=db.scheme_name, rng=rng
        )
        scan.attach_table(EMP_DECL)
        for where in (
            Selection.equals("dept", "HR"),
            Selection.equals("dept", "OPS"),
            Selection.equals("name", "Smith"),
            Selection.equals("name", "Zoe"),
        ):
            indexed = db.select(where, table="Emp")
            scanned = scan.select(where, table="Emp")
            assert sorted(t["name"] for t in indexed.relation) == sorted(
                t["name"] for t in scanned.relation
            )


class TestSessionManagement:
    def test_multi_table_routing(self, secret_key):
        db = EncryptedDatabase.open(secret_key)
        db.create_table(EMP_DECL, rows=ROWS)
        db.create_table("Dept(dept:string[5], city:string[8])",
                        rows=[("HR", "Berlin"), ("IT", "Potsdam")])
        assert set(db.tables) == {"Emp", "Dept"}
        assert len(db.select("SELECT * FROM Dept WHERE city = 'Berlin'").relation) == 1
        assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 2
        with pytest.raises(DatabaseError):
            db.select("SELECT * FROM Nowhere WHERE x = 1")
        with pytest.raises(DatabaseError):
            # AST queries need a table name once several tables exist
            db.select(Selection.equals("dept", "HR"))

    def test_sql_table_mismatch_rejected(self, db):
        with pytest.raises(DatabaseError):
            db.select("SELECT * FROM Emp WHERE dept = 'HR'", table="Other")

    def test_duplicate_create_rejected(self, db):
        with pytest.raises(DatabaseError):
            db.create_table(EMP_DECL)

    def test_drop_table(self, db):
        db.drop_table("Emp")
        assert db.tables == ()
        assert "Emp" not in relation_names(db.server)
        with pytest.raises(DatabaseError):
            db.select("SELECT * FROM Emp WHERE dept = 'HR'")

    def test_unknown_update_attribute_rejected(self, db):
        with pytest.raises(DatabaseError):
            db.update(Selection.equals("dept", "HR"), {"bonus": 1}, table="Emp")

    def test_row_arity_mismatch_rejected(self, db):
        with pytest.raises(DatabaseError):
            db.insert("Emp", ("only-one",))

    def test_schema_violations_surface_as_database_errors(self, db):
        with pytest.raises(DatabaseError):
            db.insert("Emp", {"name": "X" * 99, "dept": "HR", "salary": 1})
        with pytest.raises(DatabaseError):
            db.update(Selection.equals("dept", "HR"), {"name": "X" * 99}, table="Emp")

    def test_server_and_storage_are_mutually_exclusive(self, secret_key):
        with pytest.raises(DatabaseError):
            EncryptedDatabase.open(
                secret_key,
                server=OutsourcedDatabaseServer(),
                storage=InMemoryStorageBackend(),
            )

    def test_scheme_aliases_accepted(self, secret_key):
        db = EncryptedDatabase.open(secret_key, scheme="index-sse")
        assert db.scheme_name == "index"


class TestFileBackedSessions:
    def test_tables_survive_a_session_restart(self, tmp_path, secret_key):
        storage = FileStorageBackend(tmp_path / "relations")
        first = EncryptedDatabase.open(secret_key, storage=storage)
        first.create_table(EMP_DECL, rows=ROWS)
        first.delete(Selection.equals("dept", "SALES"), table="Emp")

        # a brand-new server process over the same files, same master key
        reopened = EncryptedDatabase.open(
            secret_key, server=OutsourcedDatabaseServer(storage=FileStorageBackend(tmp_path / "relations"))
        )
        handle = reopened.attach_table(EMP_DECL)
        assert handle.name == "Emp"
        assert reopened.count("Emp") == len(ROWS) - 1
        outcome = reopened.select("SELECT * FROM Emp WHERE dept = 'HR'")
        assert len(outcome.relation) == 2
        reopened.insert("Emp", {"name": "New", "dept": "HR", "salary": 1})
        assert len(reopened.select(Selection.equals("dept", "HR"), table="Emp").relation) == 3

    def test_file_append_keeps_the_count_prefix_consistent(self, tmp_path, secret_key):
        storage = FileStorageBackend(tmp_path)
        db = EncryptedDatabase.open(secret_key, storage=storage)
        db.create_table(EMP_DECL, rows=ROWS[:1])
        # in-place appends (count bump + extend) must stay decodable
        db.insert_many("Emp", [(f"n{i}", "IT", i) for i in range(10)])
        assert len(storage.load("Emp")) == 11
        assert len(db.select(Selection.equals("dept", "IT"), table="Emp").relation) == 10

    def test_create_over_stored_relation_rejected(self, tmp_path, secret_key):
        directory = tmp_path / "relations"
        first = EncryptedDatabase.open(secret_key, storage=FileStorageBackend(directory))
        first.create_table(EMP_DECL, rows=ROWS)
        # a later session must not clobber the persisted ciphertext
        reopened = EncryptedDatabase.open(secret_key, storage=FileStorageBackend(directory))
        with pytest.raises(DatabaseError, match="already stores"):
            reopened.create_table(EMP_DECL)
        assert reopened.attach_table(EMP_DECL).name == "Emp"
        assert reopened.count("Emp") == len(ROWS)

    def test_attach_with_mismatched_schema_rejected(self, tmp_path, secret_key):
        storage = FileStorageBackend(tmp_path)
        db = EncryptedDatabase.open(secret_key, storage=storage)
        db.create_table(EMP_DECL, rows=ROWS)
        other = EncryptedDatabase.open(secret_key, server=db.server)
        with pytest.raises(DatabaseError, match="schema mismatch"):
            other.attach_table("Emp(dept:string[5], name:string[14], salary:int[6])")

    def test_attach_requires_stored_relation(self, tmp_path, secret_key):
        db = EncryptedDatabase.open(secret_key, storage=FileStorageBackend(tmp_path))
        with pytest.raises(DatabaseError):
            db.attach_table(EMP_DECL)

    def test_corrupt_file_rejected(self, tmp_path, secret_key):
        storage = FileStorageBackend(tmp_path)
        db = EncryptedDatabase.open(secret_key, storage=storage)
        db.create_table(EMP_DECL, rows=ROWS)
        path = storage._path("Emp")
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(StorageError):
            storage.load("Emp")


class OneMethodProvider:
    """A provider that is nothing but ``handle_message``."""

    def __init__(self, inner: OutsourcedDatabaseServer) -> None:
        self._inner = inner

    def handle_message(self, raw: bytes) -> bytes:
        return self._inner.handle_message(raw)


class TestOneMethodProvider:
    """``handle_message`` is all a session asks of its provider."""

    @staticmethod
    def _run(server) -> list:
        rng = DeterministicRng(31)
        db = EncryptedDatabase(SecretKey.generate(rng=rng), server, "swp", rng=rng)
        answers = [db.create_table(EMP_DECL, rows=ROWS).schema]
        db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 7500})
        for sql in (
            "SELECT * FROM Emp WHERE dept = 'HR'",
            "SELECT * FROM Emp WHERE salary = 7500",
            "SELECT * FROM Emp WHERE dept = 'OPS'",
        ):
            answers.append(sorted(tuple(t.values()) for t in db.select(sql).relation.tuples))
        answers.append(db.delete("SELECT * FROM Emp WHERE dept = 'IT'"))
        answers.append(sorted(tuple(t.values()) for t in db.retrieve_all("Emp").tuples))
        answers.append(db.count("Emp"))
        return answers

    def test_answers_equal_the_in_process_provider(self):
        hosted = OutsourcedDatabaseServer()
        in_process = OutsourcedDatabaseServer()
        answers = self._run(OneMethodProvider(hosted))
        assert answers == self._run(in_process)
        assert len(answers[1]) == 3 and answers[4] == 2 and answers[6] == 4
        # the very same ciphertexts reached both stores
        assert stored_relation(hosted, "Emp") == stored_relation(in_process, "Emp")
