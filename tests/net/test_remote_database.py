"""Remote-specific end-to-end scenarios beyond the shared CRUD suite.

(The full CRUD suite itself runs over tcp:// via the ``transport``
parametrization in ``tests/api/test_encrypted_database.py``.)
"""

from __future__ import annotations

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.net import ThreadedTcpServer
from repro.outsourcing import FileStorageBackend, OutsourcedDatabaseServer, ServerAuditLog

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [("Montgomery", "HR", 7500), ("Smith", "IT", 5200), ("Jones", "HR", 7500)]


class TestRemoteSessions:
    def test_connect_url_and_context_manager(self, secret_key):
        with ThreadedTcpServer() as server:
            with EncryptedDatabase.connect(
                f"tcp://127.0.0.1:{server.port}", secret_key
            ) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                assert db.count("Emp") == 3

    def test_connect_rejects_bad_urls(self, secret_key):
        with pytest.raises(DatabaseError):
            EncryptedDatabase.connect("udp://127.0.0.1:1", secret_key)
        with pytest.raises(DatabaseError):
            EncryptedDatabase.connect(
                OutsourcedDatabaseServer(), secret_key, pool_size=9
            )

    def test_two_sessions_share_one_remote_provider(self, secret_key, rng):
        with ThreadedTcpServer() as server:
            url = f"tcp://127.0.0.1:{server.port}"
            writer = EncryptedDatabase.connect(url, secret_key, rng=rng)
            writer.create_table(EMP_DECL, rows=ROWS)

            # an independent session (own pool, same key) attaches and reads
            reader = EncryptedDatabase.connect(url, secret_key)
            reader.attach_table(EMP_DECL)
            outcome = reader.select("SELECT * FROM Emp WHERE dept = 'HR'")
            assert sorted(t["name"] for t in outcome.relation) == ["Jones", "Montgomery"]

            # a write through one session is visible to the other
            writer.insert("Emp", {"name": "New", "dept": "HR", "salary": 1})
            assert reader.count("Emp") == 4
            writer.close()
            reader.close()

    def test_file_backed_provider_survives_full_restart(self, tmp_path, secret_key):
        """create over tcp -> kill provider process state -> reopen from disk."""
        directory = tmp_path / "relations"
        with ThreadedTcpServer(
            OutsourcedDatabaseServer(storage=FileStorageBackend(directory))
        ) as server:
            db = EncryptedDatabase.connect(f"tcp://127.0.0.1:{server.port}", secret_key)
            db.create_table(EMP_DECL, rows=ROWS)
            db.delete("SELECT * FROM Emp WHERE dept = 'IT'")
            db.close()

        # a brand-new provider over the same directory: only the files remain
        with ThreadedTcpServer(
            OutsourcedDatabaseServer(storage=FileStorageBackend(directory))
        ) as server:
            db = EncryptedDatabase.connect(f"tcp://127.0.0.1:{server.port}", secret_key)
            handle = db.attach_table(EMP_DECL)  # re-deploys the evaluator remotely
            assert handle.name == "Emp"
            assert db.count("Emp") == 2
            outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
            assert len(outcome.relation) == 2
            db.close()

    def test_wrong_key_cannot_read_remote_ciphertext(self, secret_key, rng):
        from repro.crypto.keys import SecretKey

        with ThreadedTcpServer() as server:
            url = f"tcp://127.0.0.1:{server.port}"
            db = EncryptedDatabase.connect(url, secret_key, rng=rng)
            db.create_table(EMP_DECL, rows=ROWS)

            intruder = EncryptedDatabase.connect(url, SecretKey.generate())
            intruder.attach_table(EMP_DECL)
            with pytest.raises(Exception):
                intruder.retrieve_all("Emp")
            intruder.close()
            db.close()

    def test_batch_queries_over_the_wire(self, secret_key):
        with ThreadedTcpServer() as server:
            db = EncryptedDatabase.connect(f"tcp://127.0.0.1:{server.port}", secret_key)
            db.create_table(EMP_DECL, rows=ROWS)
            outcomes = db.select_many(
                [
                    "SELECT * FROM Emp WHERE dept = 'HR'",
                    "SELECT * FROM Emp WHERE dept = 'IT'",
                ],
                table="Emp",
            )
            assert [len(o.relation) for o in outcomes] == [2, 1]
            db.close()


class TestRemoteAuditCap:
    def test_capped_audit_log_keeps_serving(self, secret_key):
        database = OutsourcedDatabaseServer(audit_log=ServerAuditLog(max_events=5))
        with ThreadedTcpServer(database) as server:
            db = EncryptedDatabase.connect(f"tcp://127.0.0.1:{server.port}", secret_key)
            db.create_table(EMP_DECL, rows=ROWS)
            for _ in range(10):
                db.select("SELECT * FROM Emp WHERE dept = 'HR'")
            assert len(database.audit_log) == 5
            assert database.audit_log.dropped_events > 0
            db.close()
