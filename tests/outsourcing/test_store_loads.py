"""Index lookups and tuple writes on the in-memory store never load the relation.

The store keys each relation by tuple id, so a lookup fetches its ids, an
insert appends and a delete removes by id; only a scan's ``load`` builds
the whole relation, and only the first load after a write rebuilds it.  A
deploy of a stored relation reads its schema alone, from either store.  The
file store serves the same reads from memory: it decodes a relation file on
first use and again only after the file changed on disk.
"""

from __future__ import annotations

import pytest
from provider_calls import deploy, store_relation
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.index import IndexDelta, IndexLookupRequest
from repro.outsourcing import (
    FileStorageBackend,
    InMemoryStorageBackend,
    OutsourcedDatabaseServer,
    ServerError,
)
from repro.relational import Relation, RelationSchema, RelationTuple, Selection
from repro.schemes.plaintext import PlaintextDph

SCHEMA = RelationSchema.parse("Emp(name:string[14], dept:string[5], salary:int[6])")
L1, L2 = b"\x01" * 32, b"\x02" * 32


class LoadCountingStorage(InMemoryStorageBackend):
    """The in-memory store, counting full-relation loads."""

    def __init__(self) -> None:
        super().__init__()
        self.loads = 0

    def load(self, name):
        self.loads += 1
        return super().load(name)


class LoadCountingFiles(FileStorageBackend):
    """The file store, counting its full-relation loads: file decodes."""

    loads = 0

    def _decode(self, name, path):
        self.loads += 1
        return super()._decode(name, path)


@pytest.mark.parametrize("store", ["memory", "file"])
def test_a_deploy_of_a_stored_relation_reads_its_schema_alone(store, tmp_path):
    scheme = PlaintextDph(
        SCHEMA, SecretKey.generate(rng=DeterministicRng(7)), rng=DeterministicRng(8)
    )
    rows = [(f"emp{i}", "HR", 1000 + i) for i in range(4)]
    encrypted = scheme.encrypt_relation(Relation.from_rows(SCHEMA, rows))
    storage = LoadCountingStorage() if store == "memory" else LoadCountingFiles(tmp_path)
    database = OutsourcedDatabaseServer(storage=storage)
    store_relation(database, "Emp", encrypted, scheme.server_evaluator())
    storage.loads = 0
    deploy(database, "Emp", SCHEMA, scheme.server_evaluator())
    other = RelationSchema.parse("Emp(name:string[14], dept:string[5])")
    with pytest.raises(ServerError, match="stored under another schema"):
        deploy(database, "Emp", other, scheme.server_evaluator())
    assert storage.loads == 0
    assert database.stored_relation("Emp") == encrypted


def test_lookups_and_writes_never_load_the_relation():
    """The first lookup after a put and every request after a write skip ``load``."""
    scheme = PlaintextDph(
        SCHEMA, SecretKey.generate(rng=DeterministicRng(7)), rng=DeterministicRng(8)
    )
    rows = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(8)]
    encrypted = scheme.encrypt_relation(Relation.from_rows(SCHEMA, rows))
    ids = [t.tuple_id for t in encrypted.encrypted_tuples]
    spare = scheme.encrypt_tuple(RelationTuple.from_values(SCHEMA, ("spare0", "HR", 1)))
    storage = LoadCountingStorage()
    database = OutsourcedDatabaseServer(storage=storage)
    store_relation(database, "Emp", encrypted, scheme.server_evaluator())
    database.put_index(
        "Emp",
        tuple((L1, i) for i in ids[:4]) + tuple((L2, i) for i in ids[4:]),
    )

    def l1_rows() -> int:
        request = IndexLookupRequest(
            labels=(L1,), fallback_query=scheme.encrypt_query(Selection.equals("dept", "HR"))
        )
        return len(database.index_lookup("Emp", request).matching)

    storage.loads = 0
    assert l1_rows() == 4
    database.insert_tuples("Emp", [spare], IndexDelta(additions=((L1, spare.tuple_id),)))
    assert l1_rows() == 5
    # Deleted ids come back in stored order, not request order.
    assert database.delete_tuples("Emp", [spare.tuple_id, ids[0]], IndexDelta()) == (
        ids[0],
        spare.tuple_id,
    )
    assert database.delete_tuples("Emp", [ids[0], ids[1]], IndexDelta()) == (ids[1],)
    assert l1_rows() == 2
    assert storage.loads == 0
    assert len(database.stored_relation("Emp")) == 6  # a scan's view is current
    assert storage.loads == 1


def test_a_file_backed_provider_decodes_a_file_once_per_change(tmp_path):
    """After the first read, indexed selects, scans and counts decode nothing,
    and neither do the provider's own writes; a write by another backend on
    the directory is decoded once, on the next read."""
    scheme = PlaintextDph(
        SCHEMA, SecretKey.generate(rng=DeterministicRng(7)), rng=DeterministicRng(8)
    )
    rows = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(8)]
    encrypted = scheme.encrypt_relation(Relation.from_rows(SCHEMA, rows))
    ids = [t.tuple_id for t in encrypted.encrypted_tuples]
    spare = scheme.encrypt_tuple(RelationTuple.from_values(SCHEMA, ("spare0", "HR", 1)))
    store_relation(
        OutsourcedDatabaseServer(storage=FileStorageBackend(tmp_path)),
        "Emp", encrypted, scheme.server_evaluator(),
    )
    storage = LoadCountingFiles(tmp_path)
    database = OutsourcedDatabaseServer(storage=storage)
    deploy(database, "Emp", SCHEMA, scheme.server_evaluator())
    database.put_index("Emp", tuple((L1, i) for i in ids[1::2]))
    hr = scheme.encrypt_query(Selection.equals("dept", "HR"))
    lookup = IndexLookupRequest(labels=(L1,), fallback_query=hr)
    assert storage.loads == 1

    for _ in range(20):
        assert len(database.index_lookup("Emp", lookup).matching) == 4
        assert len(database.execute_query("Emp", hr).matching) == 4
        assert database.tuple_count("Emp") == 8
    database.insert_tuples("Emp", [spare], IndexDelta(additions=((L1, spare.tuple_id),)))
    assert database.delete_tuples("Emp", [ids[1]], IndexDelta()) == (ids[1],)
    assert len(database.index_lookup("Emp", lookup).matching) == 4
    assert database.tuple_count("Emp") == 8
    assert storage.loads == 1

    FileStorageBackend(tmp_path).remove("Emp", ids[2:4])
    assert database.tuple_count("Emp") == 6
    assert len(database.execute_query("Emp", hr).matching) == 3
    assert storage.loads == 2
