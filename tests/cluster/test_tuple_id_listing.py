"""The router counts distinct ids via LIST_TUPLE_IDS, not full fetches."""

from __future__ import annotations

from repro.api import EncryptedDatabase
from repro.cluster import ShardRouter
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import MessageKind, MessageV2, decode_tuple_ids, parse_message
from provider_calls import list_tuple_ids

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(24)]


class FetchCountingServer(OutsourcedDatabaseServer):
    """Counts the expensive full-relation fetches for the assertion below."""

    def __init__(self) -> None:
        super().__init__()
        self.full_fetches = 0

    def stored_relation(self, name):
        self.full_fetches += 1
        return super().stored_relation(name)


class TestRouterIdListing:
    def test_tuple_count_never_fetches_stored_relations(self, secret_key, rng):
        shards = [FetchCountingServer(), FetchCountingServer()]
        db = EncryptedDatabase.open(secret_key, server=ShardRouter(shards), rng=rng)
        try:
            db.create_table(EMP_DECL, rows=ROWS)
            baseline = [shard.full_fetches for shard in shards]
            assert db.count("Emp") == len(ROWS)
            assert [s.full_fetches for s in shards] == baseline  # O(ids), not O(data)
        finally:
            db.close()

    def test_replicated_count_is_logical_not_physical(self, secret_key, rng):
        shards = [OutsourcedDatabaseServer() for _ in range(3)]
        db = EncryptedDatabase.open(secret_key, server=ShardRouter(shards, replicas=2), rng=rng)
        try:
            db.create_table(EMP_DECL, rows=ROWS)
            physical = sum(
                db.server.per_shard_tuple_counts("Emp").values()
            )
            assert physical == 2 * len(ROWS)  # R copies really stored
            assert db.count("Emp") == len(ROWS)  # counted once each
        finally:
            db.close()

    def test_router_list_tuple_ids_unions_distinct(self, secret_key, rng):
        shards = [OutsourcedDatabaseServer() for _ in range(3)]
        db = EncryptedDatabase.open(secret_key, server=ShardRouter(shards, replicas=2), rng=rng)
        try:
            db.create_table(EMP_DECL, rows=ROWS)
            router = db.server
            ids = list_tuple_ids(router, "Emp")
            assert len(ids) == len(ROWS)
            assert len(set(ids)) == len(ids)
            assert list(ids) == sorted(ids)
        finally:
            db.close()

    def test_list_tuple_ids_envelope_routes_across_the_fleet(self, secret_key, rng):
        router = ShardRouter([OutsourcedDatabaseServer(), OutsourcedDatabaseServer()])
        db = EncryptedDatabase.open(secret_key, server=router, rng=rng)
        try:
            db.create_table(EMP_DECL, rows=ROWS)
            request = MessageV2(kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp")
            response = parse_message(router.handle_message(request.to_bytes()))
            assert response.kind is MessageKind.TUPLE_IDS
            assert len(decode_tuple_ids(response.body)) == len(ROWS)
        finally:
            db.close()