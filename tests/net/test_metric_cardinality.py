"""A peer's frames do not choose the provider's metric cardinality.

The relation name of an envelope is read off the frame before the provider
has looked at it; a ``relation`` label is minted only for a name the
provider stores or holds an evaluator for, and every other name is counted
under ``relation="(unknown)"``.
"""

from __future__ import annotations

import pytest

from repro.api import EncryptedDatabase
from repro.net import CHANNEL_ENVELOPE, ThreadedTcpServer
from repro.net.client import RemoteConnection
from repro.outsourcing import FileStorageBackend, OutsourcedDatabaseServer
from repro.outsourcing.protocol import (
    MessageKind,
    MessageV2,
    encode_insert_tuples,
    parse_message,
)
from repro.outsourcing.server import UNKNOWN_RELATION

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(8)]


def _instruments(server: ThreadedTcpServer) -> list[dict]:
    snapshot = server.server.database_server.metrics_snapshot()
    return snapshot["counters"] + snapshot["gauges"] + snapshot["histograms"]


def _relation_labels(server: ThreadedTcpServer, name: str) -> set[str]:
    return {
        entry["labels"]["relation"]
        for entry in _instruments(server)
        if entry["name"] == name
    }


@pytest.mark.parametrize("kind", [MessageKind.QUERY, MessageKind.INSERT_TUPLES])
def test_hostile_relation_names_share_one_label(kind):
    body = encode_insert_tuples(b"", []) if kind is MessageKind.INSERT_TUPLES else b""
    with ThreadedTcpServer() as server:
        connection = RemoteConnection("127.0.0.1", server.port)
        try:
            connection.send(MessageV2(kind, "warm-up", body).to_bytes(), CHANNEL_ENVELOPE)
            connection.receive()
            before = len(_instruments(server))
            for i in range(1000):
                connection.send(
                    MessageV2(kind, f"no-such-{i}", body).to_bytes(), CHANNEL_ENVELOPE
                )
                raw = connection.receive().payload
                assert parse_message(raw).relation_name == f"no-such-{i}"
            assert len(_instruments(server)) - before <= 3
        finally:
            connection.close()
        for name in (
            "server_dispatch_queue_seconds",
            "provider_op_seconds",
        ):
            assert _relation_labels(server, name) <= {UNKNOWN_RELATION}


def test_known_relations_keep_their_own_label(secret_key, rng, tmp_path):
    database = OutsourcedDatabaseServer(storage=FileStorageBackend(tmp_path))
    with ThreadedTcpServer(database) as server:
        url = f"tcp://127.0.0.1:{server.port}?index=1"
        with EncryptedDatabase.connect(url, secret_key, rng=rng) as db:
            db.create_table(EMP_DECL, rows=ROWS)
            db.create_table("Dept(name:string[14], floor:int[6])", rows=[("HR", 1)])
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 4
            db.insert("Dept", ("IT", 2))
        # The relation listing names no relation, and the deployment that
        # introduces one arrives before the provider knows its name.
        known = {"Emp", "Dept", UNKNOWN_RELATION}
        assert _relation_labels(server, "provider_op_seconds") == known
        assert _relation_labels(server, "index_lookup_seconds") == {"Emp"}
        assert _relation_labels(server, "server_dispatch_queue_seconds") == known


def test_a_stored_relation_is_known_without_an_evaluator(tmp_path):
    # a restarted file-backed provider: the relation is at rest, the
    # evaluator not yet re-deployed
    first = OutsourcedDatabaseServer(storage=FileStorageBackend(tmp_path))
    with EncryptedDatabase.open(server=first) as db:
        db.create_table(EMP_DECL, rows=ROWS)
    restarted = OutsourcedDatabaseServer(storage=FileStorageBackend(tmp_path))
    assert restarted.metric_relation("Emp") == "Emp"
    assert restarted.metric_relation("Nope") == UNKNOWN_RELATION
    assert restarted.metric_relation("x" * 4096) == UNKNOWN_RELATION
    assert OutsourcedDatabaseServer().metric_relation("Emp") == UNKNOWN_RELATION


def test_a_deploy_is_filed_under_its_new_table_and_a_drop_under_unknown(secret_key, rng):
    """``provider_op_seconds`` is labelled after the step: the deploy that
    creates a table is that table's sample, and the drop that removes one is
    no longer a known relation's."""
    provider = OutsourcedDatabaseServer()
    with EncryptedDatabase.open(secret_key, provider, rng=rng) as db:
        db.create_table(EMP_DECL)
        db.drop_table("Emp")
    counts = {
        (entry["labels"]["op_kind"], entry["labels"]["relation"]): entry["count"]
        for entry in provider.metrics.snapshot()["histograms"]
        if entry["name"] == "provider_op_seconds"
    }
    assert counts[("deploy-evaluator", "Emp")] == 1
    assert ("deploy-evaluator", UNKNOWN_RELATION) not in counts
    assert counts[("delete-relation", UNKNOWN_RELATION)] == 1
    assert ("delete-relation", "Emp") not in counts


def test_made_up_names_leave_the_registry_and_its_spelling_memo_at_a_fixed_size():
    """The provider labels every histogram with ``metric_relation``, so
    10 000 envelopes for names it never stored add no instrument and no
    memoised label spelling once the first of each kind has been served."""
    provider = OutsourcedDatabaseServer()
    bodies = {
        MessageKind.QUERY: b"",
        MessageKind.INSERT_TUPLES: encode_insert_tuples(b"", []),
        MessageKind.TUPLE_COUNT: b"",
        MessageKind.INDEX_LOOKUP: b"",
    }

    def sizes() -> tuple[int, int]:
        snapshot = provider.metrics.snapshot()
        instruments = snapshot["counters"] + snapshot["gauges"] + snapshot["histograms"]
        return len(instruments), len(provider.metrics._resolved)

    for kind, body in bodies.items():  # the first of each kind resolves its labels
        provider.handle_message(MessageV2(kind, "warm-up", body).to_bytes())
    before = sizes()
    for i in range(10_000 // len(bodies)):
        for kind, body in bodies.items():
            answer = parse_message(
                provider.handle_message(MessageV2(kind, f"made-up-{i}", body).to_bytes())
            )
            assert answer.kind is MessageKind.ERROR
    assert sizes() == before
    relations = {dict(spelling[1:]).get("relation") for spelling in provider.metrics._resolved}
    assert relations == {None, UNKNOWN_RELATION}
