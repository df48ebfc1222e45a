"""A ``BATCH_QUERY`` is rejected whole: a bad query anywhere runs none of them.

Every query of a batch is compiled -- its scheme checked and each trapdoor
validated -- before the first scan, so a malformed trapdoor after a good
query answers ``ERROR`` with no ``QUERY_EXECUTED`` logged for the good one
(and no ``BATCH_EXECUTED``).  Checked in-process and over ``tcp://``, where
the connection must stay usable after the refusal.
"""

from __future__ import annotations

import contextlib

import pytest

from provider_calls import execute_batch, store_relation
from repro.core.construction import SearchableSelectDph
from repro.core.dph import EncryptedQuery
from repro.crypto.rng import DeterministicRng
from repro.net import ThreadedTcpServer
from repro.net.client import RemoteServerProxy
from repro.outsourcing import OutsourcedDatabaseServer, ServerError
from repro.outsourcing.audit import AuditEventKind
from repro.relational import Relation, RelationSchema
from repro.relational.query import Selection

SCHEMA = RelationSchema.parse("Emp(name:string[8], dept:string[4])")
ROWS = [("ann", "HR"), ("bob", "IT")]


@contextlib.contextmanager
def reached(transport: str, provider: OutsourcedDatabaseServer):
    if transport == "in-process":
        yield provider
        return
    with ThreadedTcpServer(provider) as server:
        proxy = RemoteServerProxy("127.0.0.1", server.port)
        try:
            yield proxy
        finally:
            proxy.close()


@pytest.mark.parametrize(
    "bad_token",
    [b"\x00", b"\x00\x0fshort", b"\x00\x02ab" + b"k" * 8],
    ids=["too-short", "truncated", "wrong-word-length"],
)
@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_a_malformed_trapdoor_rejects_the_whole_batch(transport, bad_token):
    dph = SearchableSelectDph(SCHEMA, bytes(range(32)), backend="swp", rng=DeterministicRng(5))
    good = dph.encrypt_query(Selection.equals("name", "ann"))
    bad = EncryptedQuery(scheme_name=good.scheme_name, tokens=(bad_token,))
    provider = OutsourcedDatabaseServer()
    with reached(transport, provider) as endpoint:
        store_relation(
            endpoint, "Emp", dph.encrypt_relation(Relation.from_rows(SCHEMA, ROWS)),
            dph.server_evaluator(),
        )
        before = len(provider.audit_log.events)
        for batch in ([good, bad], [bad, good]):
            with pytest.raises(ServerError, match="malformed SWP trapdoor"):
                execute_batch(endpoint, "Emp", batch)
            assert len(provider.audit_log.events) == before
        # The same connection still answers, and only now is anything logged.
        (result,) = execute_batch(endpoint, "Emp", [good])
        assert len(result.matching) == 1
    kinds = [event.kind for event in provider.audit_log.events[before:]]
    assert kinds == [AuditEventKind.QUERY_EXECUTED, AuditEventKind.BATCH_EXECUTED]
