"""Every DDL or metadata failure of a session is a ``DatabaseError``.

A provider refuses a step -- deploying an evaluator, handing out its stored
copy, counting, dropping -- by answering that envelope with ``ERROR``; the
session's one request helper turns each into a :class:`DatabaseError`, over
an in-process provider, ``tcp://`` and ``cluster://`` alike, and leaves its
table bookkeeping as the operation's contract says.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.cluster import ShardRouter
from repro.net import ThreadedTcpServer
from repro.outsourcing import OutsourcedDatabaseServer, ServerError

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [("Montgomery", "HR", 7500), ("Smith", "IT", 5200), ("Jones", "HR", 7500)]


class RefusingProvider(OutsourcedDatabaseServer):
    """A provider that refuses the ``_dispatch`` steps of one operation.

    ``refuse`` names it: ``deploy``, ``fetch``, ``count`` (a shard router
    counts through the id listing) or ``drop``.
    """

    refuse: str | None = None

    def _step(self, operation: str, method, *args):
        if self.refuse == operation:
            raise ServerError(f"refused to {operation}")
        return method(*args)

    def register_evaluator(self, name, evaluator):
        return self._step("deploy", super().register_evaluator, name, evaluator)

    def stored_relation(self, name):
        return self._step("fetch", super().stored_relation, name)

    def tuple_count(self, name):
        return self._step("count", super().tuple_count, name)

    def list_tuple_ids(self, name):
        return self._step("count", super().list_tuple_ids, name)

    def drop_relation(self, name):
        return self._step("drop", super().drop_relation, name)


@contextlib.contextmanager
def fleet(transport: str):
    """The providers to refuse with, and what a session connects to."""
    if transport == "in-process":
        provider = RefusingProvider()
        yield [provider], provider
    elif transport == "tcp":
        provider = RefusingProvider()
        with ThreadedTcpServer(provider) as server:
            yield [provider], f"tcp://127.0.0.1:{server.port}"
    else:
        shards = [RefusingProvider() for _ in range(3)]
        with ShardRouter(shards, replicas=2) as router:
            yield shards, router


def refuse(providers, step: str) -> None:
    for provider in providers:
        provider.refuse = step


def create(db) -> None:
    db.create_table(EMP_DECL, rows=ROWS)


def attach(db) -> None:
    db.attach_table(EMP_DECL)


def drop(db) -> None:
    db.drop_table("Emp")


def count(db) -> None:
    db.count("Emp")


def retrieve_all(db) -> None:
    db.retrieve_all("Emp")


#: session operation -> (what the provider refuses, whether the table is
#: stored and bound beforehand, the session's tables afterwards)
CASES = {
    create: ("deploy", False, ()),
    attach: ("fetch", True, ()),
    drop: ("drop", True, ()),
    count: ("count", True, ("Emp",)),
    retrieve_all: ("fetch", True, ("Emp",)),
}


@pytest.mark.parametrize("transport", ["in-process", "tcp", "cluster"])
@pytest.mark.parametrize("operation", list(CASES), ids=lambda op: op.__name__)
def test_a_refused_step_is_a_database_error(operation, transport, secret_key):
    step, stored, tables_after = CASES[operation]
    with fleet(transport) as (providers, target), contextlib.ExitStack() as sessions:

        def session() -> EncryptedDatabase:
            return sessions.enter_context(EncryptedDatabase.connect(target, secret_key))

        db = session()
        if stored:
            create(db)
        if operation is attach:  # a second session attaches the stored table
            db = session()
        refuse(providers, step)
        with pytest.raises(DatabaseError, match=f"refused to {step}"):
            operation(db)
        assert db.tables == tables_after
        refuse(providers, None)  # the session and the provider live on
        if operation is create:
            create(db)
            assert db.count("Emp") == len(ROWS)
