"""Every DDL or metadata failure of a session is a ``DatabaseError``.

A provider refuses a step -- deploying an evaluator, handing out its stored
copy, counting, dropping -- by answering that envelope with ``ERROR``; the
session's one request helper turns each into a :class:`DatabaseError`, over
an in-process provider, ``tcp://`` and ``cluster://`` alike, and leaves its
table bookkeeping as the operation's contract says.  A create whose rows
do not land -- the insert refused, or past a provider's frame limit --
leaves no relation behind, so it can be retried; a deploy of a stored
relation leaves its rows alone, and one whose schema is not the relation's
-- named otherwise, or other than the stored one -- is refused.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.cluster import ShardRouter
from repro.net import RemoteServerProxy, ThreadedTcpServer
from repro.outsourcing import OutsourcedDatabaseServer, ServerError
from repro.relational.schema import RelationSchema
from provider_calls import deploy

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [("Montgomery", "HR", 7500), ("Smith", "IT", 5200), ("Jones", "HR", 7500)]


class RefusingProvider(OutsourcedDatabaseServer):
    """A provider that refuses the ``_dispatch`` steps of one operation.

    ``refuse`` names it: ``deploy``, ``insert``, ``fetch``, ``count`` (a
    shard router counts through the id listing) or ``drop``.
    """

    refuse: str | None = None

    def _step(self, operation: str, method, *args):
        if self.refuse == operation:
            raise ServerError(f"refused to {operation}")
        return method(*args)

    def deploy(self, name, schema, evaluator):
        return self._step("deploy", super().deploy, name, schema, evaluator)

    def insert_tuples(self, name, encrypted_tuples, delta):
        return self._step("insert", super().insert_tuples, name, encrypted_tuples, delta)

    def stored_relation(self, name):
        return self._step("fetch", super().stored_relation, name)

    def tuple_count(self, name):
        return self._step("count", super().tuple_count, name)

    def list_tuple_ids(self, name):
        return self._step("count", super().list_tuple_ids, name)

    def drop_relation(self, name):
        return self._step("drop", super().drop_relation, name)


def open_session(target, secret_key, index: bool = False) -> EncryptedDatabase:
    """A session on ``target``: an address, or a provider object."""
    if isinstance(target, str):
        return EncryptedDatabase.connect(f"{target}?index=1" if index else target, secret_key)
    return EncryptedDatabase.open(secret_key, server=target, index=index)


@contextlib.contextmanager
def fleet(transport: str):
    """The providers to refuse with, and what a session opens on."""
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
            return sessions.enter_context(open_session(target, secret_key))

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


def stored_names(providers) -> set:
    return {name for provider in providers for name in provider.relation_names}


@pytest.mark.parametrize("transport", ["in-process", "tcp", "cluster"])
def test_a_create_whose_insert_is_refused_leaves_no_relation(transport, secret_key):
    with fleet(transport) as (providers, target), open_session(
        target, secret_key, index=True
    ) as db:
        refuse(providers, "insert")
        with pytest.raises(DatabaseError, match="refused to insert"):
            create(db)
        assert db.tables == ()
        assert stored_names(providers) == set()
        refuse(providers, None)
        create(db)
        assert db.count("Emp") == len(ROWS)
        assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 2


#: Big enough for every envelope but a create's insert of ``MANY`` rows.
FRAME_LIMIT = 16 * 1024
MANY = [(f"emp{i}", "HR", i) for i in range(600)]


@pytest.mark.parametrize("transport", ["tcp", "cluster"])
def test_a_create_past_the_frame_limit_leaves_no_relation(transport, secret_key):
    providers = [OutsourcedDatabaseServer() for _ in range(1 if transport == "tcp" else 3)]
    with contextlib.ExitStack() as stack:
        hosts = [
            f"127.0.0.1:{stack.enter_context(ThreadedTcpServer(p, max_frame_size=FRAME_LIMIT)).port}"
            for p in providers
        ]
        url = f"tcp://{hosts[0]}?index=1" if transport == "tcp" else f"cluster://{','.join(hosts)}?replicas=2&index=1"
        db = stack.enter_context(EncryptedDatabase.connect(url, secret_key))
        with pytest.raises(DatabaseError):
            db.create_table(EMP_DECL, rows=MANY)
        assert db.tables == ()
        assert stored_names(providers) == set()
        create(db)
        assert db.count("Emp") == len(ROWS)


@pytest.mark.parametrize("transport", ["in-process", "tcp", "cluster"])
def test_a_deploy_of_a_stored_relation_leaves_its_rows_alone(transport, secret_key):
    with fleet(transport) as (providers, target), contextlib.ExitStack() as sessions:
        first = sessions.enter_context(open_session(target, secret_key))
        create(first)
        stored = [provider.stored_relation("Emp") for provider in providers]
        second = sessions.enter_context(open_session(target, secret_key))
        second.attach_table(EMP_DECL)  # deploys the relation again
        assert [provider.stored_relation("Emp") for provider in providers] == stored
        assert second.count("Emp") == len(ROWS)


#: (the envelope's relation, the declared schema, what the refusal says)
FOREIGN_DEPLOYS = [
    ("Emp", "Emp(name:string[14])", "stored under another schema"),
    ("Emp", "Emp(name:string[14], dept:string[5], salary:int[7])", "stored under another schema"),
    ("Emp", "Other(x:int[3], y:int[3])", "declares relation 'Other'"),
    ("X", EMP_DECL, "declares relation 'Emp'"),
]


@pytest.mark.parametrize("transport", ["in-process", "tcp", "cluster"])
def test_a_deploy_of_a_schema_not_the_relations_is_refused(transport, secret_key, swp_dph):
    with fleet(transport) as (providers, target), contextlib.ExitStack() as stack:
        db = stack.enter_context(open_session(target, secret_key))
        create(db)
        stored = [provider.stored_relation("Emp") for provider in providers]
        peer = target
        if transport == "tcp":
            peer = stack.enter_context(RemoteServerProxy.connect(target))
        for name, declaration, refusal in FOREIGN_DEPLOYS:
            with pytest.raises(ServerError, match=refusal):
                deploy(peer, name, RelationSchema.parse(declaration), swp_dph.server_evaluator())
        assert stored_names(providers) == {"Emp"}
        assert [provider.stored_relation("Emp") for provider in providers] == stored
        # No refused deploy replaced the session's evaluator.
        assert db.count("Emp") == len(ROWS)
        assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 2
