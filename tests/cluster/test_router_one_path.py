"""ShardRouter defines each operation once, as an envelope.

A shard needs nothing but ``handle_message``; every kind of fleet (in-process,
blocking ``tcp://``, pipelined) agrees on answers, provider state, counters
and errors; single queries and batches share one coordinator cache; a
refused or malformed request fails loudly; every request crosses the one
scatter; and a failed construction leaves no thread behind.
"""

from __future__ import annotations

import contextlib
import threading
from collections import Counter

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.cluster import DEGRADED, ShardRouter
from repro.core import SearchableSelectDph
from repro.crypto.rng import DeterministicRng
from repro.index import IndexLookupRequest, encode_index_lookup
from repro.net import ThreadedTcpServer
from repro.outsourcing import OutsourcedDatabaseServer, protocol
from repro.outsourcing.protocol import MessageKind, MessageV2
from repro.outsourcing.server import ServerError
from repro.relational import Relation, RelationSchema, Selection
from provider_calls import (
    delete_tuples,
    execute_batch,
    execute_query,
    insert_tuples,
    register_evaluator,
    store_relation,
    tuple_count,
)

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
SCHEMA = RelationSchema.parse(EMP_DECL)
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(18)]


class EnvelopeOnlyShard:
    """A shard with no typed operations at all.

    ``handle_message`` is everything the router may ask of a backend: data,
    index and DDL operations alike.
    """

    def __init__(self) -> None:
        self._inner = OutsourcedDatabaseServer()

    def handle_message(self, raw: bytes) -> bytes:
        return self._inner.handle_message(raw)


class DyingServer(OutsourcedDatabaseServer):
    """Raises a raw ``ConnectionError`` from every envelope once ``down``."""

    down = False

    def handle_message(self, raw: bytes) -> bytes:
        if self.down:
            raise ConnectionError("down")
        return super().handle_message(raw)


class RefusingServer(OutsourcedDatabaseServer):
    """Refuses the ``refused`` kind as a provider refuses any unknown kind.

    ``served`` lists every kind it did answer, so a test can tell a loud
    failure from a silent replay of some other kind.
    """

    refused: MessageKind | None = None

    def __init__(self) -> None:
        super().__init__()
        self.served: list[MessageKind] = []

    def _dispatch(self, request):
        if request.kind is self.refused:
            raise ServerError(f"cannot serve message kind {request.kind.value!r}")
        self.served.append(request.kind)
        return super()._dispatch(request)


@pytest.fixture
def dph(secret_key):
    return SearchableSelectDph(SCHEMA, secret_key, backend="swp", rng=DeterministicRng(5))


@pytest.fixture
def encrypted(dph):
    return dph.encrypt_relation(Relation.from_rows(SCHEMA, ROWS))


def _tuple(dph, name, dept="HR", salary=1):
    row = Relation.from_rows(SCHEMA, [(name, dept, salary)]).tuples[0]
    return dph.encrypt_tuple(row)


def _query(dph, attribute, value):
    return dph.encrypt_query(Selection.equals(attribute, value))


def _envelope(router, kind, body, expect, name="Emp"):
    """One request through the envelope surface; the checked response."""
    raw = router.handle_message(MessageV2(kind, name, body).to_bytes())
    response = protocol.parse_message(raw)
    assert response.kind is expect, response.body
    return response


def _ids_of(result):
    return sorted(t.tuple_id for t in result.matching.encrypted_tuples)


def _provider_state(servers):
    """Per provider, the tuple ids it physically stores (sorted)."""
    return [
        sorted(t.tuple_id for t in server.stored_relation("Emp").encrypted_tuples)
        for server in servers
    ]


@contextlib.contextmanager
def _fleet(kind, servers, **router_options):
    """A router over ``servers`` reached in-process, over blocking tcp, or pipelined."""
    if kind == "in-process":
        router = ShardRouter(servers, **router_options)
        try:
            yield router
        finally:
            router.close()
        return
    with contextlib.ExitStack() as stack:
        urls = [
            f"tcp://127.0.0.1:{stack.enter_context(ThreadedTcpServer(server)).port}"
            for server in servers
        ]
        router = ShardRouter(
            urls,
            # the default ids are the URLs, whose ports -- and so the ring
            # placement -- would differ from one fleet to the next
            shard_ids=[f"shard-{index}" for index in range(len(urls))],
            async_transport=(kind == "pipelined"),
            **router_options,
        )
        try:
            yield router
        finally:
            router.close()


FLEET_KINDS = ("in-process", "blocking-tcp", "pipelined")


class TestEnvelopeOnlyBackends:
    """(a) ``handle_message`` alone serves the whole provider surface."""

    def test_every_operation_reaches_the_shards_as_an_envelope(self, dph, encrypted):
        router = ShardRouter([EnvelopeOnlyShard() for _ in range(3)], replicas=2)
        store_relation(router, "Emp", encrypted, dph.server_evaluator())
        assert tuple_count(router, "Emp") == len(ROWS)
        insert_tuples(router, "Emp", [_tuple(dph, "Zoe", "NEW")])
        assert len(execute_query(router, "Emp", _query(dph, "dept", "NEW")).matching) == 1
        hr, it = execute_batch(
            router, "Emp", [_query(dph, "dept", "HR"), _query(dph, "dept", "IT")]
        )
        assert (len(hr.matching), len(it.matching)) == (9, 9)
        # DELETE_TUPLES answers the union of the ids that went: 2 physical
        # copies each, 9 logical
        assert sorted(delete_tuples(router, "Emp", _ids_of(hr))) == _ids_of(hr)
        gone = delete_tuples(router, "Emp", _ids_of(it) + _ids_of(hr))
        assert sorted(gone) == _ids_of(it)  # the HR ids were already dead
        assert tuple_count(router, "Emp") == 1

    def test_envelope_surface(self, secret_key, rng):
        router = ShardRouter([EnvelopeOnlyShard() for _ in range(3)], replicas=2)
        db = EncryptedDatabase.open(secret_key, server=router, rng=rng, index=True)
        db.create_table(EMP_DECL, rows=ROWS)
        db.insert("Emp", {"name": "Zoe", "dept": "NEW", "salary": 1})
        assert len(db.select(Selection.equals("dept", "NEW"), table="Emp").relation) == 1
        outcomes = db.select_many(
            [Selection.equals("dept", "HR"), Selection.equals("dept", "IT")], table="Emp"
        )
        assert [len(o.relation) for o in outcomes] == [9, 9]
        assert db.update(Selection.equals("name", "emp3"), {"salary": 9}, table="Emp") == 1
        assert db.delete(Selection.equals("dept", "HR"), table="Emp") == 9
        assert db.count("Emp") == 10


class TestFleetsAgree:
    """(c) every kind of fleet gives the in-process answers, state and counters."""

    def _drive(self, router, dph, encrypted):
        answers = {}
        register_evaluator(router, "Emp", dph.server_evaluator())
        _envelope(
            router,
            MessageKind.STORE_RELATION,
            protocol.encode_encrypted_relation(encrypted),
            MessageKind.ACK,
        )
        _envelope(
            router,
            MessageKind.INSERT_TUPLES,
            protocol.encode_insert_tuples(b"", [_tuple(dph, "Zoe", "NEW")]),
            MessageKind.ACK,
        )
        answers["query"] = _envelope(
            router,
            MessageKind.QUERY,
            protocol.encode_encrypted_query(_query(dph, "dept", "HR")),
            MessageKind.QUERY_RESULT,
        ).body
        answers["batch"] = _envelope(
            router,
            MessageKind.BATCH_QUERY,
            protocol.encode_query_batch(
                [_query(dph, "dept", "IT"), _query(dph, "dept", "NEW")]
            ),
            MessageKind.BATCH_RESULT,
        ).body
        it_ids = _ids_of(protocol.decode_result_batch(answers["batch"])[0])
        answers["exact"] = protocol.decode_tuple_ids(
            _envelope(
                router,
                MessageKind.DELETE_TUPLES,
                protocol.encode_delete_tuples(it_ids[:3] + it_ids[:1], b""),
                MessageKind.TUPLE_IDS,
            ).body
        )
        answers["count"] = len(
            protocol.decode_tuple_ids(
                _envelope(
                    router,
                    MessageKind.DELETE_TUPLES,
                    protocol.encode_delete_tuples(it_ids[2:6], b""),
                    MessageKind.TUPLE_IDS,
                ).body
            )
        )
        return answers

    def _run(self, kind, secret_key):
        # identical ciphertexts on every fleet: same key, same seed
        dph = SearchableSelectDph(SCHEMA, secret_key, backend="swp", rng=DeterministicRng(5))
        encrypted = dph.encrypt_relation(Relation.from_rows(SCHEMA, ROWS))
        servers = [OutsourcedDatabaseServer() for _ in range(3)]
        with _fleet(kind, servers, replicas=2) as router:
            answers = self._drive(router, dph, encrypted)
            return answers, _provider_state(servers), router.stats.as_dict()

    @pytest.mark.parametrize("kind", FLEET_KINDS)
    def test_same_answers_state_and_counters(self, kind, secret_key):
        answers, state, counters = self._run(kind, secret_key)
        reference = self._run("in-process", secret_key)
        assert answers == reference[0]  # decoded answers
        assert answers["count"] == 3  # ids 2..5, one already deleted
        assert state == reference[1]  # provider state
        scatters = counters.pop("loop_scatters")
        reference[2].pop("loop_scatters")
        assert counters == reference[2]  # cluster_*_total counters
        assert counters["routed_inserts"] == 1 and counters["scatter_reads"] == 2
        # deploy, store, insert, query, batch, two deletes: all on the event loop
        assert scatters == (7 if kind == "pipelined" else 0)


class TestSurfacesFailAlike:
    """Bugfix: a dying backend is an ``ERROR`` answer, never an escape."""

    def _fleet(self, replicas, dph, encrypted):
        shards = [DyingServer() for _ in range(3)]
        router = ShardRouter(shards, replicas=replicas)
        store_relation(router, "Emp", encrypted, dph.server_evaluator())
        for shard in shards:
            shard.down = True
        return router

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_the_request_helper_raises_the_cause(self, replicas, dph, encrypted):
        router = self._fleet(replicas, dph, encrypted)
        some_id = encrypted.encrypted_tuples[0].tuple_id
        with pytest.raises(ServerError, match="down"):
            insert_tuples(router, "Emp", [_tuple(dph, "Zoe")])
        with pytest.raises(ServerError, match="down"):
            delete_tuples(router, "Emp", [some_id])
        with pytest.raises(ServerError, match="down"):
            execute_query(router, "Emp", _query(dph, "dept", "HR"))
        with pytest.raises(ServerError, match="down"):
            tuple_count(router, "Emp")

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_envelope_surface_answers_error(self, replicas, dph, encrypted):
        router = self._fleet(replicas, dph, encrypted)
        some_id = encrypted.encrypted_tuples[0].tuple_id
        for kind, body in (
            (MessageKind.INSERT_TUPLES, protocol.encode_insert_tuples(b"", [_tuple(dph, "Zoe")])),
            (MessageKind.DELETE_TUPLES, protocol.encode_delete_tuples([some_id], b"")),
            (MessageKind.QUERY, protocol.encode_encrypted_query(_query(dph, "dept", "HR"))),
        ):
            response = _envelope(router, kind, body, MessageKind.ERROR)
            assert b"down" in response.body


class TestOneCache:
    """(d) single queries and batches fill and hit the same cache entries."""

    def _fleet(self, dph, encrypted, **options):
        shards = [DyingServer() for _ in range(3)]
        router = ShardRouter(shards, cache=True, **options)
        store_relation(router, "Emp", encrypted, dph.server_evaluator())
        return router, shards

    def test_query_fills_serve_a_batch(self, dph, encrypted):
        router, _ = self._fleet(dph, encrypted)
        hr, it = _query(dph, "dept", "HR"), _query(dph, "dept", "IT")
        filled = [execute_query(router, "Emp", hr), execute_query(router, "Emp", it)]
        reads = router.stats.as_dict()["scatter_reads"]
        batch = _envelope(
            router,
            MessageKind.BATCH_QUERY,
            protocol.encode_query_batch([hr, it]),
            MessageKind.BATCH_RESULT,
        )
        assert router.stats.as_dict()["scatter_reads"] == reads  # both elements were hits
        assert protocol.decode_result_batch(batch.body) == tuple(filled)

    def test_a_batch_fill_serves_queries_and_batches(self, dph, encrypted):
        router, _ = self._fleet(dph, encrypted)
        hr, it = _query(dph, "dept", "HR"), _query(dph, "dept", "IT")
        batch = _envelope(
            router,
            MessageKind.BATCH_QUERY,
            protocol.encode_query_batch([hr, it]),
            MessageKind.BATCH_RESULT,
        )
        reads = router.stats.as_dict()["scatter_reads"]
        assert execute_query(router, "Emp", it) == protocol.decode_result_batch(batch.body)[1]
        assert execute_batch(router, "Emp", [it, hr])[1] is not None
        assert router.stats.as_dict()["scatter_reads"] == reads

    def test_a_degraded_read_fills_nothing(self, dph, encrypted):
        router, shards = self._fleet(dph, encrypted, policy=DEGRADED)
        shards[1].down = True
        hr = _query(dph, "dept", "HR")
        partial = execute_query(router, "Emp", hr)
        assert len(partial.matching) < 9 and len(router.cache) == 0
        _envelope(
            router,
            MessageKind.QUERY,
            protocol.encode_encrypted_query(hr),
            MessageKind.QUERY_RESULT,
        )
        assert len(router.cache) == 0 and router.stats.as_dict()["degraded_reads"] == 2
        shards[1].down = False
        assert len(execute_query(router, "Emp", hr).matching) == 9  # no replay


class TestRefusedKindsFailLoudly:
    """A refused kind is a ``DatabaseError`` on every call, never a silent scan."""

    CALLS = {
        MessageKind.INDEX_PUT: lambda db, attempt: db.create_table(
            EMP_DECL.replace("Emp", f"Emp{attempt}"), rows=ROWS
        ),
        MessageKind.INDEX_LOOKUP: lambda db, _: db.select(
            Selection.equals("dept", "HR"), table="Emp"
        ),
        MessageKind.INSERT_TUPLES: lambda db, _: db.insert(
            "Emp", {"name": "Zoe", "dept": "HR", "salary": 1}
        ),
        MessageKind.DELETE_TUPLES: lambda db, _: db.delete(
            Selection.equals("dept", "HR"), table="Emp"
        ),
    }

    @pytest.mark.parametrize("refused", list(CALLS), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("kind", ["provider", "in-process", "pipelined"])
    def test_every_call_raises(self, kind, refused, secret_key, rng):
        servers = [RefusingServer() for _ in range(1 if kind == "provider" else 3)]
        with contextlib.ExitStack() as stack:
            provider = servers[0]
            if kind != "provider":
                provider = stack.enter_context(_fleet(kind, servers, replicas=2))
            db = EncryptedDatabase.open(secret_key, server=provider, rng=rng, index=True)
            db.create_table(EMP_DECL, rows=ROWS)
            served = [len(server.served) for server in servers]
            for server in servers:
                server.refused = refused
            refusal = f"cannot serve message kind '{refused.value}'"
            for attempt in range(3):
                with pytest.raises(DatabaseError, match=refusal):
                    self.CALLS[refused](db, attempt)
            replayed = {MessageKind.QUERY, MessageKind.DELETE_TUPLES}
            for server, before in zip(servers, served):
                assert not replayed & set(server.served[before:])
            for server in servers:
                server.refused = None
            assert db.count("Emp") == len(ROWS)


class TestMalformedLookup:
    """``INDEX_LOOKUP`` is forwarded unread; the shards' refusal is the answer."""

    @pytest.mark.parametrize("kind", ["in-process", "pipelined"])
    def test_answers_error_and_fills_no_cache_entry(self, kind, dph, encrypted):
        servers = [OutsourcedDatabaseServer() for _ in range(3)]
        with _fleet(kind, servers, replicas=2, cache=True) as router:
            store_relation(router, "Emp", encrypted, dph.server_evaluator())
            garbage = b"\x00\x07garbage"
            error = _envelope(router, MessageKind.INDEX_LOOKUP, garbage, MessageKind.ERROR)
            assert b"truncated" in error.body
            assert len(router.cache) == 0
            # no index installed: every shard answers the embedded query by scan
            lookup = IndexLookupRequest(
                labels=(b"l" * 32,), fallback_query=_query(dph, "dept", "HR")
            )
            response = _envelope(
                router, MessageKind.INDEX_LOOKUP, encode_index_lookup(lookup),
                MessageKind.QUERY_RESULT,
            )
            assert len(protocol.decode_query_result(response.body).matching) == 9
            assert len(router.cache) == 1


class TestEveryRequestCrossesTheGather:
    """Bugfix: an unreplicated insert is timed and traced like every request."""

    def test_r1_insert_records_one_scatter(self, secret_key, rng):
        router = ShardRouter([OutsourcedDatabaseServer() for _ in range(3)])
        db = EncryptedDatabase.open(secret_key, server=router, rng=rng)
        db.create_table(EMP_DECL, rows=ROWS)

        def samples():
            return sum(
                entry["count"]
                for entry in router.metrics.snapshot()["histograms"]
                if entry["name"] == "cluster_shard_seconds"
            )

        before = samples()
        db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 1})
        names = [span["name"] for span in db.fetch_trace()["spans"]]
        assert names.count("router.scatter") == 1
        assert names.count("shard.request") == 1
        assert samples() == before + 1


class TestFailedConstructionLeaksNothing:
    """Bugfix: no ``repro-cluster-aio`` thread outlives a failed constructor."""

    @pytest.mark.parametrize(
        "shards, options",
        [
            ([OutsourcedDatabaseServer()], dict(cache={"bogus": 1})),
            ([OutsourcedDatabaseServer()], dict(policy="hope")),
            (
                [OutsourcedDatabaseServer(), OutsourcedDatabaseServer()],
                dict(shard_ids=["a", "a"]),
            ),
            (["tcp://127.0.0.1:1"], dict(timeout=2.0)),
        ],
        ids=["bad-cache-config", "bad-policy", "duplicate-shard-id", "unreachable-shard"],
    )
    def test_thread_names_are_unchanged(self, shards, options):
        # Pool threads of earlier routers may exit meanwhile, so only a gain
        # counts as a leak.
        before = Counter(thread.name for thread in threading.enumerate())
        for _ in range(3):
            with pytest.raises(ServerError):  # ClusterError, or the proxy's own
                ShardRouter(shards, async_transport=True, **options)
        after = Counter(thread.name for thread in threading.enumerate())
        assert after - before == Counter()
