"""ShardRouter defines each operation once, as an envelope.

A shard needs nothing but ``handle_message``; every kind of fleet (in-process,
blocking ``tcp://``, pipelined) agrees on answers, provider state, counters
and errors; single queries and batches share one coordinator cache; and a
failed construction leaves no thread behind.
"""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro.api import EncryptedDatabase
from repro.cluster import DEGRADED, ShardRouter
from repro.core import SearchableSelectDph
from repro.crypto.rng import DeterministicRng
from repro.net import ThreadedTcpServer
from repro.outsourcing import OutsourcedDatabaseServer, protocol
from repro.outsourcing.protocol import MessageKind, MessageV2, UNSERVED_KIND_REFUSAL
from repro.outsourcing.server import ServerError
from repro.relational import Relation, RelationSchema, Selection
from provider_calls import (
    delete_tuples,
    delete_tuples_exact,
    execute_batch,
    execute_query,
    insert_tuple,
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


class NoLookupServer(OutsourcedDatabaseServer):
    """An older build: refuses ``INDEX_LOOKUP`` with the shared refusal text."""

    def _dispatch(self, request):
        if request.kind is MessageKind.INDEX_LOOKUP:
            raise ServerError(f"{UNSERVED_KIND_REFUSAL} {request.kind.value!r}")
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
        insert_tuple(router, "Emp", _tuple(dph, "Zoe", "NEW"))
        assert len(execute_query(router, "Emp", _query(dph, "dept", "NEW")).matching) == 1
        hr, it = execute_batch(
            router, "Emp", [_query(dph, "dept", "HR"), _query(dph, "dept", "IT")]
        )
        assert (len(hr.matching), len(it.matching)) == (9, 9)
        # DELETE_TUPLES counts by the capped sum of its fan-out: 2 physical
        # copies each, 9 logical
        assert delete_tuples(router, "Emp", _ids_of(hr)) == 9
        gone = delete_tuples_exact(router, "Emp", _ids_of(it) + _ids_of(hr))
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
            MessageKind.INSERT_TUPLE,
            protocol.encode_encrypted_tuple(_tuple(dph, "Zoe", "NEW")),
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
                MessageKind.DELETE_TUPLES_EXACT,
                protocol.encode_tuple_ids(it_ids[:3] + it_ids[:1]),
                MessageKind.TUPLE_IDS,
            ).body
        )
        answers["count"] = len(
            protocol.decode_tuple_ids(
                _envelope(
                    router,
                    MessageKind.DELETE_TUPLES_EXACT,
                    protocol.encode_tuple_ids(it_ids[2:6]),
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
            insert_tuple(router, "Emp", _tuple(dph, "Zoe"))
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
            (MessageKind.INSERT_TUPLE, protocol.encode_encrypted_tuple(_tuple(dph, "Zoe"))),
            (MessageKind.DELETE_TUPLES, protocol.encode_tuple_ids([some_id])),
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


class TestRefusedKindFallsBackToScan:
    """The shared refusal constant keeps index -> scan fallback working."""

    @pytest.mark.parametrize("kind", ["in-process", "pipelined"])
    def test_through_the_router_on_both_scatter_transports(self, kind, secret_key, rng):
        servers = [OutsourcedDatabaseServer(), NoLookupServer(), OutsourcedDatabaseServer()]
        with _fleet(kind, servers, replicas=2) as router:
            db = EncryptedDatabase.open(secret_key, server=router, rng=rng, index=True)
            db.create_table(EMP_DECL, rows=ROWS)
            outcome = db.select(Selection.equals("dept", "HR"), table="Emp")
            assert len(outcome.relation) == 9
            assert db.index_active  # the fleet as a whole still serves lookups
            assert router.stats.as_dict()["index_scan_fallbacks"] == 1
            assert router.stats.as_dict()["index_lookups"] == 1
            assert (router.stats.as_dict()["loop_scatters"] > 0) == (kind == "pipelined")

    def test_through_a_single_provider_session(self, secret_key, rng):
        db = EncryptedDatabase.open(secret_key, server=NoLookupServer(), rng=rng, index=True)
        db.create_table(EMP_DECL, rows=ROWS)
        assert db.index_active
        assert len(db.select(Selection.equals("dept", "HR"), table="Emp").relation) == 9
        assert not db.index_active  # memoized: later selects go straight to QUERY


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
        before = sorted(thread.name for thread in threading.enumerate())
        for _ in range(3):
            with pytest.raises(ServerError):  # ClusterError, or the proxy's own
                ShardRouter(shards, async_transport=True, **options)
        assert sorted(thread.name for thread in threading.enumerate()) == before
