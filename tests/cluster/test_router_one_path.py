"""ShardRouter defines each data operation once, as an envelope.

These tests pin the shape of ISSUE 14: the object-level API is a shim over
the envelope route (so a shard needs nothing but ``handle_message`` plus the
management calls), both surfaces and both scatter transports agree on
answers, provider state, counters and errors, they share one coordinator
cache, and a failed construction leaves no thread behind.
"""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro.api import EncryptedDatabase
from repro.cluster import DEGRADED, ClusterError, ShardRouter
from repro.core import SearchableSelectDph
from repro.crypto.rng import DeterministicRng
from repro.net import ThreadedTcpServer
from repro.outsourcing import OutsourcedDatabaseServer, protocol
from repro.outsourcing.protocol import MessageKind, MessageV2, UNSERVED_KIND_REFUSAL
from repro.outsourcing.server import ServerError
from repro.relational import Relation, RelationSchema, Selection

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
SCHEMA = RelationSchema.parse(EMP_DECL)
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(18)]


class EnvelopeOnlyShard:
    """A shard with no typed data operations at all.

    ``handle_message`` plus the management calls is everything the router
    may ask of a backend; ``execute_query``, ``insert_tuple`` and friends
    are deliberately absent.
    """

    def __init__(self) -> None:
        self._inner = OutsourcedDatabaseServer()

    @property
    def supported_protocol_versions(self):
        return self._inner.supported_protocol_versions

    @property
    def relation_names(self):
        return self._inner.relation_names

    def handle_message(self, raw: bytes) -> bytes:
        return self._inner.handle_message(raw)

    def register_evaluator(self, name, evaluator) -> None:
        self._inner.register_evaluator(name, evaluator)

    def stored_relation(self, name):
        return self._inner.stored_relation(name)

    def tuple_count(self, name) -> int:
        return self._inner.tuple_count(name)

    def list_tuple_ids(self, name):
        return self._inner.list_tuple_ids(name)

    def drop_relation(self, name) -> None:
        self._inner.drop_relation(name)


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
    """(a) ``handle_message`` + management calls serve the whole data API."""

    def test_object_surface(self, dph, encrypted):
        router = ShardRouter([EnvelopeOnlyShard() for _ in range(3)], replicas=2)
        router.store_relation("Emp", encrypted, dph.server_evaluator())
        assert router.tuple_count("Emp") == len(ROWS)
        router.insert_tuple("Emp", _tuple(dph, "Zoe", "NEW"))
        assert len(router.execute_query("Emp", _query(dph, "dept", "NEW")).matching) == 1
        hr, it = router.execute_batch(
            "Emp", [_query(dph, "dept", "HR"), _query(dph, "dept", "IT")]
        )
        assert (len(hr.matching), len(it.matching)) == (9, 9)
        # no shard exposes delete_tuples_exact, so the count is the capped
        # sum of a DELETE_TUPLES fan-out: 2 physical copies each, 9 logical
        assert router.delete_tuples("Emp", _ids_of(hr)) == 9
        gone = router.delete_tuples_exact("Emp", _ids_of(it) + _ids_of(hr))
        assert sorted(gone) == _ids_of(it)  # the HR ids were already dead
        assert router.tuple_count("Emp") == 1

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


class TestSurfacesAgree:
    """(c) object surface == envelope surface, on every kind of fleet."""

    def _drive_object(self, router, dph, encrypted):
        answers = {}
        router.store_relation("Emp", encrypted, dph.server_evaluator())
        router.insert_tuple("Emp", _tuple(dph, "Zoe", "NEW"))
        result = router.execute_query("Emp", _query(dph, "dept", "HR"))
        answers["query"] = protocol.encode_evaluation_result(result)
        batch = router.execute_batch(
            "Emp", [_query(dph, "dept", "IT"), _query(dph, "dept", "NEW")]
        )
        answers["batch"] = protocol.encode_result_batch(batch)
        it_ids = _ids_of(batch[0])
        answers["exact"] = router.delete_tuples_exact("Emp", it_ids[:3] + it_ids[:1])
        answers["count"] = router.delete_tuples("Emp", it_ids[2:6])
        return answers

    def _drive_envelopes(self, router, dph, encrypted):
        answers = {}
        router.register_evaluator("Emp", dph.server_evaluator())
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
        # router.delete_tuples counts through DELETE_TUPLES_EXACT whenever
        # every shard serves it, which all three fleets here do
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

    @pytest.mark.parametrize("kind", FLEET_KINDS)
    def test_same_answers_state_and_counters(self, kind, secret_key):
        def run(drive):
            # identical ciphertexts on both sides: same key, same seed
            dph = SearchableSelectDph(
                SCHEMA, secret_key, backend="swp", rng=DeterministicRng(5)
            )
            encrypted = dph.encrypt_relation(Relation.from_rows(SCHEMA, ROWS))
            servers = [OutsourcedDatabaseServer() for _ in range(3)]
            with _fleet(kind, servers, replicas=2) as router:
                answers = drive(router, dph, encrypted)
                return answers, _provider_state(servers), router.stats.as_dict()

        object_side = run(self._drive_object)
        envelope_side = run(self._drive_envelopes)
        assert object_side[0] == envelope_side[0]  # decoded answers
        assert object_side[0]["count"] == 3  # ids 2..5, one already deleted
        assert object_side[1] == envelope_side[1]  # provider state
        assert object_side[2] == envelope_side[2]  # cluster_*_total counters
        counters = object_side[2]
        assert counters["routed_inserts"] == 1 and counters["scatter_reads"] == 2
        if kind == "pipelined":
            # store, insert, query, batch, two deletes: all on the event loop
            assert counters["loop_scatters"] == 6
        else:
            assert counters["loop_scatters"] == 0


class TestSurfacesFailAlike:
    """Bugfix: a dying backend surfaces as ClusterError on both surfaces."""

    def _fleet(self, replicas, dph, encrypted):
        shards = [DyingServer() for _ in range(3)]
        router = ShardRouter(shards, replicas=replicas)
        router.store_relation("Emp", encrypted, dph.server_evaluator())
        for shard in shards:
            shard.down = True
        return router

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_object_surface_raises_cluster_error(self, replicas, dph, encrypted):
        router = self._fleet(replicas, dph, encrypted)
        some_id = encrypted.encrypted_tuples[0].tuple_id
        with pytest.raises(ClusterError, match="down"):
            router.insert_tuple("Emp", _tuple(dph, "Zoe"))
        with pytest.raises(ClusterError, match="down"):
            router.delete_tuples("Emp", [some_id])
        with pytest.raises(ClusterError, match="down"):
            router.execute_query("Emp", _query(dph, "dept", "HR"))

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
    """(d) both surfaces fill and hit the same coordinator cache entries."""

    def _fleet(self, dph, encrypted, **options):
        shards = [DyingServer() for _ in range(3)]
        router = ShardRouter(shards, cache=True, **options)
        router.store_relation("Emp", encrypted, dph.server_evaluator())
        return router, shards

    def test_object_fill_serves_an_envelope_batch(self, dph, encrypted):
        router, _ = self._fleet(dph, encrypted)
        hr, it = _query(dph, "dept", "HR"), _query(dph, "dept", "IT")
        filled = [router.execute_query("Emp", hr), router.execute_query("Emp", it)]
        reads = router.stats.scatter_reads
        batch = _envelope(
            router,
            MessageKind.BATCH_QUERY,
            protocol.encode_query_batch([hr, it]),
            MessageKind.BATCH_RESULT,
        )
        assert router.stats.scatter_reads == reads  # both elements were hits
        assert protocol.decode_result_batch(batch.body) == tuple(filled)

    def test_envelope_batch_fill_serves_the_object_surface(self, dph, encrypted):
        router, _ = self._fleet(dph, encrypted)
        hr, it = _query(dph, "dept", "HR"), _query(dph, "dept", "IT")
        batch = _envelope(
            router,
            MessageKind.BATCH_QUERY,
            protocol.encode_query_batch([hr, it]),
            MessageKind.BATCH_RESULT,
        )
        reads = router.stats.scatter_reads
        assert router.execute_query("Emp", it) == protocol.decode_result_batch(batch.body)[1]
        assert router.execute_batch("Emp", [it, hr])[1] is not None
        assert router.stats.scatter_reads == reads

    def test_a_degraded_read_fills_nothing_on_either_surface(self, dph, encrypted):
        router, shards = self._fleet(dph, encrypted, policy=DEGRADED)
        shards[1].down = True
        hr = _query(dph, "dept", "HR")
        partial = router.execute_query("Emp", hr)
        assert len(partial.matching) < 9 and len(router.cache) == 0
        _envelope(
            router,
            MessageKind.QUERY,
            protocol.encode_encrypted_query(hr),
            MessageKind.QUERY_RESULT,
        )
        assert len(router.cache) == 0 and router.stats.degraded_reads == 2
        shards[1].down = False
        assert len(router.execute_query("Emp", hr).matching) == 9  # no replay


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
            assert router.stats.index_scan_fallbacks == 1
            assert router.stats.index_lookups == 1
            assert (router.stats.loop_scatters > 0) == (kind == "pipelined")

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
