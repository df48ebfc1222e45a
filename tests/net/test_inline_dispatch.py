"""Bounded requests are answered on the server's event loop, the rest on workers.

The rule under test (``repro.net.server``): an envelope is answered on the
loop when the provider calls its work bounded, its relation's queue is
idle and its frame arrived alone; everything else takes the dispatch pool.
Which thread ran a request is observed directly (the provider records it)
or through ``server_inline_answers_total``; blocking is modelled with
events, never sleeps.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest
from gated_provider import GatedServer

from repro.api import EncryptedDatabase
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.index import IndexDelta, IndexLookupRequest, IndexSnapshot
from repro.index.wire import encode_index_delta, encode_index_lookup
from repro.net import CHANNEL_CONTROL, ThreadedTcpServer, recv_frame, send_frame
from repro.net.framing import CHANNEL_ENVELOPE, encode_frame
from repro.net.server import KeyedSerialDispatcher
from repro.outsourcing import (
    FileStorageBackend,
    InMemoryStorageBackend,
    OutsourcedDatabaseServer,
)
from repro.outsourcing.protocol import (
    MessageKind,
    MessageV2,
    encode_delete_tuples,
    encode_encrypted_query,
    encode_insert_tuples,
    parse_message,
)
from repro.relational import Relation, RelationSchema, RelationTuple, Selection
from repro.schemes.plaintext import PlaintextDph

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
FAST_DECL = "Fast(name:string[8], v:int[4])"
L1, L2 = b"\x01" * 32, b"\x02" * 32
TRACE_ID = b"\x7a" * 16
WORKER_THREADS = "repro-net-dispatch"


class Fixture:
    """One relation's deterministic ciphertexts: stored ids and spare tuples."""

    def __init__(self, decl: str, rows: list[tuple], spare_rows: list[tuple]) -> None:
        self.schema = RelationSchema.parse(decl)
        self.scheme = PlaintextDph(
            self.schema,
            SecretKey.generate(rng=DeterministicRng(7)),
            rng=DeterministicRng(8),
        )
        self.encrypted = self.scheme.encrypt_relation(
            Relation.from_rows(self.schema, rows)
        )
        self.ids = [t.tuple_id for t in self.encrypted.encrypted_tuples]
        self.spares = [
            self.scheme.encrypt_tuple(RelationTuple.from_values(self.schema, row))
            for row in spare_rows
        ]

    def install(self, database: OutsourcedDatabaseServer) -> None:
        """Store the relation and ship an index (L1/L2 split the ids)."""
        name = self.schema.name
        database.store_relation(name, self.encrypted, self.scheme.server_evaluator())
        half = len(self.ids) // 2
        database.put_index(
            name,
            IndexSnapshot(
                bucket_capacity=half,
                entries={L1: (tuple(self.ids[:half]),), L2: (tuple(self.ids[half:]),)},
            ),
        )


def emp_fixture() -> Fixture:
    return Fixture(
        EMP_DECL,
        [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(8)],
        [("spare0", "HR", 1), ("spare1", "IT", 2)],
    )


def fast_fixture() -> Fixture:
    return Fixture(FAST_DECL, [(f"f{i}", i) for i in range(8)], [("g0", 90)])


def provider(factory=OutsourcedDatabaseServer):
    """A provider of ``factory`` holding indexed ``Emp`` and ``Fast``."""
    database = factory()
    for fixture in (emp_fixture(), fast_fixture()):
        fixture.install(database)
    return database


class ThreadRecordingServer(OutsourcedDatabaseServer):
    """Remembers which thread served each message."""

    def __init__(self) -> None:
        super().__init__()
        self.threads: list[str] = []

    def handle_message(self, raw: bytes) -> bytes:
        self.threads.append(threading.current_thread().name)
        return super().handle_message(raw)


class AllWorkerServer(OutsourcedDatabaseServer):
    """The behaviour before this rule existed: nothing is bounded."""

    def bounded_work(self, kind, name: str) -> bool:
        return False


class SlowScanServer(OutsourcedDatabaseServer):
    """Stock predicate; every *scan* parks on an event."""

    def __init__(self) -> None:
        super().__init__()
        self.scanning = threading.Event()
        self.release = threading.Event()

    def execute_query(self, name, encrypted_query):
        self.scanning.set()
        assert self.release.wait(timeout=30), "scan never released"
        return super().execute_query(name, encrypted_query)


class ExplodingServer(OutsourcedDatabaseServer):
    """``handle_message`` raises for relation ``Emp`` -- a provider bug."""

    def handle_message(self, raw: bytes) -> bytes:
        if parse_message(raw).relation_name == "Emp":
            raise RuntimeError("kaboom")
        return super().handle_message(raw)


class ExplodingAllWorkerServer(ExplodingServer, AllWorkerServer):
    pass


class Opaque:
    """What a coordinator puts behind the socket: frames in, frames out."""

    def __init__(self, inner: ThreadRecordingServer) -> None:
        self.inner = inner

    def handle_message(self, raw: bytes) -> bytes:
        return self.inner.handle_message(raw)


def envelope(kind: MessageKind, relation: str, body: bytes = b"", traced=False) -> bytes:
    return MessageV2(
        kind=kind,
        relation_name=relation,
        body=body,
        trace_id=TRACE_ID if traced else None,
    ).to_bytes()


def lookup(relation: str, *labels: bytes, fallback=None, traced=False) -> bytes:
    request = IndexLookupRequest(labels=labels, fallback_query=fallback)
    return envelope(
        MessageKind.INDEX_LOOKUP, relation, encode_index_lookup(request), traced
    )


def insert(relation: str, tuples=(), additions=(), traced=False) -> bytes:
    """An ``INSERT_TUPLES`` of ``tuples`` carrying the posting ``additions``."""
    postings = encode_index_delta(IndexDelta(additions=tuple(additions)))
    body = encode_insert_tuples(postings, list(tuples))
    return envelope(MessageKind.INSERT_TUPLES, relation, body, traced)


def delete(relation: str, ids=(), removals=(), traced=False) -> bytes:
    """A ``DELETE_TUPLES`` of ``ids`` carrying the posting ``removals``."""
    postings = encode_index_delta(IndexDelta(removals=tuple(removals)))
    body = encode_delete_tuples(list(ids), postings)
    return envelope(MessageKind.DELETE_TUPLES, relation, body, traced)


def scan(fixture: Fixture, traced=False) -> bytes:
    attribute = fixture.schema.attribute_names[0]
    query = fixture.scheme.encrypt_query(Selection.equals(attribute, "nobody"))
    return envelope(
        MessageKind.QUERY, fixture.schema.name, encode_encrypted_query(query), traced
    )


def open_client(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    sock.settimeout(10.0)
    hello = json.dumps({"op": "hello"}).encode()
    send_frame(sock, hello, channel=CHANNEL_CONTROL, correlation=1)
    assert json.loads(recv_frame(sock).payload)["ok"]
    return sock


def ask(sock: socket.socket, payload: bytes, correlation: int = 5):
    send_frame(sock, payload, correlation=correlation)
    frame = recv_frame(sock)
    assert frame.correlation == correlation
    return frame


def ping(sock: socket.socket) -> dict:
    send_frame(sock, b'{"op": "ping"}', channel=CHANNEL_CONTROL, correlation=3)
    return json.loads(recv_frame(sock).payload)


def inline_answers(server: ThreadedTcpServer) -> dict[str, int]:
    """``server_inline_answers_total`` by relation."""
    return {
        counter["labels"]["relation"]: counter["value"]
        for counter in server.server.metrics.snapshot()["counters"]
        if counter["name"] == "server_inline_answers_total"
    }


class LoadCountingStorage(InMemoryStorageBackend):
    """The in-memory store, counting full-relation loads."""

    def __init__(self) -> None:
        super().__init__()
        self.loads = 0

    def load(self, name):
        self.loads += 1
        return super().load(name)


class TestBoundedWorkPredicate:
    def test_index_reads_and_writes_are_bounded(self, tmp_path):
        bounded = {
            kind for kind in MessageKind if provider().bounded_work(kind, "Emp")
        }
        assert bounded == {
            MessageKind.INDEX_LOOKUP,
            MessageKind.INSERT_TUPLES,
            MessageKind.DELETE_TUPLES,
        }
        # A file-backed write rewrites (or a lookup re-reads) the file.
        file_backed = OutsourcedDatabaseServer(storage=FileStorageBackend(tmp_path))
        emp_fixture().install(file_backed)
        assert {
            kind for kind in MessageKind if file_backed.bounded_work(kind, "Emp")
        } == set()

    def test_a_lookup_without_an_index_is_unbounded(self):
        database = provider()
        fixture = emp_fixture()
        # A restore without INDEX_PUT (or a restart, or a fresh shard) loses
        # the index: the lookup would scan.
        database.store_relation(
            "Emp", fixture.encrypted, fixture.scheme.server_evaluator()
        )
        assert not database.bounded_work(MessageKind.INDEX_LOOKUP, "Emp")
        assert database.bounded_work(MessageKind.INDEX_LOOKUP, "Fast")
        assert not database.bounded_work(MessageKind.INDEX_LOOKUP, "Nope")
        database.drop_relation("Fast")
        assert not database.bounded_work(MessageKind.INDEX_LOOKUP, "Fast")

    def test_bounded_work_never_loads_the_relation(self):
        """Lookups fetch by id and writes touch only their ids: the first
        lookup after a put and every request after a write skip ``load``."""
        storage = LoadCountingStorage()
        database = OutsourcedDatabaseServer(storage=storage)
        emp = emp_fixture()
        emp.install(database)  # STORE_RELATION + INDEX_PUT
        spare = emp.spares[0]

        def l1_rows() -> int:
            request = IndexLookupRequest(labels=(L1,))
            return len(database.index_lookup("Emp", request).matching)

        storage.loads = 0
        assert database.bounded_work(MessageKind.INDEX_LOOKUP, "Emp")
        assert l1_rows() == 4
        database.insert_tuples("Emp", [spare], IndexDelta(additions=((L1, spare.tuple_id),)))
        assert l1_rows() == 5
        # Deleted ids come back in stored order, not request order.
        assert database.delete_tuples(
            "Emp", [spare.tuple_id, emp.ids[0]], IndexDelta()
        ) == (emp.ids[0], spare.tuple_id)
        assert database.delete_tuples("Emp", [emp.ids[0], emp.ids[1]], IndexDelta()) == (
            emp.ids[1],
        )
        assert l1_rows() == 2
        assert storage.loads == 0
        assert len(database.stored_relation("Emp")) == 6  # a scan's view is current
        assert storage.loads == 1

    def test_file_backed_lookups_are_unbounded(self, tmp_path):
        database = OutsourcedDatabaseServer(storage=FileStorageBackend(tmp_path))
        emp_fixture().install(database)
        assert not database.bounded_work(MessageKind.INDEX_LOOKUP, "Emp")


class TestWhichThreadAnswers:
    def test_lone_bounded_request_runs_on_the_loop_and_is_counted(self):
        database = provider(ThreadRecordingServer)
        with ThreadedTcpServer(database) as server:
            sock = open_client(server.port)
            try:
                for request in (
                    lookup("Emp", L1),
                    insert("Emp", additions=[(L1, b"\x09" * 16)]),
                    lookup("Fast", L2),
                ):
                    frame = ask(sock, request)
                    assert parse_message(frame.payload).kind is not MessageKind.ERROR
                assert not any(t.startswith(WORKER_THREADS) for t in database.threads)
                ask(sock, scan(emp_fixture()))
                assert database.threads[-1].startswith(WORKER_THREADS)
            finally:
                sock.close()
            assert inline_answers(server) == {"Emp": 2, "Fast": 1}
            stats = server.server.stats
            # Inline answers are dispatched requests, but no pool worker ran
            # them: the peak is a statement about the pool.
            assert stats.as_dict()["requests_dispatched"] == 4
            assert stats.as_dict()["peak_concurrent_dispatch"] == 1
            assert list(stats.as_dict())[-3:] == [
                "dispatch_workers", "peak_concurrent_dispatch", "requests_dispatched",
            ]

    def test_lone_writes_and_lookups_run_on_the_loop_right_after_a_worker(self):
        """A worker's answer releases the relation first: the client's next
        lone request -- here every write kind, then the first lookup after
        an ``INDEX_PUT`` -- never finds it busy."""
        database = provider(ThreadRecordingServer)
        emp = emp_fixture()
        spare = emp.spares[0]
        with ThreadedTcpServer(database) as server:
            sock = open_client(server.port)
            try:
                for request in (
                    insert("Emp", [spare]),
                    delete("Emp", [spare.tuple_id]),
                    delete("Emp", emp.ids[:1]),
                ):
                    ask(sock, scan(emp))  # a worker, then straight to the write
                    answer = parse_message(ask(sock, request).payload)
                    assert answer.kind is not MessageKind.ERROR
                    assert not database.threads[-1].startswith(WORKER_THREADS)
                database.put_index(
                    "Emp", IndexSnapshot(bucket_capacity=4, entries={L1: (tuple(emp.ids),)})
                )
                assert len(parse_message(ask(sock, lookup("Emp", L1)).payload).body) > 100
                assert not database.threads[-1].startswith(WORKER_THREADS)
            finally:
                sock.close()
            assert inline_answers(server) == {"Emp": 4}

    def test_objects_without_the_predicate_get_the_worker(self):
        inner = provider(ThreadRecordingServer)
        with ThreadedTcpServer(Opaque(inner)) as server:
            sock = open_client(server.port)
            try:
                ask(sock, lookup("Emp", L1))
            finally:
                sock.close()
            assert inner.threads[-1].startswith(WORKER_THREADS)
            assert inline_answers(server) == {}

    def test_a_request_behind_in_flight_work_takes_the_worker(self):
        """Rule 3: the connection already has something in flight."""
        database = provider(GatedServer)
        gate = database.gate("Emp")
        with ThreadedTcpServer(database) as server:
            sock = open_client(server.port)
            try:
                send_frame(sock, lookup("Emp", L1), correlation=1)
                assert database.entered["Emp"].wait(timeout=10)
                send_frame(sock, lookup("Fast", L1), correlation=2)
                assert recv_frame(sock).correlation == 2
                gate.set()
                assert recv_frame(sock).correlation == 1
            finally:
                sock.close()
            assert inline_answers(server) == {}

    def test_a_request_behind_same_relation_work_queues_behind_it(self):
        """Rule 2: another connection keeps the relation's queue busy."""
        database = provider(SlowScanServer)
        with ThreadedTcpServer(database) as server:
            scanner, reader = open_client(server.port), open_client(server.port)
            try:
                send_frame(scanner, scan(emp_fixture()), correlation=1)
                assert database.scanning.wait(timeout=10)
                send_frame(reader, lookup("Emp", L1), correlation=2)
                deadline = time.monotonic() + 10
                while server.server.stats.as_dict()["envelope_frames"] < 2:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                database.release.set()
                assert recv_frame(scanner).correlation == 1
                assert recv_frame(reader).correlation == 2
            finally:
                database.release.set()
                scanner.close()
                reader.close()
            assert inline_answers(server) == {}

    def test_file_backed_provider_never_answers_lookups_inline(self, tmp_path):
        """What ``repro serve --data-dir`` builds: ``load`` is O(n) per lookup."""
        rows = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(12)]
        answers = {}
        for name, database in (
            ("file", OutsourcedDatabaseServer(storage=FileStorageBackend(tmp_path))),
            ("memory", OutsourcedDatabaseServer()),
        ):
            with ThreadedTcpServer(database) as server:
                db = EncryptedDatabase.connect(
                    f"tcp://127.0.0.1:{server.port}?index=1", scheme="plaintext"
                )
                try:
                    db.create_table(EMP_DECL, rows=rows)
                    for _ in range(5):
                        result = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                        assert len(result.relation) == 6
                finally:
                    db.close()
                answers[name] = inline_answers(server).get("Emp", 0)
        assert answers["file"] == 0
        assert answers["memory"] >= 3  # the selects; store and INDEX_PUT take workers


class TestTheDispatcherReleasesBeforeAnswering:
    def test_the_key_is_idle_and_counted_when_the_result_is_delivered(self):
        dispatcher = KeyedSerialDispatcher(max_workers=1)
        gate, delivered = threading.Event(), threading.Event()
        seen = []

        def on_done(future) -> None:
            seen.append((dispatcher.idle("k"), dispatcher.total_dispatched))
            # Submitted while the answer is still being delivered: it runs,
            # and is delivered, after it.
            follower = dispatcher.submit("k", seen.append, "follower ran")
            follower.add_done_callback(lambda _: delivered.set())

        try:
            # The job waits for the gate, so the callback is registered
            # before the result exists and runs on the worker delivering it.
            future = dispatcher.submit("k", gate.wait, 10)
            future.add_done_callback(on_done)
            gate.set()
            assert delivered.wait(timeout=10)
            assert future.result() is True
            assert seen == [(True, 1), "follower ran"]
            assert dispatcher.idle("k")
            assert dispatcher.total_dispatched == 2
        finally:
            gate.set()
            dispatcher.shutdown()


class TestTheLoopStaysLive:
    def test_lookup_that_falls_back_to_scan_does_not_park_the_loop(self):
        database = provider(SlowScanServer)
        emp = emp_fixture()
        database.store_relation(  # restore without INDEX_PUT: the index is gone
            "Emp", emp.encrypted, emp.scheme.server_evaluator()
        )
        fallback = emp.scheme.encrypt_query(Selection.equals("dept", "HR"))
        with ThreadedTcpServer(database) as server:
            slow, other = open_client(server.port), open_client(server.port)
            try:
                send_frame(slow, lookup("Emp", L1, fallback=fallback), correlation=1)
                assert database.scanning.wait(timeout=10)
                assert ping(other) == {"ok": True}
                answer = parse_message(ask(other, lookup("Fast", L1)).payload)
                assert answer.kind is MessageKind.QUERY_RESULT
                database.release.set()
                answer = parse_message(recv_frame(slow).payload)
                assert answer.kind is MessageKind.QUERY_RESULT
            finally:
                database.release.set()
                slow.close()
                other.close()
            assert inline_answers(server) == {"Fast": 1}

    def test_gated_relations_are_never_answered_on_the_loop(self):
        database = provider(GatedServer)
        gate = database.gate("Emp")
        with ThreadedTcpServer(database) as server:
            slow, other = open_client(server.port), open_client(server.port)
            try:
                send_frame(slow, lookup("Emp", L1), correlation=1)
                assert database.entered["Emp"].wait(timeout=10)
                assert ping(other) == {"ok": True}
                ask(other, lookup("Fast", L1))
                gate.set()
                assert recv_frame(slow).correlation == 1
            finally:
                gate.set()
                slow.close()
                other.close()
            assert inline_answers(server) == {"Fast": 1}

    def test_pipelined_burst_goes_to_the_workers_and_a_ping_overtakes_it(self):
        """200 bounded lookups in one write do not monopolise the loop."""
        database = OutsourcedDatabaseServer()
        Fixture(
            EMP_DECL, [(f"emp{i}", "HR", i) for i in range(128)], []
        ).install(database)
        burst = b"".join(
            encode_frame(lookup("Emp", L1), channel=CHANNEL_ENVELOPE, correlation=i)
            for i in range(10, 210)
        )
        assert len(burst) < 65536  # one read delivers it whole
        last_reply_at = []

        def drain(sock: socket.socket) -> None:
            for _ in range(200):
                recv_frame(sock)
            last_reply_at.append(time.monotonic())

        with ThreadedTcpServer(database) as server:
            a, b = open_client(server.port), open_client(server.port)
            reader = threading.Thread(target=drain, args=(a,))
            try:
                before = inline_answers(server)
                reader.start()
                a.sendall(burst)
                assert ping(b) == {"ok": True}
                ping_answered_at = time.monotonic()
                reader.join(timeout=30)
                assert not reader.is_alive()
                assert ping_answered_at < last_reply_at[0]
                peer = str(a.getsockname())
                (stats,) = [
                    c for c in tuple(server.server._connections.values())
                    if c.peer == peer
                ]
                assert stats.peak_in_flight > 1
                assert inline_answers(server) == before
            finally:
                a.close()
                b.close()


class Transcript:
    """What one scripted exchange produced, in a comparable form."""

    def __init__(self) -> None:
        self.responses: dict[int, tuple[int, bytes]] = {}
        self.relation_of: dict[int, str] = {}
        self.arrival: list[int] = []

    def completion_order(self) -> dict[str, list[int]]:
        order: dict[str, list[int]] = {}
        for correlation in self.arrival:
            order.setdefault(self.relation_of[correlation], []).append(correlation)
        return order


def run_script(factory, traced: bool) -> Transcript:
    """Singles, one-relation burst, two relations interleaved, two bad lookups."""
    emp, fast = emp_fixture(), fast_fixture()
    database = provider(factory)
    spare0, spare1 = emp.spares
    singles = [
        lookup("Emp", L1, traced=traced),
        insert("Emp", additions=[(L1, spare0.tuple_id)], traced=traced),
        scan(emp, traced),
        lookup("Fast", L2, traced=traced),
        insert("Emp", [spare0], traced=traced),
        lookup("Emp", L1, traced=traced),
    ]
    one_relation = [
        insert("Emp", [spare1], traced=traced),
        insert("Emp", additions=[(L2, spare1.tuple_id)], traced=traced),
        lookup("Emp", L2, traced=traced),
        scan(emp, traced),
        delete("Emp", [spare1.tuple_id, emp.ids[0]], traced=traced),
    ]
    interleaved = [
        lookup("Emp", L1, traced=traced),
        lookup("Fast", L1, traced=traced),
        delete("Emp", removals=[(L1, emp.ids[1])], traced=traced),
        insert("Fast", additions=[(L2, fast.spares[0].tuple_id)], traced=traced),
        scan(emp, traced),
        scan(fast, traced),
        lookup("Emp", L1, traced=traced),
        lookup("Fast", L2, traced=traced),
    ]
    bad = [
        envelope(MessageKind.INDEX_LOOKUP, "Emp", b"\xff\xff", traced),
        lookup("Nope", L1, traced=traced),
    ]
    transcript = Transcript()
    with ThreadedTcpServer(database) as server:
        sock = open_client(server.port)
        try:
            correlation = 100

            def exchange(batch: list[bytes]) -> None:
                nonlocal correlation
                wire = b""
                for payload in batch:
                    correlation += 1
                    transcript.relation_of[correlation] = parse_message(
                        payload
                    ).relation_name
                    wire += encode_frame(
                        payload, channel=CHANNEL_ENVELOPE, correlation=correlation
                    )
                sock.sendall(wire)
                for _ in batch:
                    frame = recv_frame(sock)
                    transcript.arrival.append(frame.correlation)
                    transcript.responses[frame.correlation] = (
                        frame.channel, frame.payload
                    )

            for payload in singles + bad:
                exchange([payload])
            exchange(one_relation)
            exchange(interleaved)
            assert ping(sock) == {"ok": True}  # the connection is still alive
        finally:
            sock.close()
    return transcript


@pytest.mark.parametrize("traced", [False, True], ids=["v2", "v3-traced"])
def test_inline_and_all_worker_servers_answer_identically(traced):
    stock = run_script(OutsourcedDatabaseServer, traced)
    all_worker = run_script(AllWorkerServer, traced)
    assert stock.responses == all_worker.responses
    assert len(stock.responses) == 21
    assert stock.completion_order() == all_worker.completion_order()
    # Same-relation requests complete in the order they were sent.
    for order in stock.completion_order().values():
        assert order == sorted(order)
    errors = [
        parse_message(payload).body
        for channel, payload in stock.responses.values()
        if channel == CHANNEL_ENVELOPE
        and parse_message(payload).kind is MessageKind.ERROR
    ]
    assert len(errors) == 2  # the malformed body and the unknown relation


class TestFailureAndObservability:
    @pytest.mark.parametrize(
        "factory", [ExplodingServer, ExplodingAllWorkerServer], ids=["inline", "worker"]
    )
    def test_escaping_exception_is_the_same_control_frame_on_both_paths(self, factory):
        with ThreadedTcpServer(provider(factory)) as server:
            sock, sibling = open_client(server.port), open_client(server.port)
            try:
                frame = ask(sock, lookup("Emp", L1), correlation=77)
                assert frame.channel == CHANNEL_CONTROL
                assert json.loads(frame.payload) == {
                    "ok": False, "error": "internal dispatch failure: kaboom",
                }
                # Neither this connection nor its sibling died of it.
                answer = parse_message(ask(sock, lookup("Fast", L1)).payload)
                assert answer.kind is MessageKind.QUERY_RESULT
                assert ping(sibling) == {"ok": True}
            finally:
                sock.close()
                sibling.close()
            expected = {"Emp": 1, "Fast": 1} if factory is ExplodingServer else {}
            assert inline_answers(server) == expected

    def test_traced_inline_request_is_a_span_a_buffered_trace_and_a_slow_query(self):
        with ThreadedTcpServer(provider(), slow_query_threshold=0.0) as server:
            sock = open_client(server.port)
            try:
                ask(sock, lookup("Emp", L1, traced=True))
                trace = server.server.trace_buffer.get(TRACE_ID)
                (dispatch,) = [
                    s for s in trace["spans"] if s["name"] == "server.dispatch"
                ]
                assert dispatch["annotations"]["path"] == "inline"
                assert dispatch["annotations"]["relation"] == "Emp"
                assert dispatch["annotations"]["queue_wait_s"] >= 0
                assert {"provider.index-lookup", "access.index"} <= {
                    s["name"] for s in trace["spans"]
                }
                assert len(server.server.slow_queries) == 1
                ask(sock, scan(emp_fixture(), traced=True))
                paths = [
                    s["annotations"]["path"]
                    for s in server.server.trace_buffer.get(TRACE_ID)["spans"]
                    if s["name"] == "server.dispatch"
                ]
                assert sorted(paths) == ["inline", "worker"]
            finally:
                sock.close()
            queue_waits = [
                h for h in server.server.metrics.snapshot()["histograms"]
                if h["name"] == "server_dispatch_queue_seconds"
                and h["labels"] == {"relation": "Emp"}
            ]
            assert queue_waits[0]["count"] == 2  # observed on both paths

    def test_stop_during_an_inline_answer_drains_cleanly(self):
        class StopsMidAnswer(OutsourcedDatabaseServer):
            stop_task = None

            def handle_message(self, raw: bytes) -> bytes:
                # Inline means *on the loop*: schedule the shutdown from
                # inside the answer, so it is pending when the answer ends.
                loop = asyncio.get_running_loop()
                self.stop_task = loop.create_task(server.server.stop())
                # stop() cuts idle connections at once and gives busy ones
                # the grace period: this one has to count as busy.
                self.busy = [c.busy for c in server.server._connections.values()]
                return super().handle_message(raw)

        database = provider(StopsMidAnswer)
        with ThreadedTcpServer(database) as server:
            sock = open_client(server.port)
            try:
                answer = parse_message(ask(sock, lookup("Emp", L1)).payload)
                assert answer.kind is MessageKind.QUERY_RESULT
                assert len(answer.body) > 100  # the whole reply made it out
                assert recv_frame(sock) is None  # then a clean close
            finally:
                sock.close()
            deadline = time.monotonic() + 10
            while not database.stop_task.done() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert database.stop_task.done()
            assert database.stop_task.exception() is None
            assert database.busy == [True]
