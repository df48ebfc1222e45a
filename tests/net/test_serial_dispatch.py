"""Every connection is served serially on its own thread, under relation locks.

The rule under test (``repro.net.server``): a connection's thread serves
the frames it reads in arrival order, and the provider's ``handle_message``
runs each envelope under its relation's lock, so a slow relation holds up
only the requests for it; control operations take no relation's lock.  Which thread ran a request is
observed directly (the provider records it); blocking is modelled with
events, never sleeps.
"""

from __future__ import annotations

import json
import select
import socket
import threading
import time

import pytest
from gated_provider import GatedServer
from provider_calls import server_counts

from repro.api import EncryptedDatabase
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.index import IndexDelta, IndexLookupRequest
from repro.index.wire import encode_index_delta, encode_index_lookup
from repro.net import CHANNEL_CONTROL, ThreadedTcpServer, recv_frame, send_frame
from repro.net import server as server_module
from repro.net.framing import CHANNEL_ENVELOPE, encode_frame
from repro.net.server import CONNECTION_THREAD_PREFIX
from repro.obs import snapshot_scalars
from repro.outsourcing import FileStorageBackend, OutsourcedDatabaseServer
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

    def install(self, database: OutsourcedDatabaseServer, index: bool = True) -> None:
        """Store the relation and ship an index (L1/L2 split the ids)."""
        name = self.schema.name
        database.deploy(name, self.schema, self.scheme.server_evaluator())
        database.insert_tuples(name, self.encrypted.encrypted_tuples, IndexDelta())
        if not index:
            return
        half = len(self.ids) // 2
        database.put_index(
            name,
            tuple((L1, i) for i in self.ids[:half]) + tuple((L2, i) for i in self.ids[half:]),
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


class SlowScanServer(OutsourcedDatabaseServer):
    """Every *scan* parks on an event."""

    def __init__(self) -> None:
        super().__init__()
        self.scanning = threading.Event()
        self.release = threading.Event()

    def execute_query(self, name, encrypted_query):
        self.scanning.set()
        assert self.release.wait(timeout=30), "scan never released"
        return super().execute_query(name, encrypted_query)


def envelope(kind: MessageKind, relation: str, body: bytes = b"", traced=False) -> bytes:
    return MessageV2(
        kind=kind,
        relation_name=relation,
        body=body,
        trace_id=TRACE_ID if traced else None,
    ).to_bytes()


#: The scan every lookup embeds; only a provider without the index runs it.
HR_SCAN = emp_fixture().scheme.encrypt_query(Selection.equals("dept", "HR"))


def lookup(relation: str, *labels: bytes, fallback=HR_SCAN, traced=False) -> bytes:
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


def unanswered(sock: socket.socket) -> bool:
    """Nothing is waiting to be read on ``sock`` right now."""
    return not select.select([sock], [], [], 0.05)[0]


def connection_of(server: ThreadedTcpServer, sock: socket.socket):
    peer = str(sock.getsockname())
    (connection,) = [
        c for c in tuple(server.server._connections) if c.peer == peer
    ]
    return connection


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def queue_wait_histograms(server: ThreadedTcpServer) -> dict[str, dict]:
    """``server_dispatch_queue_seconds`` by relation label."""
    return {
        h["labels"]["relation"]: h
        for h in server.server.metrics.snapshot()["histograms"]
        if h["name"] == "server_dispatch_queue_seconds"
    }


# --------------------------------------------------------------------------- #
# The served answers are the provider's answers, in arrival order
# --------------------------------------------------------------------------- #


def script(traced: bool) -> list[list[bytes]]:
    """Singles, two bad lookups, a one-relation burst, two relations interleaved."""
    emp, fast = emp_fixture(), fast_fixture()
    spare0, spare1 = emp.spares
    singles = [
        lookup("Emp", L1, traced=traced),
        insert("Emp", additions=[(L1, spare0.tuple_id)], traced=traced),
        scan(emp, traced),
        lookup("Fast", L2, traced=traced),
        insert("Emp", [spare0], traced=traced),
        lookup("Emp", L1, traced=traced),
    ]
    bad = [
        envelope(MessageKind.INDEX_LOOKUP, "Emp", b"\xff\xff", traced),
        lookup("Nope", L1, traced=traced),
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
    return [[payload] for payload in singles + bad] + [one_relation, interleaved]


def served_over_tcp(batches: list[list[bytes]]) -> list[tuple[int, int, bytes]]:
    """Each batch pipelined in one write; ``(correlation, channel, payload)``
    of every answer, in the order the answers arrived."""
    answers = []
    with ThreadedTcpServer(provider()) as server:
        sock = open_client(server.port)
        try:
            correlation = 100
            for batch in batches:
                wire = b""
                for payload in batch:
                    correlation += 1
                    wire += encode_frame(
                        payload, channel=CHANNEL_ENVELOPE, correlation=correlation
                    )
                sock.sendall(wire)
                for _ in batch:
                    frame = recv_frame(sock)
                    answers.append((frame.correlation, frame.channel, frame.payload))
            assert ping(sock) == {"ok": True}  # the connection is still alive
        finally:
            sock.close()
    return answers


@pytest.mark.parametrize("traced", [False, True], ids=["v2", "v3-traced"])
def test_the_served_answers_match_the_in_process_provider(traced):
    batches = script(traced)
    database = provider()
    in_process = [database.handle_message(p) for batch in batches for p in batch]
    answers = served_over_tcp(batches)
    assert len(answers) == len(in_process) == 21
    assert [c for c, _, _ in answers] == list(range(101, 122))  # arrival order
    assert [(channel, payload) for _, channel, payload in answers] == [
        (CHANNEL_ENVELOPE, payload) for payload in in_process
    ]
    errors = [
        payload for _, _, payload in answers
        if parse_message(payload).kind is MessageKind.ERROR
    ]
    assert len(errors) == 2  # the malformed body and the unknown relation


def test_control_and_envelope_frames_pipelined_together_answer_in_arrival_order():
    requests = [
        (CHANNEL_ENVELOPE, lookup("Emp", L1)),
        (CHANNEL_CONTROL, b'{"op": "ping"}'),
        (CHANNEL_ENVELOPE, lookup("Fast", L2)),
        (CHANNEL_CONTROL, b'{"op": "metrics"}'),
        (CHANNEL_ENVELOPE, lookup("Nope", L1)),
    ]
    with ThreadedTcpServer(provider()) as server:
        sock = open_client(server.port)
        try:
            sock.sendall(b"".join(
                encode_frame(payload, channel=channel, correlation=c)
                for c, (channel, payload) in enumerate(requests, start=10)
            ))
            frames = [recv_frame(sock) for _ in requests]
        finally:
            sock.close()
    assert [(f.correlation, f.channel) for f in frames] == [
        (c, channel) for c, (channel, _) in enumerate(requests, start=10)
    ]
    assert json.loads(frames[1].payload) == {"ok": True}
    metrics = json.loads(frames[3].payload)["metrics"]
    assert snapshot_scalars(metrics, "server_")["requests_dispatched"] == 3
    assert [parse_message(frames[i].payload).kind for i in (0, 2, 4)] == [
        MessageKind.QUERY_RESULT, MessageKind.QUERY_RESULT, MessageKind.ERROR,
    ]


# --------------------------------------------------------------------------- #
# Which thread answers
# --------------------------------------------------------------------------- #


class TestWhichThreadAnswers:
    def test_every_request_is_served_on_its_connections_thread(self):
        database = provider(ThreadRecordingServer)
        emp = emp_fixture()
        with ThreadedTcpServer(database) as server:
            first, second = open_client(server.port), open_client(server.port)
            try:
                for request in (lookup("Emp", L1), scan(emp), insert("Fast")):
                    ask(first, request)
                first_threads = set(database.threads)
                for request in (lookup("Emp", L2), scan(emp)):
                    ask(second, request)
                second_threads = set(database.threads) - first_threads
            finally:
                first.close()
                second.close()
        assert len(first_threads) == len(second_threads) == 1
        assert all(
            name.startswith(CONNECTION_THREAD_PREFIX)
            for name in first_threads | second_threads
        )

    def test_a_request_behind_same_relation_work_waits_for_its_lock(self):
        database = provider(SlowScanServer)
        with ThreadedTcpServer(database) as server:
            scanner, reader = open_client(server.port), open_client(server.port)
            try:
                send_frame(scanner, scan(emp_fixture()), correlation=1)
                assert database.scanning.wait(timeout=10)
                send_frame(reader, lookup("Emp", L1), correlation=2)
                # The scan holds Emp's lock and the lookup waits for it.
                wait_until(lambda: database._locks["Emp"][1] == 2)
                assert unanswered(reader)
                database.release.set()
                assert recv_frame(scanner).correlation == 1
                assert recv_frame(reader).correlation == 2
            finally:
                database.release.set()
                scanner.close()
                reader.close()
            emp = queue_wait_histograms(server)["Emp"]
            assert emp["count"] == 2
            assert emp["sum"] > 0  # the lookup's wait for the scan
            assert database._locks == {}

    def test_file_backed_provider_answers_selects_like_the_in_memory_one(self, tmp_path):
        """What ``repro serve --data-dir`` builds: ``load`` reads the file."""
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
                    answers[name] = [
                        sorted(map(repr, db.select(
                            f"SELECT * FROM Emp WHERE dept = '{dept}'"
                        ).relation.tuples))
                        for dept in ("HR", "IT", "HR")
                    ]
                finally:
                    db.close()
        assert answers["file"] == answers["memory"]
        assert [len(rows) for rows in answers["file"]] == [6, 6, 6]


class OverlapRecordingServer(OutsourcedDatabaseServer):
    """Records the most requests that ran at once, per relation and overall.

    The first ``Emp`` request and the ``Fast`` one wait for each other, so
    the two relations provably overlap once.
    """

    def __init__(self) -> None:
        super().__init__()
        self._guard = threading.Lock()
        self.running: dict[str, int] = {}
        self.peak: dict[str, int] = {}
        self.peak_total = 0
        self.emp_entered = threading.Event()
        self.fast_met_emp = threading.Event()

    def _serve(self, request: MessageV2) -> bytes:
        name = request.relation_name
        with self._guard:
            self.running[name] = self.running.get(name, 0) + 1
            self.peak[name] = max(self.peak.get(name, 0), self.running[name])
            self.peak_total = max(self.peak_total, sum(self.running.values()))
        try:
            if name == "Fast":
                assert self.emp_entered.wait(timeout=10)
                self.fast_met_emp.set()
            elif not self.emp_entered.is_set():
                self.emp_entered.set()
                assert self.fast_met_emp.wait(timeout=10)
            else:
                time.sleep(0.001)  # widen the window another writer could use
            return super()._serve(request)
        finally:
            with self._guard:
                self.running[name] -= 1


def test_one_relation_never_runs_on_two_threads_at_once():
    """Three connections write ``Emp`` at once while a fourth reads ``Fast``:
    ``Emp``'s requests take turns, and ``Fast`` runs beside them."""
    database = provider(OverlapRecordingServer)
    emp = emp_fixture()
    failures = []

    def writer(port: int, rounds: int) -> None:
        try:
            sock = open_client(port)
            try:
                for _ in range(rounds):
                    assert ask(sock, scan(emp)).channel == CHANNEL_ENVELOPE
                    ask(sock, insert("Emp", additions=[(L1, b"\x09" * 16)]))
            finally:
                sock.close()
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            failures.append(exc)

    with ThreadedTcpServer(database) as server:
        reader = open_client(server.port)
        writers = [
            threading.Thread(target=writer, args=(server.port, 20)) for _ in range(3)
        ]
        try:
            send_frame(reader, lookup("Fast", L1), correlation=1)
            for thread in writers:
                thread.start()
            assert recv_frame(reader).correlation == 1
        finally:
            for thread in writers:
                thread.join(timeout=30)
            reader.close()
    assert not failures, failures
    assert database.peak == {"Emp": 1, "Fast": 1}
    assert database.peak_total == 2
    assert server_counts(server.server)["requests_dispatched"] == 121


class TestTheLockIsReleasedBeforeAnswering:
    def test_the_relation_is_idle_and_counted_when_the_answer_is_sent(self, monkeypatch):
        seen = []
        send = server_module._Connection._send
        database = provider()

        def recording_send(connection, payload, channel, correlation):
            if correlation >= 5:
                seen.append((
                    correlation,
                    dict(database._locks),
                    server_counts(connection._server)["requests_dispatched"],
                ))
            send(connection, payload, channel, correlation)

        monkeypatch.setattr(server_module._Connection, "_send", recording_send)
        with ThreadedTcpServer(database) as server:
            sock = open_client(server.port)
            try:
                ask(sock, lookup("Emp", L1), correlation=5)
                ask(sock, insert("Emp", additions=[(L1, b"\x09" * 16)]), correlation=6)
                send_frame(sock, b'{"op": "ping"}', channel=CHANNEL_CONTROL, correlation=7)
                assert recv_frame(sock).correlation == 7
            finally:
                sock.close()
        assert seen == [(5, {}, 1), (6, {}, 2), (7, {}, 3)]


# --------------------------------------------------------------------------- #
# A slow relation holds up only the requests for it
# --------------------------------------------------------------------------- #


class TestASlowRelationHoldsUpNoOtherRequest:
    def test_a_lookup_that_falls_back_to_scan_holds_up_no_other_connection(self):
        database = provider(SlowScanServer)
        emp = emp_fixture()
        database.drop_relation("Emp")  # re-create without INDEX_PUT: no index
        emp.install(database, index=False)
        fallback = emp.scheme.encrypt_query(Selection.equals("dept", "HR"))
        with ThreadedTcpServer(database) as server:
            slow, other = open_client(server.port), open_client(server.port)
            try:
                send_frame(slow, lookup("Emp", L1, fallback=fallback), correlation=1)
                assert database.scanning.wait(timeout=10)
                assert ping(other) == {"ok": True}
                answer = parse_message(ask(other, lookup("Fast", L1)).payload)
                assert answer.kind is MessageKind.QUERY_RESULT
                assert unanswered(slow)
                database.release.set()
                answer = parse_message(recv_frame(slow).payload)
                assert answer.kind is MessageKind.QUERY_RESULT
            finally:
                database.release.set()
                slow.close()
                other.close()

    def test_a_gated_relation_holds_up_neither_control_ops_nor_other_relations(self):
        database = provider(GatedServer)
        gate = database.gate("Emp")
        with ThreadedTcpServer(database) as server:
            slow, other = open_client(server.port), open_client(server.port)
            try:
                send_frame(slow, lookup("Emp", L1), correlation=1)
                assert database.entered["Emp"].wait(timeout=10)
                assert ping(other) == {"ok": True}
                send_frame(other, b'{"op": "metrics"}', channel=CHANNEL_CONTROL, correlation=4)
                metrics = json.loads(recv_frame(other).payload)["metrics"]
                dispatched = snapshot_scalars(metrics, "server_")["requests_dispatched"]
                assert dispatched == 1  # the ping
                assert ask(other, lookup("Fast", L1)).channel == CHANNEL_ENVELOPE
                assert unanswered(slow)
                gate.set()
                assert recv_frame(slow).correlation == 1
            finally:
                gate.set()
                slow.close()
                other.close()

    def test_a_pipelined_burst_is_answered_in_order_while_a_ping_overtakes_it(self):
        """200 lookups in one write, parked behind their relation's gate:
        another connection is answered meanwhile, and the burst keeps order."""
        database = GatedServer()
        Fixture(
            EMP_DECL, [(f"emp{i}", "HR", i) for i in range(128)], []
        ).install(database)
        gate = database.gate("Emp")
        burst = b"".join(
            encode_frame(lookup("Emp", L1), channel=CHANNEL_ENVELOPE, correlation=i)
            for i in range(10, 210)
        )
        with ThreadedTcpServer(database) as server:
            a, b = open_client(server.port), open_client(server.port)
            try:
                a.sendall(burst)
                assert database.entered["Emp"].wait(timeout=10)
                assert ping(b) == {"ok": True}
                assert unanswered(a)
                gate.set()
                frames = [recv_frame(a) for _ in range(200)]
                assert [f.correlation for f in frames] == list(range(10, 210))
                assert {parse_message(f.payload).kind for f in frames} == {
                    MessageKind.QUERY_RESULT
                }
            finally:
                gate.set()
                a.close()
                b.close()

    def test_a_peer_that_never_reads_blocks_only_its_own_connection(self):
        """Answers the peer does not read fill the socket buffers and park
        its connection's thread in ``sendall``; no other connection waits."""

        class BigAnswers(OutsourcedDatabaseServer):
            def handle_message(self, raw: bytes) -> bytes:
                if parse_message(raw).relation_name == "Big":
                    return b"\x00" * (1 << 20)
                return super().handle_message(raw)

        database = BigAnswers()
        fast_fixture().install(database)
        requests = 12
        with ThreadedTcpServer(database) as server:
            hog = socket.socket()
            hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            hog.settimeout(10.0)
            hog.connect(("127.0.0.1", server.port))
            other = open_client(server.port)
            before = server_counts(server.server)["frames_sent"]

            def sent() -> int:  # frames sent since ``other``'s hello
                return server_counts(server.server)["frames_sent"] - before

            try:
                send_frame(hog, b'{"op": "hello"}', channel=CHANNEL_CONTROL, correlation=1)
                hog.sendall(b"".join(
                    encode_frame(envelope(MessageKind.TUPLE_COUNT, "Big"), correlation=c)
                    for c in range(10, 10 + requests)
                ))
                wait_until(lambda: sent() > 1)
                connection = connection_of(server, hog)
                assert ping(other) == {"ok": True}
                answer = parse_message(ask(other, lookup("Fast", L1)).payload)
                assert answer.kind is MessageKind.QUERY_RESULT
                assert connection._busy
                assert sent() - 2 < 1 + requests  # less other's two: parked in sendall
                assert json.loads(recv_frame(hog).payload)["ok"]  # the hello
                frames = [recv_frame(hog) for _ in range(requests)]
                assert [f.correlation for f in frames] == list(range(10, 10 + requests))
                assert {len(f.payload) for f in frames} == {1 << 20}
                assert sent() - 2 == 1 + requests
            finally:
                hog.close()
                other.close()


# --------------------------------------------------------------------------- #
# Lifecycle: start, the connection cap and stop
# --------------------------------------------------------------------------- #


class TestLifecycle:
    def test_a_started_server_refuses_a_second_start(self):
        server = ThreadedTcpServer()
        with pytest.raises(RuntimeError, match="not started"):
            server.address
        with server:
            port = server.port
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
            sock = open_client(port)  # the first start still serves
            try:
                assert ping(sock) == {"ok": True}
            finally:
                sock.close()

    def test_a_closed_peer_frees_its_slot(self, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 1)
        with ThreadedTcpServer() as server:
            for _ in range(3):  # each one's hello waits for the last to go
                sock = open_client(server.port)
                try:
                    assert ping(sock) == {"ok": True}
                finally:
                    sock.close()
            wait_until(lambda: server_counts(server.server)["connections_active"] == 0)
            assert server_counts(server.server)["connections_total"] == 3

    def test_stop_wakes_an_accept_thread_waiting_for_a_free_slot(self, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 1)
        server = ThreadedTcpServer().start()
        sock = open_client(server.port)
        try:
            stopping = threading.Thread(target=server.stop)
            stopping.start()
            stopping.join(timeout=10)
            assert not stopping.is_alive()
            assert not server.server._accept_thread.is_alive()
            assert recv_frame(sock) is None  # the idle connection was cut
        finally:
            sock.close()
            server.stop()

    def test_stop_cuts_a_request_that_outlives_the_drain_grace(self):
        database = GatedServer()
        fast_fixture().install(database)
        gate = database.gate("Fast")
        server = ThreadedTcpServer(database).start()
        busy = open_client(server.port)
        try:
            send_frame(busy, lookup("Fast", L1), correlation=9)
            assert database.entered["Fast"].wait(timeout=10)
            stopping = threading.Thread(target=server.stop, args=(0.2,))
            stopping.start()
            assert recv_frame(busy) is None  # cut past the grace, unanswered
            assert stopping.is_alive()  # still waiting for the thread to end
            gate.set()
            stopping.join(timeout=10)
            assert not stopping.is_alive()
            assert server_counts(server.server)["connections_active"] == 0
            assert database._locks == {}
        finally:
            gate.set()
            busy.close()
            server.stop()

    def test_stop_leaves_no_server_thread_behind(self):
        before = set(threading.enumerate())
        with ThreadedTcpServer(provider()) as server:
            socks = [open_client(server.port) for _ in range(3)]
            try:
                for sock in socks:
                    ask(sock, lookup("Emp", L1))
                started = set(threading.enumerate()) - before
                assert len(started) == 4  # the accept thread and one per connection
            finally:
                for sock in socks[1:]:
                    sock.close()
        socks[0].close()
        assert not [thread for thread in started if thread.is_alive()]
