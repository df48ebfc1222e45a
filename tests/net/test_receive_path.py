"""Properties of the server's receive path (``repro.net.server``).

A connection's thread reads whatever chunks the socket delivers.  Chunk
boundaries must not change what is answered; bytes that break the framing
or protocol rules get one control error frame and a closed connection in
bounded time; a client that pipelines without reading has one request in
flight at a time and gets every answer in order; and a peer bounds neither
the connections served at once nor the provider's table of relation locks.
"""

from __future__ import annotations

import json
import socket
import time

import pytest
from gated_provider import GatedServer, store_empty
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.index import IndexLookupRequest
from repro.index.wire import encode_index_lookup
from repro.net import CHANNEL_CONTROL, ThreadedTcpServer, recv_frame, send_frame
from repro.net.framing import (
    CHANNEL_ENVELOPE,
    FRAME_HEADER_SIZE,
    FrameDecoder,
    FramingError,
    encode_frame,
)
from repro.net import server as server_module
from repro.net.server import DatabaseTcpServer, _Connection
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import (
    MessageKind,
    MessageV2,
    ProtocolError,
    encode_encrypted_query,
    parse_message,
    peek_envelope,
)
from repro.relational import Relation, RelationSchema, Selection
from repro.schemes.plaintext import PlaintextDph

SCHEMA = RelationSchema.parse("Emp(name:string[8], dept:string[4])")
L1, L2 = b"\x01" * 32, b"\x02" * 32
MAX_FRAME = 4096
HELLO = json.dumps({"op": "hello"}).encode()


def indexed_provider() -> tuple[OutsourcedDatabaseServer, PlaintextDph]:
    """``Emp`` stored, indexed (L1 / L2 split its ids) and warmed."""
    scheme = PlaintextDph(
        SCHEMA, SecretKey.generate(rng=DeterministicRng(1)), rng=DeterministicRng(2)
    )
    rows = [(f"e{i}", "HR" if i % 2 else "IT") for i in range(8)]
    encrypted = scheme.encrypt_relation(Relation.from_rows(SCHEMA, rows))
    ids = [t.tuple_id for t in encrypted.encrypted_tuples]
    database = OutsourcedDatabaseServer()
    database.store_relation("Emp", encrypted, scheme.server_evaluator())
    database.put_index(
        "Emp", tuple((L1, i) for i in ids[:4]) + tuple((L2, i) for i in ids[4:])
    )
    hr_scan = scheme.encrypt_query(Selection.equals("dept", "HR"))
    database.index_lookup("Emp", IndexLookupRequest(labels=(L1,), fallback_query=hr_scan))
    return database, scheme


def request_pool(scheme: PlaintextDph) -> list[tuple[int, bytes]]:
    """Read-only requests: their answers do not depend on what ran before."""

    def envelope(kind, relation="Emp", body=b"", trace_id=None):
        return MessageV2(kind, relation, body, trace_id=trace_id).to_bytes()

    hr_scan = scheme.encrypt_query(Selection.equals("dept", "HR"))

    def lookup(*labels, relation="Emp", trace_id=None):
        request = IndexLookupRequest(labels=labels, fallback_query=hr_scan)
        return envelope(MessageKind.INDEX_LOOKUP, relation, encode_index_lookup(request), trace_id)

    scan = encode_encrypted_query(hr_scan)
    control = [
        {"op": "ping"},
        {"op": "tuple-count", "relation": "Emp"},
        {"op": "relation-names"},
        {"op": "format-disk"},  # unknown: ok false, the connection lives on
    ]
    return [
        (CHANNEL_ENVELOPE, lookup(L1)),
        (CHANNEL_ENVELOPE, lookup(L2)),
        (CHANNEL_ENVELOPE, lookup(L1, L2, trace_id=b"\x7a" * 16)),
        (CHANNEL_ENVELOPE, lookup(L1, relation="Nope")),
        (CHANNEL_ENVELOPE, envelope(MessageKind.INDEX_LOOKUP, body=b"\xff\xff")),
        (CHANNEL_ENVELOPE, envelope(MessageKind.QUERY, body=scan)),
        (CHANNEL_ENVELOPE, envelope(MessageKind.LIST_TUPLE_IDS)),
    ] + [(CHANNEL_CONTROL, json.dumps(message).encode()) for message in control]


@pytest.fixture(scope="module")
def served():
    database, scheme = indexed_provider()
    return DatabaseTcpServer(database), request_pool(scheme)


def answers_to(server: DatabaseTcpServer, chunks: list[bytes], expected: int) -> dict:
    """Serve ``chunks``, one read each, on a connection over a socket pair;
    its answers by correlation id."""
    ours, peer = socket.socketpair()
    connection = _Connection(server, ours)
    with ours, peer:
        for chunk in chunks:
            assert connection._serve(chunk)
        ours.shutdown(socket.SHUT_WR)
        written = b""
        while data := peer.recv(65536):
            written += data
    frames = FrameDecoder().feed(written)
    answers = {frame.correlation: (frame.channel, frame.payload) for frame in frames}
    assert len(answers) == len(frames) == expected
    return answers


@given(picks=st.lists(st.integers(0, 10), min_size=1, max_size=12), data=st.data())
@settings(max_examples=40, deadline=None)
def test_chunk_boundaries_do_not_change_the_answers(served, picks, data):
    server, pool = served
    wire = encode_frame(HELLO, channel=CHANNEL_CONTROL, correlation=1) + b"".join(
        encode_frame(pool[pick][1], channel=pool[pick][0], correlation=10 + index)
        for index, pick in enumerate(picks)
    )
    cuts = sorted(
        data.draw(st.sets(st.integers(1, len(wire) - 1), max_size=24), label="cuts")
    )
    bounds = [0, *cuts, len(wire)]
    chunks = [wire[start:stop] for start, stop in zip(bounds, bounds[1:])]
    whole = answers_to(server, [wire], len(picks) + 1)
    split = answers_to(server, chunks, len(picks) + 1)
    assert split == whole
    assert set(whole) == {1, *range(10, 10 + len(picks))}
    assert json.loads(whole[1][1])["ok"]


# --------------------------------------------------------------------------- #
# Hostile bytes over a real socket
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def provider_port():
    with ThreadedTcpServer(indexed_provider()[0], max_frame_size=MAX_FRAME) as server:
        yield server.port


def hello_client(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=2.0)
    sock.settimeout(2.0)
    send_frame(sock, HELLO, channel=CHANNEL_CONTROL, correlation=1)
    assert json.loads(recv_frame(sock).payload)["ok"]
    return sock


def ping(sock: socket.socket) -> bool:
    send_frame(sock, json.dumps({"op": "ping"}).encode(), channel=CHANNEL_CONTROL)
    return json.loads(recv_frame(sock).payload)["ok"]


def refused_envelope(payload: bytes) -> bool:
    try:
        peek_envelope(payload)
    except ProtocolError:
        return True
    return False


def refused_control(payload: bytes) -> bool:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return True
    return not isinstance(message, dict) or "op" not in message


def raw_frame(body_size: int, channel: int, payload: bytes) -> bytes:
    return body_size.to_bytes(4, "big") + bytes([channel]) + b"\x00" * 4 + payload


violations = st.one_of(
    st.integers(0, FRAME_HEADER_SIZE - 1).map(lambda size: size.to_bytes(4, "big")),
    st.integers(MAX_FRAME + 1, 2**32 - 1).map(lambda size: size.to_bytes(4, "big")),
    st.tuples(st.integers(2, 255), st.binary(max_size=64)).map(
        lambda t: raw_frame(FRAME_HEADER_SIZE + len(t[1]), t[0], t[1])
    ),
    st.binary(max_size=64)
    .filter(refused_envelope)
    .map(lambda payload: encode_frame(payload, channel=CHANNEL_ENVELOPE)),
    st.binary(max_size=64)
    .filter(refused_control)
    .map(lambda payload: encode_frame(payload, channel=CHANNEL_CONTROL)),
)


@given(violation=violations, tail=st.binary(max_size=256))
@settings(max_examples=60, deadline=None)
def test_a_violation_is_one_control_error_then_a_close(provider_port, violation, tail):
    sock = hello_client(provider_port)
    try:
        started = time.monotonic()
        sock.sendall(violation + tail)
        error = recv_frame(sock, max_frame_size=MAX_FRAME)
        assert error.channel == CHANNEL_CONTROL
        assert json.loads(error.payload)["ok"] is False
        assert recv_frame(sock, max_frame_size=MAX_FRAME) is None
        assert time.monotonic() - started < 2.0
    finally:
        sock.close()


@pytest.mark.parametrize("hello_first", [False, True], ids=["before-hello", "after-hello"])
def test_a_deeply_nested_control_frame_is_one_control_error_then_a_close(hello_first):
    """Nesting past the JSON parser's recursion limit is a malformed frame,
    not an exception escaping the transport's read callback."""
    with ThreadedTcpServer() as server:
        if hello_first:
            sock = hello_client(server.port)
        else:
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=2.0)
            sock.settimeout(2.0)
        try:
            send_frame(sock, b"[" * 200_000, channel=CHANNEL_CONTROL, correlation=7)
            error = recv_frame(sock)
            assert error.channel == CHANNEL_CONTROL and error.correlation == 7
            answer = json.loads(error.payload)
            assert answer["ok"] is False
            assert "malformed control frame" in answer["error"]
            assert recv_frame(sock) is None
        finally:
            sock.close()
        fresh = hello_client(server.port)  # and the server serves on
        fresh.close()


@given(junk=st.binary(max_size=512))
@settings(max_examples=60, deadline=None)
def test_arbitrary_bytes_never_hang_the_connection(provider_port, junk):
    sock = hello_client(provider_port)
    try:
        started = time.monotonic()
        sock.sendall(junk)
        sock.shutdown(socket.SHUT_WR)
        # Whole frames only, then the server's close: never a hang.
        while recv_frame(sock, max_frame_size=MAX_FRAME) is not None:
            pass
        assert time.monotonic() - started < 2.0
    finally:
        sock.close()
    fresh = hello_client(provider_port)  # and the server serves on
    fresh.close()


@given(junk=st.binary(max_size=512))
@settings(max_examples=300, deadline=None)
def test_decoders_raise_only_their_own_errors(junk):
    # Any other exception escapes and fails the test.
    try:
        FrameDecoder(MAX_FRAME).feed(junk)
    except FramingError:
        pass
    for decode in (peek_envelope, parse_message):
        try:
            decode(junk)
        except ProtocolError:
            pass


# --------------------------------------------------------------------------- #
# Admission and the bounds a peer cannot move
# --------------------------------------------------------------------------- #


def test_a_client_that_does_not_read_has_one_request_in_flight():
    database = GatedServer()
    store_empty(database, "Emp(name:string[8], dept:string[4])")
    gate = database.gate("Emp")
    request = MessageV2(MessageKind.LIST_TUPLE_IDS, "Emp").to_bytes()
    correlations = [103, 101, 104, 102]
    with ThreadedTcpServer(database) as server:
        sock = hello_client(server.port)
        try:
            sock.sendall(b"".join(encode_frame(request, correlation=c) for c in correlations))
            assert database.entered["Emp"].wait(timeout=10)
            # One request holds Emp's lock, and none waits for it.
            assert database._locks["Emp"][1] == 1
            gate.set()
            answers = [recv_frame(sock) for _ in correlations]
            assert [frame.correlation for frame in answers] == correlations
            assert all(
                parse_message(frame.payload).kind is MessageKind.TUPLE_IDS
                for frame in answers
            )
        finally:
            gate.set()
            sock.close()


def test_a_peer_past_the_connection_cap_waits_in_the_backlog(monkeypatch):
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
    with ThreadedTcpServer() as server:
        first, second = hello_client(server.port), hello_client(server.port)
        third = socket.create_connection(("127.0.0.1", server.port), timeout=2.0)
        try:
            send_frame(third, HELLO, channel=CHANNEL_CONTROL, correlation=1)
            third.settimeout(0.3)
            with pytest.raises(socket.timeout):
                third.recv(1)
            assert ping(second)  # the two served peers are served on
            first.close()
            third.settimeout(2.0)
            assert json.loads(recv_frame(third).payload)["ok"]
            assert server.server.stats["connections_total"] == 3
        finally:
            for sock in (first, second, third):
                sock.close()


def test_the_relation_lock_table_forgets_idle_relations():
    database = OutsourcedDatabaseServer()
    with ThreadedTcpServer(database) as server:
        sock = hello_client(server.port)
        try:
            for i in range(100):
                send_frame(sock, MessageV2(MessageKind.TUPLE_COUNT, f"made-up-{i}").to_bytes())
                assert parse_message(recv_frame(sock).payload).kind is MessageKind.ERROR
            assert ping(sock)
        finally:
            sock.close()
    for i in range(100):
        answer = database.handle_message(MessageV2(MessageKind.TUPLE_COUNT, f"local-{i}").to_bytes())
        assert parse_message(answer).kind is MessageKind.ERROR
    assert database._locks == {}
