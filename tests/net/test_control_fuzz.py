"""Hostile control frames against a served provider.

Every control frame a peer can send -- any JSON value, an object whose
``op``, ``limit``, ``trace_id`` or ``format`` has the wrong type or an
out-of-range value, bytes that are not UTF-8, nesting deeper than the
parser's recursion limit -- gets, within a bounded time, either an answer
on a connection that lives on (``ok: false`` unless the request happens to
be a valid read-out) or one ``ok: false`` refusal frame followed by a close,
at the default frame limit and at one too small for some answers.  No
connection thread dies with an exception, and a fresh connection is still
served.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from provider_calls import server_counts

from repro.net import (
    CHANNEL_CONTROL,
    DEFAULT_MAX_FRAME_SIZE,
    ThreadedTcpServer,
    recv_frame,
    send_frame,
)

#: The longest any answer, refusal or close may take.
TIMEOUT_S = 10.0

scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=40)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)
#: A field of the wrong type, or of the right type out of range.
wrong_fields = json_values | st.sampled_from([
    -1, 0, 2**63, -(2**70), float("inf"), float("-inf"), float("nan"), 1e308,
    "", "zz", "0" * 33, "00" * 16, "prometheus", "PROMETHEUS", [], {},
])
ops = st.sampled_from(["ping", "metrics", "trace", "hello", "stats", "", "PING"]) | json_values
requests = st.fixed_dictionaries(
    {"op": ops},
    optional={"limit": wrong_fields, "trace_id": wrong_fields, "format": wrong_fields},
)
#: One field wrong on the read-out that reads it.
one_wrong_field = st.one_of(
    st.fixed_dictionaries({"op": st.just("trace"), "limit": wrong_fields}),
    st.fixed_dictionaries({"op": st.just("trace"), "trace_id": wrong_fields}),
    st.fixed_dictionaries({"op": st.just("metrics"), "format": wrong_fields}),
    st.fixed_dictionaries({"op": wrong_fields}),
)


def _nested(depth: int, inside_op: bool) -> bytes:
    nesting = b"[" * depth + b"]" * depth
    return b'{"op": ' + nesting + b"}" if inside_op else nesting


payloads = st.one_of(
    one_wrong_field.map(lambda request: json.dumps(request).encode()),
    requests.map(lambda request: json.dumps(request).encode()),
    json_values.map(lambda value: json.dumps(value).encode()),
    st.binary(max_size=64),
    st.builds(_nested, st.integers(1, 20_000), st.booleans()),
)


def _open(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
    sock.settimeout(TIMEOUT_S)
    send_frame(sock, b'{"op": "hello"}', channel=CHANNEL_CONTROL, correlation=1)
    assert json.loads(recv_frame(sock).payload)["ok"]
    return sock


def _ping(sock: socket.socket):
    send_frame(sock, b'{"op": "ping"}', channel=CHANNEL_CONTROL, correlation=3)
    return recv_frame(sock)


@pytest.mark.parametrize("max_frame_size", [DEFAULT_MAX_FRAME_SIZE, 1024])
def test_every_control_frame_is_answered_or_refused_and_the_provider_serves_on(
    monkeypatch, max_frame_size
):
    """At a 1 KiB frame limit, a ``metrics`` snapshot no longer fits in its
    answer frame: that answer is an ``ok: false`` error too."""
    deaths = []
    monkeypatch.setattr(threading, "excepthook", deaths.append)
    with ThreadedTcpServer(max_frame_size=max_frame_size) as server:

        @settings(max_examples=500, deadline=None)
        @given(payload=payloads)
        def exchange(payload: bytes) -> None:
            started = time.monotonic()
            with _open(server.port) as sock:
                send_frame(sock, payload, channel=CHANNEL_CONTROL, correlation=2)
                answer = recv_frame(sock)
                assert answer is not None and answer.channel == CHANNEL_CONTROL
                reply = json.loads(answer.payload)
                after = _ping(sock)
                if after is None:  # refused: one error frame, then the close
                    assert reply["ok"] is False and reply["error"]
                    # 0 when the frame is refused before its header is read
                    assert answer.correlation in (0, 2)
                else:
                    assert answer.correlation == 2
                    assert json.loads(after.payload) == {"ok": True}
                    assert reply["ok"] is False or _is_valid(payload)
            assert time.monotonic() - started < TIMEOUT_S
            assert not deaths, deaths

        exchange()
        deadline = time.monotonic() + TIMEOUT_S
        while server_counts(server.server)["connections_active"]:
            assert time.monotonic() < deadline, "a connection never closed"
            time.sleep(0.01)
        with _open(server.port) as sock:
            assert json.loads(_ping(sock).payload) == {"ok": True}
    assert not deaths, deaths


def _is_valid(payload: bytes) -> bool:
    """A request the provider may answer ``ok: true``: a read-out it serves."""
    request = json.loads(payload)
    return request["op"] in ("ping", "metrics", "trace", "hello")
