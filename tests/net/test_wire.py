"""Unit tests of the sans-IO client protocol core."""

from __future__ import annotations

import pytest

from repro.net.framing import CHANNEL_CONTROL, CHANNEL_ENVELOPE, FrameDecoder, encode_frame
from repro.net.wire import (
    ClientChannel,
    WireProtocolError,
    control_error,
    decode_control_response,
    encode_control_request,
)


def response_bytes(correlation: int, payload: bytes = b"pong") -> bytes:
    return encode_frame(payload, channel=CHANNEL_ENVELOPE, correlation=correlation)


class TestClientChannel:
    def test_requests_get_distinct_correlations(self):
        channel = ClientChannel()
        first, _ = channel.send(b"a", CHANNEL_ENVELOPE)
        second, _ = channel.send(b"b", CHANNEL_ENVELOPE)
        assert first != second
        assert channel.pending_count == 2

    def test_response_pairs_to_its_context(self):
        channel = ClientChannel()
        one, _ = channel.send(b"a", CHANNEL_ENVELOPE, context="first")
        two, _ = channel.send(b"b", CHANNEL_ENVELOPE, context="second")
        # Answer out of order: the second request first.
        matched = channel.receive(response_bytes(two, b"B") + response_bytes(one, b"A"))
        assert [(ctx, frame.payload) for ctx, frame in matched] == [
            ("second", b"B"),
            ("first", b"A"),
        ]
        assert channel.pending_count == 0

    def test_wire_bytes_carry_the_correlation(self):
        channel = ClientChannel()
        correlation, wire_bytes = channel.send(b"payload", CHANNEL_CONTROL)
        frames = FrameDecoder().feed(wire_bytes)
        assert frames[0].correlation == correlation
        assert frames[0].channel == CHANNEL_CONTROL

    def test_cancelled_requests_orphan_their_late_response(self):
        channel = ClientChannel()
        correlation, _ = channel.send(b"slow", CHANNEL_ENVELOPE, context="gone")
        assert channel.cancel(correlation) == "gone"
        assert channel.pending_count == 0
        matched = channel.receive(response_bytes(correlation))
        assert matched == []
        assert channel.orphan_frames == 1

    def test_unsolicited_response_is_an_orphan(self):
        channel = ClientChannel()
        assert channel.receive(response_bytes(1234)) == []
        assert channel.orphan_frames == 1

    def test_fail_all_pops_every_context(self):
        channel = ClientChannel()
        channel.send(b"a", CHANNEL_ENVELOPE, context="x")
        channel.send(b"b", CHANNEL_ENVELOPE, context="y")
        assert channel.fail_all() == ["x", "y"]
        assert channel.pending_count == 0

    def test_partial_frames_buffer_across_receives(self):
        channel = ClientChannel()
        correlation, _ = channel.send(b"req", CHANNEL_ENVELOPE, context="ctx")
        raw = response_bytes(correlation, b"answer")
        assert channel.receive(raw[:7]) == []
        matched = channel.receive(raw[7:])
        assert matched[0][0] == "ctx"
        assert matched[0][1].payload == b"answer"

    def test_correlations_skip_in_flight_ids_when_wrapping(self):
        channel = ClientChannel()
        channel._next_correlation = 2**32 - 1
        high, _ = channel.send(b"a", CHANNEL_ENVELOPE)
        assert high == 2**32 - 1
        wrapped, _ = channel.send(b"b", CHANNEL_ENVELOPE)
        assert wrapped == 1


class TestControlCodecs:
    def test_hello_round_trip(self):
        payload = encode_control_request("hello")
        assert decode_control_response(payload) == {"op": "hello"}

    def test_malformed_control_payloads_rejected(self):
        with pytest.raises(WireProtocolError):
            decode_control_response(b"{not json")
        with pytest.raises(WireProtocolError):
            decode_control_response(b"[1, 2]")
        assert control_error({"error": "boom"}) == "boom"
        assert "unspecified" in control_error({})

    def test_deeply_nested_control_payload_is_a_wire_error(self):
        with pytest.raises(WireProtocolError, match="malformed control response"):
            decode_control_response(b"[" * 200_000)
