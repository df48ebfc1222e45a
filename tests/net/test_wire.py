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
        assert [frame.correlation for frame in channel.receive(response_bytes(first))] == [first]
        second, _ = channel.send(b"b", CHANNEL_ENVELOPE)
        assert second != first
        assert [frame.correlation for frame in channel.receive(response_bytes(second))] == [
            second
        ]

    def test_only_the_awaited_request_is_answered(self):
        channel = ClientChannel()
        one, _ = channel.send(b"a", CHANNEL_ENVELOPE)
        two, _ = channel.send(b"b", CHANNEL_ENVELOPE)
        # The earlier request's answer pairs with nothing; the awaited one
        # is matched wherever it falls in the bytes.
        matched = channel.receive(response_bytes(one, b"A") + response_bytes(two, b"B"))
        assert [(frame.correlation, frame.payload) for frame in matched] == [(two, b"B")]
        # Answered: a repeat pairs with nothing.
        assert channel.receive(response_bytes(one) + response_bytes(two)) == []

    def test_wire_bytes_carry_the_correlation(self):
        channel = ClientChannel()
        correlation, wire_bytes = channel.send(b"payload", CHANNEL_CONTROL)
        frames = FrameDecoder().feed(wire_bytes)
        assert frames[0].correlation == correlation
        assert frames[0].channel == CHANNEL_CONTROL

    def test_a_second_answer_to_one_request_is_dropped(self):
        channel = ClientChannel()
        correlation, _ = channel.send(b"slow", CHANNEL_ENVELOPE)
        late = response_bytes(correlation, b"late")
        matched = channel.receive(response_bytes(correlation) + late)
        assert [frame.payload for frame in matched] == [b"pong"]
        assert channel.receive(late) == []

    def test_unsolicited_response_is_an_orphan(self):
        channel = ClientChannel()
        assert channel.receive(response_bytes(1234)) == []
        # ...and does not stand in for a later request's answer.
        correlation, _ = channel.send(b"req", CHANNEL_ENVELOPE)
        assert correlation != 1234
        assert [f.correlation for f in channel.receive(response_bytes(correlation))] == [
            correlation
        ]

    def test_partial_frames_buffer_across_receives(self):
        channel = ClientChannel()
        correlation, _ = channel.send(b"req", CHANNEL_ENVELOPE)
        raw = response_bytes(correlation, b"answer")
        assert channel.receive(raw[:7]) == []
        matched = channel.receive(raw[7:])
        assert [(frame.correlation, frame.payload) for frame in matched] == [
            (correlation, b"answer")
        ]

    @pytest.mark.parametrize("payload, fault", [
        (b'{"ok": false, "error": "frame too large"}', "frame too large"),
        (b'{"ok": false}', "unspecified provider error"),
        (b"\xff\xfe", "unreadable provider fault"),
        (b"[1, 2]", "unreadable provider fault"),
    ], ids=["error", "no-error-text", "not-utf8", "not-an-object"])
    def test_a_correlation_zero_control_frame_is_the_connection_fault(self, payload, fault):
        channel = ClientChannel()
        correlation, _ = channel.send(b"req", CHANNEL_ENVELOPE)
        broadcast = encode_frame(payload, channel=CHANNEL_CONTROL, correlation=0)
        assert channel.receive(broadcast) == []
        assert channel.fault == fault
        # The awaited request is still the one that pairs.
        assert [f.correlation for f in channel.receive(response_bytes(correlation))] == [
            correlation
        ]

    def test_a_correlation_zero_envelope_frame_is_dropped_without_a_fault(self):
        channel = ClientChannel()
        channel.send(b"req", CHANNEL_ENVELOPE)
        assert channel.receive(response_bytes(0, b'{"ok": false, "error": "x"}')) == []
        assert channel.fault is None

    def test_correlations_wrap_at_32_bits(self):
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
