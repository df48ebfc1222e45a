"""The v3 envelope: trace ids on the wire and the O(1) raw-frame helpers."""

from __future__ import annotations

import pytest

from repro.outsourcing import protocol
from repro.outsourcing.protocol import (
    PROTOCOL_V2,
    PROTOCOL_V3,
    TRACE_ID_SIZE,
    MessageKind,
    MessageV2,
    ProtocolError,
)

TID = bytes(range(TRACE_ID_SIZE))

#: A query in the retired unversioned v1 framing.
V1_QUERY = b"".join(len(part).to_bytes(4, "big") + part for part in (b"query", b"Emp", b""))


def _v2_frame(body: bytes = b"payload") -> bytes:
    return MessageV2(
        kind=MessageKind.QUERY, relation_name="Emp", body=body
    ).to_bytes()


class TestMessageV3:
    def test_version_follows_the_trace_id(self):
        untraced = MessageV2(kind=MessageKind.QUERY, relation_name="Emp")
        traced = MessageV2(
            kind=MessageKind.QUERY, relation_name="Emp", trace_id=TID
        )
        assert untraced.version == PROTOCOL_V2
        assert traced.version == PROTOCOL_V3

    def test_round_trip_preserves_the_trace_id(self):
        message = MessageV2(
            kind=MessageKind.INSERT_TUPLE, relation_name="Emp", body=b"x" * 33,
            trace_id=TID,
        )
        parsed = MessageV2.from_bytes(message.to_bytes())
        assert parsed.trace_id == TID
        assert parsed.kind is MessageKind.INSERT_TUPLE
        assert parsed.relation_name == "Emp"
        assert parsed.body == b"x" * 33

    def test_wrong_size_trace_id_is_rejected_at_serialization(self):
        message = MessageV2(
            kind=MessageKind.QUERY, relation_name="Emp", trace_id=b"short"
        )
        with pytest.raises(ProtocolError, match="16 bytes"):
            message.to_bytes()

    def test_truncated_v3_frame_is_rejected(self):
        raw = protocol.attach_trace(_v2_frame(), TID)
        with pytest.raises(ProtocolError):
            MessageV2.from_bytes(raw[: len(raw) - TRACE_ID_SIZE + 3][:12])

    def test_supported_versions_advertise_v3(self):
        assert PROTOCOL_V3 in protocol.SUPPORTED_VERSIONS
        assert protocol.negotiate_version((2, 3), (2, 3)) == PROTOCOL_V3
        # a pre-trace peer drags the session down to what it speaks
        assert protocol.negotiate_version((2, 3), (2,)) == PROTOCOL_V2
        # ... and a v1-only one cannot host a session at all
        with pytest.raises(ProtocolError, match="no common protocol version"):
            protocol.negotiate_version(protocol.SUPPORTED_VERSIONS, (1,))


class TestRawHelpers:
    def test_attach_flips_the_version_and_appends_the_id(self):
        raw = _v2_frame()
        traced = protocol.attach_trace(raw, TID)
        assert protocol.peek_version(traced) == PROTOCOL_V3
        assert traced[-TRACE_ID_SIZE:] == TID
        # the kind/name/body encoding is reused verbatim
        assert traced[len(protocol.V2_MAGIC) + 1: -TRACE_ID_SIZE] == raw[
            len(protocol.V2_MAGIC) + 1:
        ]

    def test_attach_refuses_a_v1_frame(self):
        with pytest.raises(ProtocolError, match="not a versioned protocol envelope"):
            protocol.attach_trace(V1_QUERY, TID)

    def test_attach_twice_is_a_caller_bug(self):
        traced = protocol.attach_trace(_v2_frame(), TID)
        with pytest.raises(ProtocolError, match="v3"):
            protocol.attach_trace(traced, TID)

    def test_attach_validates_the_id_size(self):
        with pytest.raises(ProtocolError, match="16 bytes"):
            protocol.attach_trace(_v2_frame(), b"nope")

    def test_strip_restores_the_exact_v2_bytes(self):
        raw = _v2_frame(b"body bytes")
        assert protocol.strip_trace(protocol.attach_trace(raw, TID)) == raw

    def test_strip_passes_untraced_frames_through(self):
        raw = _v2_frame()
        assert protocol.strip_trace(raw) == raw
        with pytest.raises(ProtocolError, match="not a versioned protocol envelope"):
            protocol.strip_trace(V1_QUERY)

    def test_peek_trace_id(self):
        raw = _v2_frame()
        assert protocol.peek_trace_id(raw) is None
        assert protocol.peek_trace_id(protocol.attach_trace(raw, TID)) == TID

    def test_peek_trace_id_reuses_an_already_peeked_version(self):
        for raw in (_v2_frame(), protocol.attach_trace(_v2_frame(), TID)):
            version, _, _ = protocol.peek_envelope(raw)
            assert protocol.peek_trace_id(raw, version) == protocol.peek_trace_id(raw)

    def test_parse_message_reads_v2_and_v3_and_refuses_v1(self):
        v2 = _v2_frame()
        v3 = protocol.attach_trace(v2, TID)
        assert protocol.parse_message(v2).trace_id is None
        assert protocol.parse_message(v3).trace_id == TID
        with pytest.raises(ProtocolError, match="not a versioned protocol envelope"):
            protocol.parse_message(V1_QUERY)

    def test_peek_envelope_accepts_v3(self):
        version, kind, relation = protocol.peek_envelope(
            protocol.attach_trace(_v2_frame(), TID)
        )
        assert version == PROTOCOL_V3
        assert kind is MessageKind.QUERY
        assert relation == "Emp"
