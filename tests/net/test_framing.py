"""Unit tests of the length-prefixed framing codec."""

from __future__ import annotations

import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.framing import (
    CHANNEL_CONTROL,
    CHANNEL_ENVELOPE,
    FRAME_HEADER_SIZE,
    Frame,
    FrameDecoder,
    FramingError,
    LENGTH_PREFIX_SIZE,
    MAX_CORRELATION_ID,
    OversizedFrameError,
    TruncatedFrameError,
    encode_frame,
    recv_frame,
    send_frame,
)


class TestEncode:
    def test_layout(self):
        raw = encode_frame(b"abc", channel=CHANNEL_ENVELOPE, correlation=7)
        assert raw == (
            (FRAME_HEADER_SIZE + 3).to_bytes(LENGTH_PREFIX_SIZE, "big")
            + b"\x00"
            + (7).to_bytes(4, "big")
            + b"abc"
        )

    def test_correlation_round_trips(self):
        raw = encode_frame(b"x", correlation=MAX_CORRELATION_ID)
        assert FrameDecoder().feed(raw) == [
            Frame(CHANNEL_ENVELOPE, b"x", MAX_CORRELATION_ID)
        ]

    def test_correlation_must_fit_32_bits(self):
        for bad in (-1, MAX_CORRELATION_ID + 1):
            with pytest.raises(FramingError, match="32 bits"):
                encode_frame(b"x", correlation=bad)

    def test_empty_payload_is_legal(self):
        raw = encode_frame(b"", channel=CHANNEL_CONTROL)
        assert FrameDecoder().feed(raw) == [Frame(CHANNEL_CONTROL, b"")]

    def test_oversized_rejected_at_encode_time(self):
        with pytest.raises(OversizedFrameError):
            encode_frame(b"x" * 32, max_frame_size=16)

    def test_unknown_channel_rejected(self):
        with pytest.raises(FramingError):
            encode_frame(b"x", channel=0x7F)


class TestDecoder:
    def test_round_trip(self):
        decoder = FrameDecoder()
        frames = decoder.feed(encode_frame(b"hello", channel=CHANNEL_CONTROL))
        assert frames == [Frame(CHANNEL_CONTROL, b"hello")]
        assert decoder.pending_bytes == 0

    def test_byte_by_byte_feeding(self):
        raw = encode_frame(b"payload")
        decoder = FrameDecoder()
        collected = []
        for index in range(len(raw)):
            collected += decoder.feed(raw[index: index + 1])
        assert collected == [Frame(CHANNEL_ENVELOPE, b"payload")]

    def test_many_frames_in_one_chunk(self):
        raw = b"".join(encode_frame(bytes([i])) for i in range(10))
        frames = FrameDecoder().feed(raw)
        assert [f.payload for f in frames] == [bytes([i]) for i in range(10)]

    def test_frames_split_across_chunks(self):
        raw = encode_frame(b"a" * 100) + encode_frame(b"b" * 100)
        decoder = FrameDecoder()
        frames = decoder.feed(raw[:150])
        frames += decoder.feed(raw[150:])
        assert [f.payload for f in frames] == [b"a" * 100, b"b" * 100]

    def test_oversized_header_rejected_before_body_arrives(self):
        huge = (2**31).to_bytes(LENGTH_PREFIX_SIZE, "big")
        with pytest.raises(OversizedFrameError):
            FrameDecoder(max_frame_size=1024).feed(huge)

    def test_headerless_frame_rejected(self):
        for short in range(FRAME_HEADER_SIZE):
            with pytest.raises(FramingError, match="header"):
                FrameDecoder().feed((short).to_bytes(LENGTH_PREFIX_SIZE, "big"))

    def test_unknown_channel_rejected(self):
        raw = (FRAME_HEADER_SIZE + 1).to_bytes(LENGTH_PREFIX_SIZE, "big") + b"\x7f\x00\x00\x00\x00x"
        with pytest.raises(FramingError, match="channel"):
            FrameDecoder().feed(raw)

    def test_finish_mid_frame_raises(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(b"abcdef")[:-2])
        with pytest.raises(TruncatedFrameError):
            decoder.finish()

    def test_finish_between_frames_is_clean(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(b"abc"))
        decoder.finish()


class TestBlockingHelpers:
    @pytest.fixture
    def pair(self):
        left, right = socket.socketpair()
        yield left, right
        left.close()
        right.close()

    def test_send_then_recv(self, pair):
        left, right = pair
        send_frame(left, b"ping", channel=CHANNEL_CONTROL)
        frame = recv_frame(right)
        assert frame == Frame(CHANNEL_CONTROL, b"ping")

    def test_clean_eof_between_frames_returns_none(self, pair):
        left, right = pair
        left.close()
        assert recv_frame(right) is None

    def test_eof_mid_frame_raises(self, pair):
        left, right = pair
        left.sendall(encode_frame(b"abcdef")[:-3])
        left.close()
        with pytest.raises(TruncatedFrameError):
            recv_frame(right)

    def test_oversized_rejected(self, pair):
        left, right = pair
        left.sendall((2**24).to_bytes(LENGTH_PREFIX_SIZE, "big"))
        with pytest.raises(OversizedFrameError):
            recv_frame(right, max_frame_size=1024)


#: The one parser's limit in the comparisons below.
LIMIT = 1024

HOSTILE_FRAMES = [
    (2**32 - 1).to_bytes(4, "big"),  # oversized
    (LIMIT + 1).to_bytes(4, "big"),  # one past the limit
    (0).to_bytes(4, "big"),  # no header at all
    (FRAME_HEADER_SIZE - 1).to_bytes(4, "big") + b"\x00" * 4,  # a header cut short
    (FRAME_HEADER_SIZE).to_bytes(4, "big") + b"\x02" + b"\x00" * 4,  # unknown channel
    (FRAME_HEADER_SIZE + 2).to_bytes(4, "big") + b"\xff" + b"\x00" * 6,
    encode_frame(b"fine", channel=CHANNEL_CONTROL, correlation=7),
]


def _decoded(data: bytes):
    """What :class:`FrameDecoder` makes of ``data``: its frames, or its error class."""
    try:
        return FrameDecoder(LIMIT).feed(data)
    except FramingError as exc:
        return type(exc)


def _received(data: bytes):
    """What :func:`recv_frame` makes of ``data`` sent over a socket pair."""
    left, right = socket.socketpair()
    with left, right:
        left.sendall(data)
        try:
            return [recv_frame(right, max_frame_size=LIMIT)]
        except FramingError as exc:
            return type(exc)


class TestOneFrameParser:
    """``recv_frame`` is the decoder fed off a socket: it refuses exactly what
    ``FrameDecoder.feed`` refuses, with the same error class."""

    @pytest.mark.parametrize("data", HOSTILE_FRAMES, ids=lambda data: data[:6].hex())
    def test_hostile_prefixes_raise_what_the_decoder_raises(self, data):
        assert _received(data) == _decoded(data)

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.one_of(st.integers(0, LIMIT + 8), st.integers(0, 2**32 - 1)),
        filler=st.binary(max_size=LIMIT),
    )
    def test_drawn_prefixes_agree(self, length, filler):
        # A body is sent only when the prefix allows one, and then whole, so
        # neither side waits for bytes that never come.
        body = (filler + bytes(length))[:length] if length <= LIMIT else b""
        data = length.to_bytes(4, "big") + body
        assert _received(data) == _decoded(data)
